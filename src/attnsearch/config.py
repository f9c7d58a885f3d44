"""Experiment configuration.

One JSON file per experiment. Files are merged over pinned defaults,
validated up front, and hashed (sha256 of the canonical resolved form,
output directory excluded) into a digest that tags every output file so
cross-file joins can be checked. The environment variable ATTNSEARCH_SEED
may override the seed, and only the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import typing
from dataclasses import dataclass, field

from .controller import ControllerState
from .data import Dataset, load_csv, make_blob_dataset, make_digits_dataset, split_train_val
from .nncore import OptimizerConfig
from .rewards import RewardConfig, RNDPair
from .rngstreams import named_rng
from .supernet import BackboneConfig, SupernetState
from .search import SyntheticLandscape
from .theory import thm1_width_bound

ENV_SEED = "ATTNSEARCH_SEED"
# normal draws `verify-thm1` may make: 25x the default config's 4.0e9
MAX_THM1_DRAWS = 10 ** 11


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "blobs"  # "blobs" | "digits" | "csv"
    classes: int = 4
    per_class: int = 80
    noise: float = 0.12
    val_fraction: float = 0.2
    blobs_per_class: int = 2
    csv_path: str | None = None

    def __post_init__(self) -> None:
        _check_at_least("dataset", self, 1, "classes", "per_class", "blobs_per_class")
        _check_at_least("dataset", self, 0, "noise")
        _require("dataset", self, "kind", self.kind in ("blobs", "digits", "csv"),
                 "be 'blobs', 'digits' or 'csv'")
        _require("dataset", self, "classes", self.kind != "digits" or self.classes <= 10,
                 "be <= 10 for kind 'digits'")
        _require("dataset", self, "csv_path", self.kind != "csv" or bool(self.csv_path),
                 "be set for kind 'csv'")
        _require("dataset", self, "val_fraction", 0 < self.val_fraction < 1, "lie in (0, 1)")


@dataclass(frozen=True)
class SupernetSpec:
    beta: float = 0.5
    steps: int = 400
    batch_size: int = 16
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_drop_step: int | None = 300
    lr_drop_factor: float = 0.1

    def __post_init__(self) -> None:
        _check_at_least("supernet", self, 0, "steps", "weight_decay")
        _check_at_least("supernet", self, 1, "batch_size")
        _require("supernet", self, "learning_rate", self.learning_rate > 0, "be > 0")
        _require("supernet", self, "momentum", 0 <= self.momentum < 1, "lie in [0, 1)")
        _require("supernet", self, "beta", 0 <= self.beta <= 1, "lie in [0, 1]")
        _require("supernet", self, "lr_drop_step",
                 self.lr_drop_step is None or self.lr_drop_step >= 0, "be >= 0 or null")
        _require("supernet", self, "lr_drop_factor", self.lr_drop_factor > 0, "be > 0")


@dataclass(frozen=True)
class SearchSpec:
    iterations: int = 300

    def __post_init__(self) -> None:
        _check_at_least("search", self, 1, "iterations")


@dataclass(frozen=True)
class StudySpec:
    ratios: tuple = (0.25, 0.5, 0.75)
    samples_per_ratio: int = 20

    def __post_init__(self) -> None:
        _require("study", self, "ratios", len(self.ratios) > 0, "not be empty")
        if not all(isinstance(r, (int, float)) and not isinstance(r, bool) and 0 <= r <= 1
                   for r in self.ratios):
            raise ValueError(f"study ratios must be numbers in [0, 1], got {list(self.ratios)}")
        _check_at_least("study", self, 1, "samples_per_ratio")


@dataclass(frozen=True)
class TheorySpec:
    d: int = 8
    epsilon: float = 0.5
    delta: float = 0.1
    trials: int = 2000
    probes: int = 100
    dof_convention: str = "corrected"  # "literal" | "corrected" | "both"

    def __post_init__(self) -> None:
        if self.dof_convention not in ("literal", "corrected", "both"):
            raise ValueError("config field 'theory.dof_convention' must be 'literal', "
                             f"'corrected' or 'both', got {self.dof_convention!r}")
        _check_at_least("theory", self, 1, "probes")
        _check_at_least("theory", self, 2, "d")
        _check_at_least("theory", self, 100, "trials")
        _require("theory", self, "epsilon", self.epsilon > 0, "be > 0")
        _require("theory", self, "delta", 0 < self.delta < 1, "lie in (0, 1)")
        try:
            width = max(thm1_width_bound(self.d, self.epsilon, self.delta, conv)
                        for conv in self.conventions)
        except ValueError:  # a tail probability of 1: no finite width
            width = math.inf
        draws = self.trials * self.d * width
        if draws > MAX_THM1_DRAWS:
            raise ValueError(f"config section 'theory' needs {draws:.2g} normal draws in "
                             f"verify-thm1 (trials x d x width bound), more than "
                             f"{MAX_THM1_DRAWS:.0e}; raise theory.epsilon or lower theory.trials")

    @property
    def conventions(self) -> list[str]:
        """The chi-square conventions `verify-thm1` runs, in order."""
        return ["literal", "corrected"] if self.dof_convention == "both" \
            else [self.dof_convention]


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    output_dir: str = "runs/default"
    backbone: BackboneConfig = field(default_factory=lambda: BackboneConfig(
        stages=((3, 8), (3, 16), (2, 32)), input_shape=(1, 8, 8), classes=4))
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    supernet: SupernetSpec = field(default_factory=SupernetSpec)
    rewards: RewardConfig = field(default_factory=RewardConfig)
    search: SearchSpec = field(default_factory=SearchSpec)
    study: StudySpec = field(default_factory=StudySpec)
    theory: TheorySpec = field(default_factory=TheorySpec)

    def __post_init__(self) -> None:
        _require("", self, "seed", self.seed >= 0, "be >= 0")
        shape = tuple(self.backbone.input_shape)
        # a blob centre is drawn from [1, side - 1]; glyphs are fixed 8x8 stencils
        _require("backbone", self.backbone, "input_shape",
                 self.dataset.kind != "blobs" or min(shape[1:]) >= 2,
                 "have H, W >= 2 for dataset.kind 'blobs'")
        _require("backbone", self.backbone, "input_shape",
                 self.dataset.kind != "digits" or shape == (1, 8, 8),
                 "be (1, 8, 8) for dataset.kind 'digits'")
        # generated datasets label 0..classes-1, and every label needs a logit
        if self.dataset.kind != "csv" and self.dataset.classes > self.backbone.classes:
            raise ValueError(f"dataset has {self.dataset.classes} classes but the backbone "
                             f"only {self.backbone.classes}")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        cfg = _from_dict(cls, raw, "")
        env_seed = os.environ.get(ENV_SEED)
        if env_seed is not None:
            try:
                seed = int(env_seed)
            except ValueError:
                raise ValueError(f"{ENV_SEED} must be an integer, got {env_seed!r}") from None
            cfg = dataclasses.replace(cfg, seed=seed)
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        def refuse(token):  # json.load takes these, but they are not JSON
            raise ValueError(f"{path}: {token} is not a JSON value")

        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh, parse_constant=refuse))

    # -- identity -----------------------------------------------------------

    def digest(self) -> str:
        payload = dataclasses.asdict(self)
        payload.pop("output_dir")  # relocating outputs keeps the identity
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    # -- builders -----------------------------------------------------------

    def rng(self, stream: str):
        return named_rng(self.seed, stream)

    def build_dataset(self) -> tuple[Dataset, Dataset]:
        spec = self.dataset
        rng = self.rng("dataset")
        if spec.kind == "blobs":
            full = make_blob_dataset(spec.classes, spec.per_class, self.backbone.input_shape,
                                     spec.noise, rng, spec.blobs_per_class)
        elif spec.kind == "digits":
            full = make_digits_dataset(spec.classes, spec.per_class, spec.noise, rng)
        else:  # csv
            full = load_csv(spec.csv_path, self.backbone.input_shape)
            # every label needs a logit; a negative one would index from the end
            bad = full.labels[(full.labels < 0) | (full.labels >= self.backbone.classes)]
            if bad.size:
                raise ValueError(f"{spec.csv_path}: label {bad[0]} is not a class of the "
                                 f"backbone's {self.backbone.classes}")
        return split_train_val(full, spec.val_fraction, rng)

    def build_supernet(self) -> SupernetState:
        return SupernetState(self.backbone, self.seed)

    def supernet_optimizer(self) -> OptimizerConfig:
        s = self.supernet
        return OptimizerConfig(s.learning_rate, s.momentum, s.weight_decay)

    def build_controller(self) -> ControllerState:
        return ControllerState(self.backbone.total_blocks, rng=self.rng("controller-init"))

    def build_rnd_pair(self) -> RNDPair | None:
        if self.rewards.lambda_rnd <= 0:
            return None
        return RNDPair(self.backbone.total_blocks, self.rng("rnd-init"))

    def build_landscape(self) -> SyntheticLandscape:
        return SyntheticLandscape(self.backbone.total_blocks, self.seed)


def _from_dict(cls, raw: dict, section: str):
    """Build dataclass `cls` from a JSON object: no unknown keys, every
    required key, each value of its field's JSON type. A field annotated with
    a dataclass is read the same way, as section `section.field`."""
    where = f"config section {section!r}" if section else "config"
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be an object, got {raw!r}")
    prefix = f"{section}." if section else ""
    fields = dataclasses.fields(cls)
    unknown = set(raw) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(prefix + k for k in unknown)}")
    missing = [f.name for f in fields if f.name not in raw
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{where} is missing {missing}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for k, v in raw.items():
        if dataclasses.is_dataclass(hints[k]):
            kwargs[k] = _from_dict(hints[k], v, prefix + k)
        else:
            _check_type(prefix + k, v, hints[k])
            kwargs[k] = _tuplify(v)
    return cls(**kwargs)


def _require(section: str, spec, name: str, ok: bool, rule: str) -> None:
    """`section` is "" for a top-level field."""
    if not ok:  # a NaN fails every comparison, so `ok` is False for it too
        where = f"{section}.{name}" if section else name
        raise ValueError(f"config field '{where}' must {rule}, got {getattr(spec, name)!r}")


def _check_at_least(section: str, spec, minimum: int, *names: str) -> None:
    for name in names:
        _require(section, spec, name, getattr(spec, name) >= minimum, f"be >= {minimum}")


# JSON value types each field annotation accepts; a JSON integer is a valid float
_JSON_TYPES = {int: int, float: (int, float), bool: bool, str: str,
               tuple: (list, tuple), type(None): type(None)}


def _check_type(name: str, value, hint) -> None:
    kinds = typing.get_args(hint) or (hint,)
    ok = any(isinstance(value, _JSON_TYPES[k]) for k in kinds)
    if not ok or (isinstance(value, bool) and bool not in kinds):
        allowed = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
        raise ValueError(f"config field {name!r} must be {allowed}, got {value!r}")


def _tuplify(obj):
    if isinstance(obj, list):
        return tuple(_tuplify(v) for v in obj)
    return obj
