"""Config resolution, digests, and named RNG stream isolation."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from attnsearch.config import ExperimentConfig
from attnsearch.data import load_csv
from attnsearch.rngstreams import named_rng


def save_csv(path, data) -> None:
    """One row per sample: label first, then row-major pixels."""
    with open(path, "w", encoding="utf-8") as fh:
        for img, label in zip(data.images, data.labels):
            pixels = ",".join(f"{v:.12g}" for v in img.reshape(-1))
            fh.write(f"{int(label)},{pixels}\n")


def test_defaults_resolve():
    cfg = ExperimentConfig()
    assert cfg.backbone.total_blocks == 8
    assert cfg.rewards.lambda_val == 1.0


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"turbo": True})
    with pytest.raises(ValueError, match="backbone"):
        ExperimentConfig.from_dict({"backbone": {"stages": [[2, 4]], "blocks": 9,
                                                 "input_shape": [1, 6, 6],
                                                 "classes": 3}})


@pytest.mark.parametrize("raw", [5, [1], "seed"])
def test_non_object_config_refused(raw):
    with pytest.raises(ValueError, match=r"^config must be an object, got "):
        ExperimentConfig.from_dict(raw)
    with pytest.raises(ValueError, match=r"^config section 'theory' must be an object, got "):
        ExperimentConfig.from_dict({"theory": raw})


def test_default_digest_is_pinned():
    # every output header carries this; a change here is a declared output change
    assert ExperimentConfig().digest() == \
        "f57dc4c14e687cf811cb9ff1e23614875662826e12effaa018c0da52373901fc"


def test_digest_stable_and_sensitive(tmp_path):
    a = ExperimentConfig.from_dict({"seed": 1})
    b = ExperimentConfig.from_dict({"seed": 1})
    c = ExperimentConfig.from_dict({"seed": 2})
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def _shuffle_keys(obj, rnd):
    """The same config with its keys reordered at every nesting level."""
    if not isinstance(obj, dict):
        return obj
    keys = list(obj)
    rnd.shuffle(keys)
    return {k: _shuffle_keys(obj[k], rnd) for k in keys}


FULL = dataclasses.asdict(ExperimentConfig(seed=5))  # every key of every section


@given(st.randoms(use_true_random=False))
def test_digest_ignores_key_order(rnd):
    shuffled = _shuffle_keys(FULL, rnd)
    assert ExperimentConfig.from_dict(shuffled).digest() == \
        ExperimentConfig.from_dict(FULL).digest()


def test_output_dir_not_part_of_identity():
    a = ExperimentConfig.from_dict({"seed": 3, "output_dir": "runs/a"})
    b = ExperimentConfig.from_dict({"seed": 3, "output_dir": "runs/b"})
    assert a.digest() == b.digest()


def test_env_var_overrides_seed_only(monkeypatch):
    monkeypatch.setenv("ATTNSEARCH_SEED", "77")
    cfg = ExperimentConfig.from_dict({"seed": 1, "output_dir": "runs/x"})
    assert cfg.seed == 77
    assert cfg.output_dir == "runs/x"


def test_env_seed_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("ATTNSEARCH_SEED", "x")
    with pytest.raises(ValueError, match=r"^ATTNSEARCH_SEED must be an integer, got 'x'$"):
        ExperimentConfig.from_dict({})


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"seed": 9, "dataset": {"classes": 3, "per_class": 5}}))
    cfg = ExperimentConfig.from_file(path)
    assert cfg.seed == 9 and cfg.dataset.classes == 3


def test_dataset_builder_is_deterministic():
    cfg = ExperimentConfig.from_dict({"dataset": {"classes": 3, "per_class": 10},
                                      "backbone": {"stages": [[2, 4]],
                                                   "input_shape": [1, 8, 8],
                                                   "classes": 3}})
    t1, v1 = cfg.build_dataset()
    t2, v2 = cfg.build_dataset()
    np.testing.assert_array_equal(t1.images, t2.images)
    np.testing.assert_array_equal(v1.labels, v2.labels)


def test_dataset_shape_must_match_backbone():
    # the glyphs are 8x8 stencils: a digits dataset needs a (1, 8, 8) input
    with pytest.raises(ValueError, match=r"'backbone.input_shape' must be \(1, 8, 8\) for "
                                         r"dataset.kind 'digits', got \(1, 6, 6\)"):
        ExperimentConfig.from_dict({"dataset": {"kind": "digits"},
                                    "backbone": {"stages": [[2, 4]], "input_shape": [1, 6, 6],
                                                 "classes": 4}})


def test_digits_provide_at_most_10_classes():
    backbone = {"stages": [[2, 4]], "input_shape": [1, 8, 8], "classes": 11}
    ExperimentConfig.from_dict({"dataset": {"kind": "digits", "classes": 10},
                                "backbone": backbone})
    with pytest.raises(ValueError, match=r"^config field 'dataset.classes' must be <= 10 "
                                         r"for kind 'digits', got 11$"):
        ExperimentConfig.from_dict({"dataset": {"kind": "digits", "classes": 11},
                                    "backbone": backbone})


def test_thm1_draw_bound_covers_every_convention_run():
    # literal alone needs 3.9e9 draws; "both" also runs corrected, which needs 1.6e11
    theory = {"d": 4, "epsilon": 0.05, "delta": 0.2, "trials": 20000}
    ExperimentConfig.from_dict({"theory": dict(theory, dof_convention="literal")})
    with pytest.raises(ValueError, match=r"needs 1.6e\+11 normal draws .* more than 1e\+11; "
                                         r"raise theory.epsilon or lower theory.trials$"):
        ExperimentConfig.from_dict({"theory": dict(theory, dof_convention="both")})


def test_named_streams_are_independent():
    a1 = named_rng(5, "alpha").random(4)
    b1 = named_rng(5, "beta").random(4)
    a2 = named_rng(5, "alpha").random(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b1)


def test_csv_dataset_round_trip(tmp_path):
    cfg = ExperimentConfig.from_dict({"dataset": {"classes": 3, "per_class": 6}})
    train, _ = cfg.build_dataset()
    path = tmp_path / "data.csv"
    save_csv(path, train)
    again = load_csv(path, cfg.backbone.input_shape)
    np.testing.assert_allclose(again.images, train.images, atol=1e-9)
    np.testing.assert_array_equal(again.labels, train.labels)


def test_csv_config_kind(tmp_path):
    base = ExperimentConfig.from_dict({
        "dataset": {"classes": 4, "per_class": 6},
    })
    train, _ = base.build_dataset()
    path = tmp_path / "corpus.csv"
    save_csv(path, train)
    cfg = ExperimentConfig.from_dict({
        "dataset": {"kind": "csv", "csv_path": str(path), "classes": 4},
    })
    t, v = cfg.build_dataset()
    assert len(t) + len(v) == len(train)


def test_builders_wire_through():
    cfg = ExperimentConfig.from_dict({"rewards": {"lambda_rnd": 0.0}})
    assert cfg.build_rnd_pair() is None
    controller = cfg.build_controller()
    assert controller.m == cfg.backbone.total_blocks
    net = cfg.build_supernet()
    assert len(net.blocks) == 8
    land = cfg.build_landscape()
    from attnsearch.supernet import ConnectionScheme
    assert 0.0 < land(ConnectionScheme.zeros(8)) < 1.0
