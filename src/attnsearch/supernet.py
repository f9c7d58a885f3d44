"""Scheme-gated residual backbone with weight sharing.

A single set of backbone weights plus per-block (or per-stage shared)
attention parameters is trained once under random gating masks; any
connection scheme can then be evaluated as a subnetwork without retraining.
Also provides parameter/FLOP accounting and wall-clock timing increments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .attention import SEModule, SGEModule, channel_groups, recalibrate
from .data import Dataset
from .nncore import (Conv2d, Dense, GlobalAvgPool, OptimizerConfig, ReLU,
                     sgd_momentum_step, softmax_cross_entropy_batch)
from .rngstreams import named_rng


class ConnectionScheme:
    """Binary gate vector over the backbone's blocks.

    Serializes to/from a plain digit string ("0110..."); spaces in the input
    string are ignored so per-stage groupings parse too.
    """

    __slots__ = ("bits",)

    def __init__(self, bits) -> None:
        arr = np.asarray(bits, dtype=np.int64).copy()
        if arr.ndim != 1 or not np.isin(arr, (0, 1)).all():
            raise ValueError("scheme bits must form a flat 0/1 vector")
        arr.setflags(write=False)
        self.bits = arr

    @classmethod
    def from_string(cls, text: str) -> "ConnectionScheme":
        digits = text.replace(" ", "")
        if not digits or set(digits) - {"0", "1"}:
            raise ValueError(f"not a 0/1 digit string: {text!r}")
        return cls([int(ch) for ch in digits])

    @classmethod
    def zeros(cls, m: int) -> "ConnectionScheme":
        return cls(np.zeros(m, dtype=np.int64))

    @classmethod
    def ones(cls, m: int) -> "ConnectionScheme":
        return cls(np.ones(m, dtype=np.int64))

    def to_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    @property
    def ones_count(self) -> int:
        return int(self.bits.sum())

    @property
    def ratio(self) -> float:
        return self.ones_count / len(self)

    def __len__(self) -> int:
        return self.bits.size

    def __eq__(self, other) -> bool:
        return isinstance(other, ConnectionScheme) and np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash(self.bits.tobytes())

    def __repr__(self) -> str:
        return f"ConnectionScheme({self.to_string()!r})"


def _positive_ints(values) -> bool:
    return all(isinstance(v, Integral) and not isinstance(v, bool) and v >= 1 for v in values)


@dataclass(frozen=True)
class BackboneConfig:
    """Stage layout plus attention kind and sharing mode."""

    stages: tuple  # ((blocks, channels), ...)
    input_shape: tuple  # (C, H, W)
    classes: int
    sam: str = "se"  # "se" | "sge"
    sharing: str = "per-block"  # "per-block" | "per-stage"
    reduction: int = 4
    groups: int = 2

    def __post_init__(self) -> None:
        pairs = all(isinstance(stage, (tuple, list)) and len(stage) == 2
                    and _positive_ints(stage) for stage in self.stages)
        if not self.stages or not pairs:
            raise ValueError("every stage needs a (blocks, channels) pair of positive "
                             f"integers, got {self.stages!r}")
        if len(self.input_shape) != 3 or not _positive_ints(self.input_shape):
            raise ValueError("input_shape must be three positive integers (C, H, W), "
                             f"got {self.input_shape!r}")
        if self.sam not in ("se", "sge"):
            raise ValueError(f"unknown attention kind {self.sam!r}")
        if self.sharing not in ("per-block", "per-stage"):
            raise ValueError(f"unknown sharing mode {self.sharing!r}")
        if self.classes < 2:
            raise ValueError("need at least two classes")
        # every stage needs a hidden unit (se) or a channel per group (sge)
        name = "reduction" if self.sam == "se" else "groups"
        value = getattr(self, name)
        if not 1 <= value <= min(self.stage_channels):
            raise ValueError(f"{name} {value} must lie in [1, {min(self.stage_channels)}], "
                             "the narrowest stage's channels")

    @property
    def total_blocks(self) -> int:
        return sum(int(b) for b, _ in self.stages)

    @property
    def stage_channels(self) -> tuple:
        return tuple(int(c) for _, c in self.stages)

    def check_scheme(self, scheme: ConnectionScheme) -> None:
        if len(scheme) != self.total_blocks:
            raise ValueError(
                f"scheme length {len(scheme)} does not match {self.total_blocks} blocks")

    def make_sam(self, channels: int, rng: np.random.Generator):
        """A fresh attention module of this kind for a `channels`-wide stage."""
        if self.sam == "se":
            return SEModule(channels, self.reduction, rng)
        return SGEModule(channels, self.groups)

    def sam_cost(self, channels: int, pixels: int) -> tuple[int, int]:
        """(parameters, extra ops per run) of one attention module on a
        `channels` x `pixels` feature map.

        Channel-squeeze: 2*C*(C//r) + C//r + C parameters, as many MACs, plus
        C*H*W recalibration multiplies. Group-wise: a scale and a shift per
        group; saliency dots C*H*W, scale ops 2*H*W per group, recalibration
        C*H*W.
        """
        if self.sam == "se":
            hidden = channels // self.reduction
            params = 2 * channels * hidden + hidden + channels
            return params, params + channels * pixels
        ngroups = len(channel_groups(channels, self.groups))
        return 2 * ngroups, 2 * channels * pixels + 2 * pixels * ngroups


class ResidualBlock:
    """x + f(x) with f = conv(relu(conv(x))); optional gated attention mask."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        self.conv1 = Conv2d(channels, channels, 3, 1, 1, rng)
        self.relu = ReLU()
        self.conv2 = Conv2d(channels, channels, 3, 1, 1, rng)
        self.sam = None  # attached by the supernet (may be shared)
        self._cache = None

    def forward(self, x, connected: int, train: bool = False):
        f = self.conv2.forward(self.relu.forward(self.conv1.forward(x, train), train), train)
        mask = self.sam.forward(f, train) if connected else None
        if train:
            self._cache = (f, mask)
        return recalibrate(x, f, mask, connected)

    def backward(self, dout):
        f, mask = self._cache
        df = dout if mask is None else mask * dout + self.sam.backward(dout * f)
        dx = self.conv1.backward(self.relu.backward(self.conv2.backward(df)))
        return dout + dx


class SupernetState:
    """Backbone plus attention storage for every block, trained under masks."""

    def __init__(self, config: BackboneConfig, seed: int) -> None:
        self.config = config
        init_rng = named_rng(seed, "supernet-init")
        self.mask_rng = named_rng(seed, "supernet-mask")
        self.data_rng = named_rng(seed, "supernet-data")
        # every layer in forward order; backward walks it reversed. Each stage
        # opens with a conv: the stem keeps the input size, later ones stride 2
        self.layers = []
        for c_in, ch, nblocks, _, first in _stages(config):
            self.layers += [Conv2d(c_in, ch, 3, 2 if first else 1, 1, init_rng), ReLU(),
                            *(ResidualBlock(ch, init_rng) for _ in range(nblocks))]
        for _, ch, nblocks, _, first in _stages(config):
            shared = config.make_sam(ch, init_rng) if config.sharing == "per-stage" else None
            for block in self.blocks[first:first + nblocks]:
                block.sam = shared if shared is not None else config.make_sam(ch, init_rng)
        self.layers += [GlobalAvgPool(), Dense(config.stage_channels[-1], config.classes, init_rng)]
        self.step_count = 0

    @property
    def blocks(self) -> list:
        """The residual blocks, in scheme order."""
        return [layer for layer in self.layers if isinstance(layer, ResidualBlock)]

    @property
    def fc(self) -> Dense:
        return self.layers[-1]

    # -- forward / backward ------------------------------------------------

    def forward(self, x, scheme: ConnectionScheme, train: bool = False):
        self.config.check_scheme(scheme)
        bits = iter(scheme.bits)
        for layer in self.layers:
            if isinstance(layer, ResidualBlock):
                x = layer.forward(x, int(next(bits)), train)
            else:
                x = layer.forward(x, train)
        return x

    def backward(self, dlogits):
        grad = dlogits
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def loss_and_grads(self, x, y, scheme: ConnectionScheme) -> float:
        logits = self.forward(x, scheme, train=True)
        loss, dlogits = softmax_cross_entropy_batch(logits, y)
        self.backward(dlogits)
        return loss

    def train_step(self, x, y, scheme: ConnectionScheme, opt: OptimizerConfig,
                   clip_norm: float | None = 10.0) -> float:
        # bounded loss gradients still amplify through a deep no-norm residual
        # tower; the global-norm clip keeps rare confident-wrong batches from
        # blowing up training. A step that overflows anyway is refused, so
        # numpy's warnings are silenced rather than printed.
        with np.errstate(all="ignore"):
            loss = self.loss_and_grads(x, y, scheme)
            active = self.active_parameters(scheme)
            total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in active))
            if not (np.isfinite(loss) and np.isfinite(total)):
                raise ValueError(f"training diverged at step {self.step_count + 1}: loss "
                                 f"{loss:.4g}, global gradient norm {total:.4g}")
            if clip_norm is not None and total > clip_norm:
                scale = clip_norm / total
                for p in active:
                    p.grad *= scale
            sgd_momentum_step(active, opt)
        self.step_count += 1
        return loss

    # -- parameter access ----------------------------------------------------

    def _convs(self):
        """(owner, index, name, Conv2d) for the stem, transition and block
        convs, in checkpoint order; the stem's index is empty."""
        stem, *transitions = [layer for layer in self.layers if isinstance(layer, Conv2d)]
        yield "stem", "", "conv", stem
        for ti, conv in enumerate(transitions):
            yield "transition", ti, "conv", conv
        for bi, b in enumerate(self.blocks):
            yield "block", bi, "conv1", b.conv1
            yield "block", bi, "conv2", b.conv2

    def sam_modules(self, scheme: ConnectionScheme | None = None):
        """Distinct attention modules in block order, a shared one once; with
        a scheme, only those of its connected blocks."""
        seen, out = set(), []
        for b, block in enumerate(self.blocks):
            if (scheme is None or scheme.bits[b]) and id(block.sam) not in seen:
                seen.add(id(block.sam))
                out.append(block.sam)
        return out

    def active_parameters(self, scheme: ConnectionScheme):
        """What a step under `scheme` updates: convs, fc, connected attention."""
        out = [p for *_, conv in self._convs() for p in conv.parameters()]
        out += self.fc.parameters()
        for sam in self.sam_modules(scheme):
            out += sam.parameters()
        return out

    def named_parameters(self):
        """Stable (name, Parameter) pairs for checkpointing."""
        pairs = [(f"{owner}{i}.{name}.{kind}", p)
                 for owner, i, name, conv in self._convs()
                 for kind, p in (("kernel", conv.kernel), ("bias", conv.bias))]
        # per-stage sharing yields one module per stage, in stage order
        owner = "stage" if self.config.sharing == "per-stage" else "block"
        for i, sam in enumerate(self.sam_modules()):
            pairs += [(f"{owner}{i}.sam.{name}", p) for name, p in sam.named_parameters()]
        pairs += [("fc.weight", self.fc.weight), ("fc.bias", self.fc.bias)]
        return pairs


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def sample_bernoulli_scheme(beta: float, m: int, rng: np.random.Generator) -> ConnectionScheme:
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0,1]")
    return ConnectionScheme((rng.random(m) < beta).astype(np.int64))


def _train_loop(net: SupernetState, train_set: Dataset, next_scheme, steps: int,
                batch_size: int, opt: OptimizerConfig | None,
                lr_drop_step: int | None, lr_drop_factor: float) -> None:
    """`steps` SGD steps; each draws its scheme from `next_scheme()`, then its batch."""
    if len(train_set) == 0:
        raise ValueError("training set is empty")
    opt = opt or OptimizerConfig(0.1, 0.9, 1e-4)
    n = len(train_set)
    for step in range(int(steps)):
        scheme = next_scheme()
        idx = net.data_rng.integers(0, n, size=batch_size)
        lr = opt.learning_rate
        if lr_drop_step is not None and step >= lr_drop_step:
            lr = opt.learning_rate * lr_drop_factor
        net.train_step(train_set.images[idx], train_set.labels[idx], scheme,
                       OptimizerConfig(lr, opt.momentum, opt.weight_decay))


def pretrain_supernet(net: SupernetState, train_set: Dataset, beta: float, steps: int,
                      batch_size: int = 16,
                      opt: OptimizerConfig | None = None,
                      lr_drop_step: int | None = None,
                      lr_drop_factor: float = 0.1) -> SupernetState:
    """Masked pre-training: every step gates a fresh random scheme.

    Attention parameters of blocks disconnected in a step are untouched by
    that step (no gradient, no momentum drift, no decay).
    """
    m = net.config.total_blocks
    _train_loop(net, train_set,
                lambda: sample_bernoulli_scheme(beta, m, net.mask_rng),
                steps, batch_size, opt, lr_drop_step, lr_drop_factor)
    return net


def train_with_scheme(net: SupernetState, train_set: Dataset, scheme: ConnectionScheme,
                      steps: int, batch_size: int = 16,
                      opt: OptimizerConfig | None = None,
                      lr_drop_step: int | None = None,
                      lr_drop_factor: float = 0.1) -> SupernetState:
    """Train under one fixed scheme (standalone training of a subnetwork)."""
    _train_loop(net, train_set, lambda: scheme, steps, batch_size, opt,
                lr_drop_step, lr_drop_factor)
    return net


def evaluate_scheme(net: SupernetState, scheme: ConnectionScheme, val_set: Dataset) -> float:
    """Validation accuracy of the subnetwork gated by `scheme` (deterministic)."""
    if len(val_set) == 0:
        raise ValueError("validation set is empty")
    logits = net.forward(val_set.images, scheme, train=False)
    return float((logits.argmax(axis=1) == val_set.labels).mean())


def _stages(config: BackboneConfig):
    """(c_in, channels, blocks, output pixels, first block) per stage.

    `c_in` feeds the stage's entry conv: the stem, which keeps the input
    size, or a stride-2 transition, which halves it (ceil). `first` is the
    scheme index of the stage's first block.
    """
    c_in, h, w = config.input_shape
    first = 0
    for blocks, channels in config.stages:
        yield c_in, channels, blocks, h * w, first
        c_in, first = channels, first + blocks
        h, w = (h - 1) // 2 + 1, (w - 1) // 2 + 1


def _conv_inputs(c_in: int, channels: int, blocks: int) -> int:
    """Input channels summed over a stage's 3x3 convs, all `channels` wide:
    the entry conv, then two per block."""
    return c_in + 2 * blocks * channels


def count_params(config: BackboneConfig, scheme: ConnectionScheme) -> tuple[int, int]:
    """(backbone parameter count, extra attention parameters under `scheme`)."""
    config.check_scheme(scheme)
    backbone = config.classes * config.stage_channels[-1] + config.classes
    extra = 0
    for c_in, ch, nblocks, pixels, first in _stages(config):
        backbone += 9 * ch * _conv_inputs(c_in, ch, nblocks) + (1 + 2 * nblocks) * ch
        # one attention module per connected block, or per stage with a connected block
        modules = int(scheme.bits[first:first + nblocks].sum())
        if config.sharing == "per-stage":
            modules = min(modules, 1)
        extra += modules * config.sam_cost(ch, pixels)[0]
    return backbone, extra


def base_flops(config: BackboneConfig) -> int:
    """Backbone multiply count (conv/dense MACs; pooling additions excluded)."""
    convs = sum(9 * ch * _conv_inputs(c_in, ch, nblocks) * pixels
                for c_in, ch, nblocks, pixels, _ in _stages(config))
    return convs + config.classes * config.stage_channels[-1]


def extra_flops(config: BackboneConfig, scheme: ConnectionScheme) -> int:
    """Extra ops of the attention modules of connected blocks; a shared
    module runs once for each connected block it serves."""
    config.check_scheme(scheme)
    return sum(int(scheme.bits[first:first + nblocks].sum()) * config.sam_cost(ch, pixels)[1]
               for _, ch, nblocks, pixels, first in _stages(config))


def flop_increment_pct(config: BackboneConfig, scheme: ConnectionScheme) -> float:
    return 100.0 * extra_flops(config, scheme) / base_flops(config)


def inference_time_increment(net: SupernetState, scheme: ConnectionScheme,
                             probe_batch, repetitions: int) -> float:
    """Wall-clock increment vs the gate-free backbone, medians over runs.

    Environment-dependent; the analytic FLOP increment is the
    contract-bearing number.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if scheme.ones_count == 0:
        return 0.0
    zeros = ConnectionScheme.zeros(net.config.total_blocks)
    # scheme and base runs alternate, so machine drift hits both medians alike
    t_scheme, t_base = [], []
    for _ in range(repetitions):
        for s, times in ((scheme, t_scheme), (zeros, t_base)):
            t0 = time.perf_counter()
            net.forward(probe_batch, s, train=False)
            times.append(time.perf_counter() - t0)
    base = float(np.median(t_base))
    return 100.0 * (float(np.median(t_scheme)) - base) / base
