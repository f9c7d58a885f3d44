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

from .attention import (SEModule, SGEModule, channel_groups, recalibrate,
                        se_param_count, sge_param_count)
from .data import Dataset
from .nncore import (Conv2d, Dense, GlobalAvgPool, OptimizerConfig, ReLU,
                     Sequential, sgd_momentum_step, softmax_cross_entropy_batch)
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
                    and all(isinstance(v, Integral) and not isinstance(v, bool) and v >= 1
                            for v in stage)
                    for stage in self.stages)
        if not self.stages or not pairs:
            raise ValueError("every stage needs a (blocks, channels) pair of positive "
                             f"integers, got {self.stages!r}")
        if self.sam not in ("se", "sge"):
            raise ValueError(f"unknown attention kind {self.sam!r}")
        if self.sharing not in ("per-block", "per-stage"):
            raise ValueError(f"unknown sharing mode {self.sharing!r}")
        if self.classes < 2:
            raise ValueError("need at least two classes")

    @property
    def total_blocks(self) -> int:
        return sum(int(b) for b, _ in self.stages)

    @property
    def stage_channels(self) -> tuple:
        return tuple(int(c) for _, c in self.stages)

    def stage_spatial(self) -> list:
        """Spatial size per stage: the stem preserves it, each stride-2
        transition between stages halves it (ceil)."""
        _, h, w = self.input_shape
        sizes = [(h, w)]
        for _ in range(len(self.stages) - 1):
            h = (h - 1) // 2 + 1
            w = (w - 1) // 2 + 1
            sizes.append((h, w))
        return sizes

    def sam_param_count(self, channels: int) -> int:
        if self.sam == "se":
            return se_param_count(channels, self.reduction)
        return sge_param_count(channels, self.groups)


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
        self.seed = seed
        init_rng = named_rng(seed, "supernet-init")
        self.mask_rng = named_rng(seed, "supernet-mask")
        self.data_rng = named_rng(seed, "supernet-data")
        c_in = config.input_shape[0]
        channels = config.stage_channels
        self.stem = Sequential(Conv2d(c_in, channels[0], 3, 1, 1, init_rng), ReLU())
        # every layer in forward order; backward walks it reversed
        self.layers = [self.stem]
        self.transitions = []
        self.blocks = []
        block_stage = []
        for si, (nblocks, ch) in enumerate(config.stages):
            if si > 0:
                self.transitions.append(
                    Sequential(Conv2d(channels[si - 1], ch, 3, 2, 1, init_rng), ReLU()))
                self.layers.append(self.transitions[-1])
            for _ in range(int(nblocks)):
                self.blocks.append(ResidualBlock(ch, init_rng))
                self.layers.append(self.blocks[-1])
                block_stage.append(si)
        if config.sharing == "per-stage":
            stage_sams = [self._make_sam(ch, init_rng) for ch in channels]
            for block, si in zip(self.blocks, block_stage):
                block.sam = stage_sams[si]
        else:
            for block, si in zip(self.blocks, block_stage):
                block.sam = self._make_sam(channels[si], init_rng)
        self.fc = Dense(channels[-1], config.classes, init_rng)
        self.layers += [GlobalAvgPool(), self.fc]
        self.step_count = 0
        self.pretrained = False

    def _make_sam(self, channels: int, rng: np.random.Generator):
        if self.config.sam == "se":
            return SEModule(channels, self.config.reduction, rng)
        return SGEModule(channels, self.config.groups)

    # -- forward / backward ------------------------------------------------

    @property
    def total_blocks(self) -> int:
        return len(self.blocks)

    def _check_scheme(self, scheme: ConnectionScheme) -> None:
        if len(scheme) != self.total_blocks:
            raise ValueError(
                f"scheme length {len(scheme)} does not match {self.total_blocks} blocks")

    def forward(self, x, scheme: ConnectionScheme, train: bool = False):
        self._check_scheme(scheme)
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
        # blowing up training
        loss = self.loss_and_grads(x, y, scheme)
        active = self.active_parameters(scheme)
        if clip_norm is not None:
            total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in active))
            if total > clip_norm:
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
        yield "stem", "", "conv", self.stem.layers[0]
        for ti, t in enumerate(self.transitions):
            yield "transition", ti, "conv", t.layers[0]
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
    m = net.total_blocks
    _train_loop(net, train_set,
                lambda: sample_bernoulli_scheme(beta, m, net.mask_rng),
                steps, batch_size, opt, lr_drop_step, lr_drop_factor)
    if steps > 0:
        net.pretrained = True
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


def _blocks(config: BackboneConfig):
    """(block index, stage index, channels, (H, W)) for every residual block."""
    spatial = config.stage_spatial()
    bi = 0
    for si, (nblocks, ch) in enumerate(config.stages):
        for _ in range(int(nblocks)):
            yield bi, si, ch, spatial[si]
            bi += 1


def _convs(config: BackboneConfig):
    """(c_in, c_out, output pixels) for every 3x3 conv, in forward order."""
    c_prev = config.input_shape[0]
    for (nblocks, ch), (h, w) in zip(config.stages, config.stage_spatial()):
        yield c_prev, ch, h * w  # stem, then each stage's stride-2 transition
        for _ in range(2 * int(nblocks)):
            yield ch, ch, h * w
        c_prev = ch


def count_params(config: BackboneConfig, scheme: ConnectionScheme) -> tuple[int, int]:
    """(backbone parameter count, extra attention parameters under `scheme`)."""
    backbone = sum(c_out * c_in * 9 + c_out for c_in, c_out, _ in _convs(config))
    backbone += config.classes * config.stage_channels[-1] + config.classes
    # one attention module per connected block, or per stage with a connected block
    shared = config.sharing == "per-stage"
    owners = {si if shared else bi: ch
              for bi, si, ch, _ in _blocks(config) if scheme.bits[bi]}
    return backbone, sum(config.sam_param_count(ch) for ch in owners.values())


def base_flops(config: BackboneConfig) -> int:
    """Backbone multiply count (conv/dense MACs; pooling additions excluded)."""
    convs = sum(pixels * c_out * c_in * 9 for c_in, c_out, pixels in _convs(config))
    return convs + config.classes * config.stage_channels[-1]


def extra_flops(config: BackboneConfig, scheme: ConnectionScheme) -> int:
    """Extra ops for connected attention modules.

    Channel-squeeze: 2*C*(C//r) + C//r + C MACs plus C*H*W recalibration
    multiplies per connected block. Group-wise: saliency dots C*H*W, scale
    ops 2*H*W per group, recalibration C*H*W.
    """
    total = 0
    for bi, _, ch, (sh, sw) in _blocks(config):
        if not scheme.bits[bi]:
            continue
        if config.sam == "se":
            hidden = ch // config.reduction
            total += 2 * ch * hidden + hidden + ch + ch * sh * sw
        else:
            ngroups = len(channel_groups(ch, config.groups))
            total += ch * sh * sw + 2 * sh * sw * ngroups + ch * sh * sw
    return total


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
    zeros = ConnectionScheme.zeros(net.total_blocks)
    # scheme and base runs alternate, so machine drift hits both medians alike
    t_scheme, t_base = [], []
    for _ in range(repetitions):
        for s, times in ((scheme, t_scheme), (zeros, t_base)):
            t0 = time.perf_counter()
            net.forward(probe_batch, s, train=False)
            times.append(time.perf_counter() - t0)
    base = float(np.median(t_base))
    return 100.0 * (float(np.median(t_scheme)) - base) / base
