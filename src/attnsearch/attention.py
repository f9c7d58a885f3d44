"""Plug-in self-attention modules.

Two mask generators are provided: a channel-squeeze module (global average
pool -> two dense layers -> sigmoid, one mask value per channel) and a
group-wise spatial module (per-group saliency, normalized and squashed to a
per-pixel mask). Both come as single-sample functional ops plus batched
module objects with explicit backward passes; one module object may serve
several blocks (per-stage sharing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nncore import Parameter, Tensor, sigmoid, tensor


# ---------------------------------------------------------------------------
# channel-squeeze attention
# ---------------------------------------------------------------------------

@dataclass
class SEParams:
    """Parameters for the channel-squeeze module: C -> C//r -> C with biases."""

    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter
    reduction: int

    @classmethod
    def init(cls, channels: int, reduction: int, rng: np.random.Generator) -> "SEParams":
        hidden = channels // reduction
        if hidden < 1:
            raise ValueError(f"reduction {reduction} too large for {channels} channels")
        w1 = rng.standard_normal((hidden, channels)) * np.sqrt(2.0 / channels)
        w2 = rng.standard_normal((channels, hidden)) * np.sqrt(2.0 / hidden)
        return cls(Parameter(w1), Parameter(np.zeros(hidden)),
                   Parameter(w2), Parameter(np.zeros(channels)), reduction)

    @property
    def channels(self) -> int:
        return self.w1.value.shape[1]

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())


def se_param_count(channels: int, reduction: int) -> int:
    """Closed-form count: 2*C*(C//r) + C//r + C (biases included)."""
    hidden = channels // reduction
    return 2 * channels * hidden + hidden + channels


def se_attention(x: Tensor, p: SEParams) -> Tensor:
    """Per-channel mask in (0,1)^C for one [C,H,W] feature map."""
    x = tensor(x)
    if x.ndim != 3 or x.shape[0] != p.channels:
        raise ValueError(f"input {x.shape} does not match module channels {p.channels}")
    pooled = x.mean(axis=(1, 2))
    hidden = np.maximum(p.w1.value @ pooled + p.b1.value, 0.0)
    return sigmoid(p.w2.value @ hidden + p.b2.value)


class SEModule:
    """Batched channel-squeeze attention with explicit backward.

    Forward caches form a stack so one module instance may serve several
    blocks (stage sharing); backward pops in reverse block order.
    """

    def __init__(self, params: SEParams) -> None:
        self.params = params
        self._cache = []

    def forward(self, feat, train: bool = False):
        p = self.params
        pooled = feat.mean(axis=(2, 3))
        z1 = pooled @ p.w1.value.T + p.b1.value
        hidden = np.maximum(z1, 0.0)
        mask = sigmoid(hidden @ p.w2.value.T + p.b2.value)
        if train:
            self._cache.append((feat.shape, pooled, z1, hidden, mask))
        return mask

    def backward(self, dmask):
        p = self.params
        shape, pooled, z1, hidden, mask = self._cache.pop()
        dz2 = dmask * mask * (1.0 - mask)
        p.w2.grad += dz2.T @ hidden
        p.b2.grad += dz2.sum(axis=0)
        dh = dz2 @ p.w2.value
        dz1 = dh * (z1 > 0)
        p.w1.grad += dz1.T @ pooled
        p.b1.grad += dz1.sum(axis=0)
        dpooled = dz1 @ p.w1.value
        h, w = shape[2], shape[3]
        return np.broadcast_to(dpooled[:, :, None, None], shape).copy() / (h * w)

    def parameters(self):
        return self.params.parameters()

    def param_count(self) -> int:
        return self.params.param_count()


# ---------------------------------------------------------------------------
# group-wise spatial attention
# ---------------------------------------------------------------------------

def channel_groups(channels: int, groups: int) -> list[slice]:
    """Consecutive channel slices of size ceil(C/G); a smaller trailing group
    absorbs any remainder, so fewer than G groups may result."""
    if groups < 1 or groups > channels:
        raise ValueError(f"groups {groups} must lie in [1, channels={channels}]")
    size = -(-channels // groups)
    return [slice(i, min(i + size, channels)) for i in range(0, channels, size)]


@dataclass
class SGEParams:
    """Per-group scale/shift for the group-wise spatial module."""

    gamma: Parameter
    beta: Parameter
    groups: int
    epsilon: float = 1e-5

    @classmethod
    def init(cls, channels: int, groups: int, epsilon: float = 1e-5) -> "SGEParams":
        n = len(channel_groups(channels, groups))
        return cls(Parameter(np.ones(n)), Parameter(np.zeros(n)), groups, epsilon)

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def param_count(self) -> int:
        return self.gamma.size + self.beta.size


def sge_param_count(channels: int, groups: int) -> int:
    return 2 * len(channel_groups(channels, groups))


def sge_attention(x: Tensor, p: SGEParams) -> Tensor:
    """Per-pixel mask [C,H,W] (constant across each channel group)."""
    x = tensor(x)
    if x.ndim != 3:
        raise ValueError(f"expected a [C,H,W] input, got {x.shape}")
    return SGEModule(x.shape[0], p).forward(x[None])[0]


class SGEModule:
    """Batched group-wise spatial attention with explicit backward.

    Per group: pool the group's channels, take the pooled vector's dot
    product with each pixel column, normalize the resulting saliency over
    space, scale/shift, and squash. The pixel mask is replicated across the
    group's channels.
    """

    def __init__(self, channels: int, params: SGEParams) -> None:
        self.params = params
        self.slices = channel_groups(channels, params.groups)
        self._cache = []

    def forward(self, feat, train: bool = False):
        p = self.params
        n, c, h, w = feat.shape
        mask = np.empty_like(feat)
        cache = []
        for gi, sl in enumerate(self.slices):
            y = feat[:, sl]
            gvec = y.mean(axis=(2, 3))
            sal = np.einsum("nc,nchw->nhw", gvec, y, optimize=True)
            mu = sal.mean(axis=(1, 2), keepdims=True)
            centered = sal - mu
            sigma = np.sqrt((centered ** 2).mean(axis=(1, 2), keepdims=True))
            norm = centered / (sigma + p.epsilon)
            gmask = sigmoid(p.gamma.value[gi] * norm + p.beta.value[gi])
            mask[:, sl] = gmask[:, None]
            if train:
                cache.append((y, gvec, centered, sigma, norm, gmask))
        if train:
            self._cache.append((feat.shape, cache))
        return mask

    def backward(self, dmask):
        p = self.params
        shape, cache = self._cache.pop()
        dfeat = np.zeros(shape)
        hw = shape[2] * shape[3]
        for gi, sl in enumerate(self.slices):
            y, gvec, centered, sigma, norm, gmask = cache[gi]
            dgm = dmask[:, sl].sum(axis=1)
            dz = dgm * gmask * (1.0 - gmask)
            p.gamma.grad[gi] += float((dz * norm).sum())
            p.beta.grad[gi] += float(dz.sum())
            dnorm = dz * p.gamma.value[gi]
            # backward through (sal - mu) / (sigma + eps); zero-variance groups
            # contribute nothing through the sigma path
            s = sigma + p.epsilon
            term1 = dnorm / s
            term2 = dnorm.mean(axis=(1, 2), keepdims=True) / s
            inner = (dnorm * centered).mean(axis=(1, 2), keepdims=True)
            sig_path = np.where(sigma > 0, inner / (np.where(sigma > 0, sigma, 1.0) * s ** 2), 0.0)
            dsal = term1 - term2 - centered * sig_path
            dgvec = np.einsum("nhw,nchw->nc", dsal, y, optimize=True)
            dfeat[:, sl] += dsal[:, None] * gvec[:, :, None, None]
            dfeat[:, sl] += dgvec[:, :, None, None] / hw
        return dfeat

    def parameters(self):
        return self.params.parameters()

    def param_count(self) -> int:
        return self.params.param_count()


# ---------------------------------------------------------------------------
# recalibration
# ---------------------------------------------------------------------------

def recalibrate(x_in: Tensor, residual: Tensor, mask: Tensor, connected: int) -> Tensor:
    """x_in + mask * residual when connected, else plain x_in + residual."""
    x_in, residual = np.asarray(x_in), np.asarray(residual)
    if not connected:
        return x_in + residual
    mask = np.asarray(mask)
    if mask.ndim == 1 and residual.ndim == 3:
        mask = mask[:, None, None]
    elif mask.ndim == 2 and residual.ndim == 4:
        mask = mask[:, :, None, None]
    return x_in + mask * residual

