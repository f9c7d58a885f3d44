"""Plug-in self-attention modules.

Two mask generators are provided: a channel-squeeze module (global average
pool -> two dense layers -> sigmoid, one mask value per channel, returned as
an [N,C,1,1] mask that broadcasts over space) and a group-wise spatial
module (per-group saliency, normalized and squashed to a full [N,C,H,W]
per-pixel mask). Each module object owns its parameters and has an explicit
backward pass that takes the gradient with respect to the mask at the
feature map's full [N,C,H,W] shape; one module object may serve several
blocks (per-stage sharing). `se_attention` and `sge_attention` apply a
module to one [C,H,W] sample.
"""

from __future__ import annotations

import numpy as np

from .nncore import (Dense, GlobalAvgPool, Parameter, ReLU, Sequential, Tensor,
                     sigmoid, tensor)


class _AttentionModule:
    """Parameter access shared by the modules, built from named_parameters().

    Forward caches form a stack so one module instance may serve several
    blocks (stage sharing); backward pops in reverse block order.
    """

    channels: int

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())


def _apply_single(x: Tensor, module: _AttentionModule) -> Tensor:
    """The module's mask for one [C,H,W] sample, batch axis dropped."""
    x = tensor(x)
    if x.ndim != 3 or x.shape[0] != module.channels:
        raise ValueError(f"input {x.shape} does not match module channels {module.channels}")
    return module.forward(x[None])[0]


# ---------------------------------------------------------------------------
# channel-squeeze attention
# ---------------------------------------------------------------------------

class SEModule(_AttentionModule):
    """Batched channel-squeeze attention, C -> C//r -> C with biases: nncore's
    pool, dense and ReLU layers, then a sigmoid."""

    def __init__(self, channels: int, reduction: int, rng: np.random.Generator) -> None:
        hidden = channels // reduction
        if hidden < 1:
            raise ValueError(f"reduction {reduction} too large for {channels} channels")
        self.channels = channels
        self.net = Sequential(GlobalAvgPool(), Dense(channels, hidden, rng), ReLU(),
                              Dense(hidden, channels, rng))
        _, first, _, second = self.net.layers
        self.w1, self.b1 = first.weight, first.bias
        self.w2, self.b2 = second.weight, second.bias
        self._masks = []

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]

    def forward(self, feat, train: bool = False):
        mask = sigmoid(self.net.forward(feat, train))
        if train:
            self._masks.append(mask)
        return mask[:, :, None, None]

    def backward(self, dmask):
        mask = self._masks.pop()
        return self.net.backward(dmask.sum(axis=(2, 3)) * mask * (1.0 - mask))


def se_attention(x: Tensor, module: SEModule) -> Tensor:
    """Per-channel mask in (0,1)^C for one [C,H,W] feature map."""
    return _apply_single(x, module)[:, 0, 0]


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


class SGEModule(_AttentionModule):
    """Batched group-wise spatial attention with a per-group scale/shift.

    Per group: pool the group's channels, take the pooled vector's dot
    product with each pixel column, normalize the resulting saliency over
    space, scale/shift, and squash. The pixel mask is replicated across the
    group's channels.
    """

    epsilon = 1e-5

    def __init__(self, channels: int, groups: int) -> None:
        self.slices = channel_groups(channels, groups)
        self.channels = channels
        self.groups = groups
        self.gamma = Parameter(np.ones(len(self.slices)))
        self.beta = Parameter(np.zeros(len(self.slices)))
        self._cache = []

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        return [("gamma", self.gamma), ("beta", self.beta)]

    def forward(self, feat, train: bool = False):
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
            norm = centered / (sigma + self.epsilon)
            gmask = sigmoid(self.gamma.value[gi] * norm + self.beta.value[gi])
            mask[:, sl] = gmask[:, None]
            if train:
                cache.append((y, gvec, centered, sigma, norm, gmask))
        if train:
            self._cache.append((feat.shape, cache))
        return mask

    def backward(self, dmask):
        shape, cache = self._cache.pop()
        dfeat = np.zeros(shape)
        hw = shape[2] * shape[3]
        for gi, sl in enumerate(self.slices):
            y, gvec, centered, sigma, norm, gmask = cache[gi]
            dgm = dmask[:, sl].sum(axis=1)
            dz = dgm * gmask * (1.0 - gmask)
            self.gamma.grad[gi] += float((dz * norm).sum())
            self.beta.grad[gi] += float(dz.sum())
            dnorm = dz * self.gamma.value[gi]
            # backward through (sal - mu) / (sigma + eps); zero-variance groups
            # contribute nothing through the sigma path
            s = sigma + self.epsilon
            term1 = dnorm / s
            term2 = dnorm.mean(axis=(1, 2), keepdims=True) / s
            inner = (dnorm * centered).mean(axis=(1, 2), keepdims=True)
            sig_path = np.where(sigma > 0, inner / (np.where(sigma > 0, sigma, 1.0) * s ** 2), 0.0)
            dsal = term1 - term2 - centered * sig_path
            dgvec = np.einsum("nhw,nchw->nc", dsal, y, optimize=True)
            dfeat[:, sl] += dsal[:, None] * gvec[:, :, None, None]
            dfeat[:, sl] += dgvec[:, :, None, None] / hw
        return dfeat


def sge_attention(x: Tensor, module: SGEModule) -> Tensor:
    """Per-pixel mask [C,H,W] (constant across each channel group)."""
    return _apply_single(x, module)


# ---------------------------------------------------------------------------
# recalibration
# ---------------------------------------------------------------------------

def recalibrate(x_in: Tensor, residual: Tensor, mask: Tensor, connected: int) -> Tensor:
    """x_in + mask * residual when connected, else plain x_in + residual.

    Module masks broadcast against the residual as they are; a single-sample
    [C] channel mask is the one shape widened here.
    """
    x_in, residual = np.asarray(x_in), np.asarray(residual)
    if not connected:
        return x_in + residual
    mask = np.asarray(mask)
    if mask.ndim == 1 and residual.ndim == 3:
        mask = mask[:, None, None]
    return x_in + mask * residual
