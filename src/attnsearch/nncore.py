"""Dense-tensor compute core.

Float64 layers with explicit forward/backward passes, a softmax
cross-entropy loss, momentum SGD, and a central finite-difference
gradient checker. Everything runs on plain numpy arrays; batched
variants carry an extra leading sample axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Tensor = np.ndarray


def tensor(data) -> Tensor:
    """Make a float64 C-order array, rejecting non-finite entries."""
    arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor entries must be finite (no NaN/Inf)")
    return arr


class Parameter:
    """Trainable value with its gradient and momentum buffer (all shape-equal)."""

    __slots__ = ("value", "grad", "momentum")

    def __init__(self, value) -> None:
        self.value = tensor(value)
        self.grad = np.zeros_like(self.value)
        self.momentum = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    @property
    def size(self) -> int:
        return self.value.size


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")


def sgd_momentum_step(params, config: OptimizerConfig) -> None:
    """buf <- momentum*buf + (grad + wd*value); value <- value - lr*buf; grads zeroed."""
    for p in params:
        p.momentum *= config.momentum
        p.momentum += p.grad
        if config.weight_decay:
            p.momentum += config.weight_decay * p.value
        p.value -= config.learning_rate * p.momentum
        p.zero_grad()


# ---------------------------------------------------------------------------
# functional ops, single sample (the documented contract surface)
# ---------------------------------------------------------------------------

def conv2d(input: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlate a [C_in,H,W] input with a [C_out,C_in,k,k] kernel."""
    x = tensor(input)
    k = tensor(kernel)
    if x.ndim != 3 or k.ndim != 4:
        raise ValueError(f"expected 3-d input and 4-d kernel, got {x.shape} and {k.shape}")
    if k.shape[2] != k.shape[3] or k.shape[2] % 2 == 0:
        raise ValueError(f"kernel must be square with odd side, got {k.shape}")
    if stride < 1 or pad < 0:
        raise ValueError("stride must be >= 1 and pad >= 0")
    if x.shape[0] != k.shape[1]:
        raise ValueError(
            f"input channels {x.shape} do not match kernel channels {k.shape}"
        )
    y, _ = _conv_forward(x[None], k, None, stride, pad)
    return y[0]


def dense(input: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """bias + weight @ input for a flat input vector."""
    x, w, b = tensor(input), tensor(weight), tensor(bias)
    if x.ndim != 1 or w.ndim != 2 or w.shape[1] != x.shape[0] or b.shape != (w.shape[0],):
        raise ValueError(f"nonconforming shapes: input {x.shape}, weight {w.shape}, bias {b.shape}")
    return w @ x + b


def global_avg_pool(input: Tensor) -> Tensor:
    """Mean over the spatial axes of a [C,H,W] input."""
    x = tensor(input)
    if x.ndim != 3 or x.shape[1] < 1 or x.shape[2] < 1:
        raise ValueError(f"expected a [C,H,W] input with H,W >= 1, got {x.shape}")
    return x.mean(axis=(1, 2))


def softmax_cross_entropy(logits: Tensor, label: int) -> tuple[float, Tensor]:
    """Loss and gradient wrt logits for one sample; stabilized by max-subtraction."""
    z = tensor(logits)
    if z.ndim != 1:
        raise ValueError(f"expected flat logits, got {z.shape}")
    if not 0 <= label < z.shape[0]:
        raise ValueError(f"label {label} out of range for {z.shape[0]} classes")
    loss, g = softmax_cross_entropy_batch(z[None], np.array([label]))
    return loss, g[0]


def softmax_cross_entropy_batch(logits: Tensor, labels: np.ndarray) -> tuple[float, Tensor]:
    """Mean loss over a [N,K] batch plus the gradient wrt logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    denom = e.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    idx = np.arange(n)
    loss = float((np.log(denom[:, 0]) - z[idx, labels]).mean())
    g = e / denom
    g[idx, labels] -= 1.0
    return loss, g / n


def grad_check(model, input, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic grads and central differences.

    `model` exposes parameters() and loss(input); loss() runs a full
    forward/backward and accumulates into each Parameter's grad.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    params = list(model.parameters())
    for p in params:
        p.zero_grad()
    model.loss(input)
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.value.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            lp = model.loss(input)
            flat[i] = orig - epsilon
            lm = model.loss(input)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * epsilon)
            err = abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-6)
            worst = max(worst, err)
    for p in params:
        p.zero_grad()
    return worst


# ---------------------------------------------------------------------------
# batched layer objects (training machinery)
# ---------------------------------------------------------------------------

def _conv_forward(x, kernel, bias, stride, pad):
    n, c_in, h, w = x.shape
    c_out, _, k, _ = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    y = np.zeros((c_out, n, h_out, w_out))
    for i in range(k):
        for j in range(k):
            xs = xp[:, :, i:i + stride * (h_out - 1) + 1:stride,
                    j:j + stride * (w_out - 1) + 1:stride]
            y += np.tensordot(kernel[:, :, i, j], xs, axes=([1], [1]))
    y = np.ascontiguousarray(y.transpose(1, 0, 2, 3))
    if bias is not None:
        y += bias[None, :, None, None]
    return y, xp


def _conv_backward(dout, xp, kernel, stride, pad, in_shape):
    _, _, h, w = in_shape
    _, _, k, _ = kernel.shape
    h_out, w_out = dout.shape[2], dout.shape[3]
    dk = np.zeros_like(kernel)
    dxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            sl_h = slice(i, i + stride * (h_out - 1) + 1, stride)
            sl_w = slice(j, j + stride * (w_out - 1) + 1, stride)
            dk[:, :, i, j] = np.tensordot(dout, xp[:, :, sl_h, sl_w],
                                          axes=([0, 2, 3], [0, 2, 3]))
            dxp[:, :, sl_h, sl_w] += np.tensordot(
                kernel[:, :, i, j], dout, axes=([0], [1])).transpose(1, 0, 2, 3)
    db = dout.sum(axis=(0, 2, 3))
    dx = dxp[:, :, pad:pad + h, pad:pad + w] if pad else dxp
    return dx, dk, db


class _Layer:
    """Forward caches form a stack: forward(train=True) pushes, backward pops,
    so one layer object may run several times before its backward passes."""

    def __init__(self) -> None:
        self._cache = []

    def parameters(self):
        return []


class Conv2d(_Layer):
    """3x3-style convolution layer, He-initialized (std = sqrt(2/fan_in))."""

    def __init__(self, c_in: int, c_out: int, k: int, stride: int, pad: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        std = np.sqrt(2.0 / (c_in * k * k))
        self.kernel = Parameter(rng.standard_normal((c_out, c_in, k, k)) * std)
        self.bias = Parameter(np.zeros(c_out))
        self.stride, self.pad = stride, pad

    def forward(self, x, train: bool = False):
        y, xp = _conv_forward(x, self.kernel.value, self.bias.value, self.stride, self.pad)
        if train:
            self._cache.append((xp, x.shape))
        return y

    def backward(self, dout):
        xp, in_shape = self._cache.pop()
        dx, dk, db = _conv_backward(dout, xp, self.kernel.value, self.stride,
                                    self.pad, in_shape)
        self.kernel.grad += dk
        self.bias.grad += db
        return dx

    def parameters(self):
        return [self.kernel, self.bias]


class Dense(_Layer):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator) -> None:
        super().__init__()
        std = np.sqrt(2.0 / n_in)
        self.weight = Parameter(rng.standard_normal((n_out, n_in)) * std)
        self.bias = Parameter(np.zeros(n_out))

    def forward(self, x, train: bool = False):
        if train:
            self._cache.append(x)
        return x @ self.weight.value.T + self.bias.value

    def backward(self, dout):
        x = self._cache.pop()
        self.weight.grad += dout.T @ x
        self.bias.grad += dout.sum(axis=0)
        return dout @ self.weight.value

    def parameters(self):
        return [self.weight, self.bias]


class ReLU(_Layer):
    # subgradient at 0 is taken as 0
    def forward(self, x, train: bool = False):
        if train:
            self._cache.append(x > 0)
        return np.maximum(x, 0.0)

    def backward(self, dout):
        return dout * self._cache.pop()


class Tanh(_Layer):
    def forward(self, x, train: bool = False):
        out = np.tanh(x)
        if train:
            self._cache.append(out)
        return out

    def backward(self, dout):
        return dout * (1.0 - self._cache.pop() ** 2)


class GlobalAvgPool(_Layer):
    """[N,C,H,W] -> [N,C] spatial mean."""

    def forward(self, x, train: bool = False):
        if train:
            self._cache.append(x.shape[2:])
        return x.mean(axis=(2, 3))

    def backward(self, dout):
        h, w = self._cache.pop()
        return np.broadcast_to(dout[:, :, None, None], dout.shape + (h, w)).copy() / (h * w)


class Sequential:
    def __init__(self, *layers) -> None:
        self.layers = list(layers)

    def forward(self, x, train: bool = False):
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, dout):
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
