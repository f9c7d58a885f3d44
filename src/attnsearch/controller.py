"""Connection-probability controller.

A small fully connected policy net maps a constant zero input to one
connect-probability per block. Schemes are sampled bit-wise from those
probabilities; the net is updated by score-weighted log-probability ascent,
with an importance-weighted replay update every `ppo_period` steps that
reuses buffered rollouts.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .nncore import Parameter, sigmoid
from .supernet import ConnectionScheme

PROB_FLOOR = 1e-6


@dataclass
class RolloutTuple:
    probs: np.ndarray  # controller output at sampling time
    scheme: ConnectionScheme
    reward: float


class ControllerState:
    """One-hidden-layer policy net over a constant zero input.

    The input being identically zero, the first weight matrix receives no
    gradient; the hidden bias plays the role of a learned input. The output
    layer starts at zero so every initial probability is exactly 0.5.
    """

    def __init__(self, m: int, hidden: int = 64, lr: float = 5e-2,
                 momentum: float = 0.9, ppo_period: int = 10,
                 buffer_capacity: int | None = None, clip_ratios: bool = True,
                 ratio_bounds: tuple[float, float] = (0.1, 10.0),
                 rng: np.random.Generator | None = None) -> None:
        rng = rng or np.random.default_rng()
        self.m = m
        self.w1 = Parameter(rng.standard_normal((hidden, 1)))
        self.b1 = Parameter(rng.standard_normal(hidden))
        self.w2 = Parameter(np.zeros((m, hidden)))
        self.b2 = Parameter(np.zeros(m))
        self.lr = lr
        self.momentum_coef = momentum
        self.ppo_period = ppo_period
        self.clip_ratios = clip_ratios
        self.ratio_bounds = ratio_bounds
        self.buffer: deque[RolloutTuple] = deque(
            maxlen=10 * ppo_period if buffer_capacity is None else buffer_capacity)
        self.update_count = 0

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]

    def _forward(self):
        hidden = np.tanh(self.b1.value)  # w1 @ 0 vanishes
        z2 = self.w2.value @ hidden + self.b2.value
        raw = sigmoid(z2)
        return hidden, raw, np.clip(raw, PROB_FLOOR, 1.0 - PROB_FLOOR)


def controller_forward(state: ControllerState) -> np.ndarray:
    """Current per-block connect probabilities, clamped inside (0,1)."""
    return state._forward()[2]


def realized_probabilities(probs: np.ndarray, scheme: ConnectionScheme) -> np.ndarray:
    """Per-bit probability of the realized outcome: p if a=1, 1-p if a=0."""
    return np.where(scheme.bits == 1, probs, 1.0 - probs)


def sample_and_score(probs: np.ndarray,
                     rng: np.random.Generator) -> tuple[ConnectionScheme, np.ndarray, float]:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise ValueError("probabilities must lie strictly inside (0,1)")
    bits = (rng.random(probs.size) < probs).astype(np.int64)
    scheme = ConnectionScheme(bits)
    p_hat = realized_probabilities(probs, scheme)
    return scheme, p_hat, float(np.log(p_hat).sum())


def mean_prob(p_hat) -> float:
    """Mean realized-bit probability; tends to 1 as sampling turns deterministic."""
    return float(np.mean(p_hat))


# ---------------------------------------------------------------------------
# updates
# ---------------------------------------------------------------------------

def _backprop_from_output(state: ControllerState, dz2: np.ndarray):
    """Grads of a scalar objective wrt all params, given d(objective)/d(z2)."""
    hidden, _, _ = state._forward()
    dw2 = np.outer(dz2, hidden)
    db2 = dz2
    dh = state.w2.value.T @ dz2
    db1 = dh * (1.0 - hidden ** 2)
    dw1 = np.zeros_like(state.w1.value)  # input is the zero vector
    return [dw1, db1, dw2, db2]


def reinforce_objective(state: ControllerState, scheme: ConnectionScheme,
                        reward: float) -> float:
    """reward * sum_i log of the realized-bit probability under current params."""
    p = controller_forward(state)
    return reward * float(np.log(realized_probabilities(p, scheme)).sum())


def reinforce_gradient(state: ControllerState, scheme: ConnectionScheme,
                       reward: float):
    """Ascent gradient of the score-weighted log probability.

    d/dz2_i of log p_hat_i collapses to (a_i - p_i); bits pinned by the
    probability clamp contribute zero.
    """
    _, raw, _ = state._forward()
    inside = (raw > PROB_FLOOR) & (raw < 1.0 - PROB_FLOOR)
    dz2 = np.where(inside, reward * (scheme.bits - raw), 0.0)
    return _backprop_from_output(state, dz2)


def _ascend(state: ControllerState, grads) -> None:
    for p, g in zip(state.parameters(), grads):
        p.momentum *= state.momentum_coef
        p.momentum += g
        p.value += state.lr * p.momentum


def reinforce_update(state: ControllerState, scheme: ConnectionScheme,
                     p_hat: np.ndarray, reward: float) -> None:
    """Single-sample policy-gradient ascent step (no baseline subtraction)."""
    if p_hat is not None and len(p_hat) != state.m:
        raise ValueError("p_hat length does not match controller output")
    _ascend(state, reinforce_gradient(state, scheme, reward))
    state.update_count += 1


def ppo_objective(state: ControllerState, tuples) -> float:
    """Mean over tuples of reward * sum_i ratio_i, the replay surrogate whose
    gradient is the importance-weighted update direction."""
    p = controller_forward(state)
    total = 0.0
    for t in tuples:
        p_old = realized_probabilities(np.clip(t.probs, PROB_FLOOR, 1 - PROB_FLOOR), t.scheme)
        ratio = realized_probabilities(p, t.scheme) / p_old
        if state.clip_ratios:
            ratio = np.clip(ratio, *state.ratio_bounds)
        total += t.reward * float(ratio.sum())
    return total / len(tuples)


def ppo_gradient(state: ControllerState, tuples):
    _, raw, clipped = state._forward()
    inside = (raw > PROB_FLOOR) & (raw < 1.0 - PROB_FLOOR)
    dz2 = np.zeros(state.m)
    for t in tuples:
        p_old = realized_probabilities(np.clip(t.probs, PROB_FLOOR, 1 - PROB_FLOOR), t.scheme)
        ratio = realized_probabilities(clipped, t.scheme) / p_old
        if state.clip_ratios:
            lo, hi = state.ratio_bounds
            active = (ratio > lo) & (ratio < hi)
        else:
            active = np.ones(state.m, dtype=bool)
        contrib = t.reward * ratio * (t.scheme.bits - raw)
        dz2 += np.where(inside & active, contrib, 0.0)
    dz2 /= len(tuples)
    return _backprop_from_output(state, dz2)


def ppo_update(state: ControllerState, tuples=None) -> None:
    """Importance-weighted replay step over the rollout buffer."""
    if tuples is None:
        tuples = list(state.buffer)
    if not tuples:
        warnings.warn("replay buffer is empty; skipping update", stacklevel=2)
        return
    _ascend(state, ppo_gradient(state, tuples))
