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

from .nncore import OptimizerConfig, Parameter, sgd_momentum_step, sigmoid
from .supernet import ConnectionScheme

PROB_FLOOR = 1e-6


@dataclass
class RolloutTuple:
    probs: np.ndarray  # controller output at sampling time
    scheme: ConnectionScheme
    reward: float


class ControllerState:
    """One-hidden-layer policy net over a constant zero input.

    The input being identically zero, there is no input weight: the hidden
    bias is the learned input. The output layer starts at zero so every
    initial probability is exactly 0.5.
    """

    def __init__(self, m: int, hidden: int = 64, lr: float = 5e-2,
                 momentum: float = 0.9, ppo_period: int = 10,
                 ratio_bounds: tuple[float, float] = (0.1, 10.0), *,
                 rng: np.random.Generator) -> None:
        lo, hi = ratio_bounds
        if not lo < 1.0 < hi:
            raise ValueError(f"ratio_bounds must bracket 1, got {ratio_bounds}")
        self.m = m
        # discarding the first half keeps each seed's published schemes unchanged
        self.b1 = Parameter(rng.standard_normal(2 * hidden)[hidden:])
        self.w2 = Parameter(np.zeros((m, hidden)))
        self.b2 = Parameter(np.zeros(m))
        self.opt = OptimizerConfig(lr, momentum)
        self.ppo_period = ppo_period
        self.ratio_bounds = ratio_bounds
        self.buffer: deque[RolloutTuple] = deque(maxlen=10 * ppo_period)
        self.update_count = 0

    def parameters(self) -> list[Parameter]:
        return [self.b1, self.w2, self.b2]

    def _forward(self):
        hidden = np.tanh(self.b1.value)
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

def _backprop_from_output(state: ControllerState, hidden: np.ndarray, dz2: np.ndarray):
    """Grads of a scalar objective wrt all params, given d(objective)/d(z2)
    and the hidden activation of the forward that gave z2."""
    dh = state.w2.value.T @ dz2
    return [dh * (1.0 - hidden ** 2), np.outer(dz2, hidden), dz2]


def reinforce_gradient(state: ControllerState, scheme: ConnectionScheme,
                       reward: float):
    """Ascent gradient of the score-weighted log probability: the replay
    gradient of one rollout drawn at the current parameters, where every
    importance ratio is exactly 1."""
    return ppo_gradient(state, [RolloutTuple(state._forward()[2], scheme, reward)])


def _ascend(state: ControllerState, grads) -> None:
    # ascent is descent on the negated gradient, and negation is exact
    for p, g in zip(state.parameters(), grads):
        p.grad -= g
    sgd_momentum_step(state.parameters(), state.opt)


def reinforce_update(state: ControllerState, scheme: ConnectionScheme,
                     reward: float) -> None:
    """Single-sample policy-gradient ascent step (no baseline subtraction)."""
    _ascend(state, reinforce_gradient(state, scheme, reward))
    state.update_count += 1


def ppo_gradient(state: ControllerState, tuples):
    """Ascent gradient of the tuples' mean of reward * sum_i clip(ratio_i,
    *ratio_bounds): d(ratio_i)/dz2_i = ratio_i * (a_i - p_i); bits pinned by
    the probability clamp or the ratio bounds contribute zero."""
    hidden, raw, clipped = state._forward()
    inside = (raw > PROB_FLOOR) & (raw < 1.0 - PROB_FLOOR)
    lo, hi = state.ratio_bounds
    dz2 = np.zeros(state.m)
    for t in tuples:
        if len(t.scheme) != state.m:
            raise ValueError(f"a {len(t.scheme)}-block scheme does not fit a "
                             f"{state.m}-block controller")
        p_old = realized_probabilities(np.clip(t.probs, PROB_FLOOR, 1 - PROB_FLOOR), t.scheme)
        ratio = realized_probabilities(clipped, t.scheme) / p_old
        active = (ratio > lo) & (ratio < hi)
        contrib = t.reward * ratio * (t.scheme.bits - raw)
        dz2 += np.where(inside & active, contrib, 0.0)
    dz2 /= len(tuples)
    return _backprop_from_output(state, hidden, dz2)


def ppo_update(state: ControllerState) -> None:
    """Importance-weighted replay step over the rollout buffer."""
    if not state.buffer:
        warnings.warn("replay buffer is empty; skipping update", stacklevel=2)
        return
    _ascend(state, ppo_gradient(state, state.buffer))
