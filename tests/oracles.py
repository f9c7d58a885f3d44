"""Reference objectives and landscapes that only the tests use.

Imported as `from oracles import ...`; `tests/` has no `__init__.py`, so
pytest puts this directory on the path and, the name lacking a `test_`
prefix, collects nothing from here. Kept apart from the library, an oracle
is also independent of the code it checks.
"""

import numpy as np

from attnsearch.controller import (PROB_FLOOR, controller_forward,
                                   realized_probabilities)
from attnsearch.rngstreams import named_rng
from attnsearch.supernet import sample_bernoulli_scheme


def reinforce_objective(state, scheme, reward: float) -> float:
    """reward * sum_i log of the realized-bit probability under current params."""
    p = controller_forward(state)
    return reward * float(np.log(realized_probabilities(p, scheme)).sum())


def ppo_objective(state, tuples) -> float:
    """Mean over tuples of reward * sum_i clip(ratio_i, *ratio_bounds), the replay
    surrogate whose gradient is the importance-weighted update direction."""
    p = controller_forward(state)
    total = 0.0
    for t in tuples:
        p_old = realized_probabilities(np.clip(t.probs, PROB_FLOOR, 1 - PROB_FLOOR), t.scheme)
        ratio = np.clip(realized_probabilities(p, t.scheme) / p_old, *state.ratio_bounds)
        total += t.reward * float(ratio.sum())
    return total / len(tuples)


class PeakedLandscape:
    """One strongly preferred scheme; score decays with Hamming distance."""

    def __init__(self, m: int, seed: int, floor: float = 0.1,
                 height: float = 0.9, tau: float = 1.0) -> None:
        rng = named_rng(seed, "peaked-landscape")
        self.m = m
        self.peak = sample_bernoulli_scheme(0.5, m, rng)
        self.floor = floor
        self.height = height
        self.tau = tau

    def __call__(self, scheme) -> float:
        dist = int(np.sum(scheme.bits != self.peak.bits))
        return self.floor + self.height * float(np.exp(-dist / self.tau))
