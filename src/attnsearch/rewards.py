"""Reward components for scheme search.

Three ingredients: a sparsity term (fraction of disconnected blocks), a
validation-accuracy proxy from the weight-shared backbone, and a curiosity
bonus from a frozen-target/trained-predictor network pair. They combine
linearly with nonnegative coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nncore import Dense, OptimizerConfig, Sequential, Tanh, sgd_momentum_step
from .supernet import ConnectionScheme


@dataclass(frozen=True)
class RewardConfig:
    lambda_spa: float = 0.5
    lambda_val: float = 1.0
    lambda_rnd: float = 0.1

    def __post_init__(self) -> None:
        if min(self.lambda_spa, self.lambda_val, self.lambda_rnd) < 0:
            raise ValueError("reward coefficients must be nonnegative")
        if self.lambda_spa == self.lambda_val == self.lambda_rnd == 0:
            raise ValueError("at least one reward coefficient must be positive")


@dataclass
class RewardBundle:
    g_spa: float
    g_val: float
    g_rnd: float
    combined: float


def sparsity_reward(scheme: ConnectionScheme) -> float:
    """1 - (connected blocks / total blocks), in [0,1]."""
    return 1.0 - scheme.ones_count / len(scheme)


class RNDPair:
    """Frozen random target net plus a trainable predictor of it.

    Both map a scheme's 0/1 vector to an 8-d embedding; the squared
    prediction gap is the novelty bonus. The predictor's hidden layer is
    twice the target's so it can fit the target on seen schemes.
    """

    def __init__(self, m: int, rng: np.random.Generator,
                 target_hidden: int = 32, predictor_hidden: int = 64,
                 lr: float = 1e-2, init_scale: float = 0.5) -> None:
        # lr must stay under 2/max||hidden||^2 or the squared loss diverges;
        # init_scale keeps raw bonuses comparable to accuracy rewards so the
        # novelty term differentiates schemes instead of inflating every G
        self.target = Sequential(Dense(m, target_hidden, rng), Tanh(),
                                 Dense(target_hidden, 8, rng))
        self.predictor = Sequential(Dense(m, predictor_hidden, rng), Tanh(),
                                    Dense(predictor_hidden, 8, rng))
        self.target.layers[2].weight.value *= init_scale
        self.predictor.layers[2].weight.value *= init_scale
        self.opt = OptimizerConfig(lr, 0.0, 0.0)

    def parameters(self):
        """Trainable parameters (predictor only; the target stays frozen)."""
        return self.predictor.parameters()

    def _outputs(self, scheme: ConnectionScheme, train: bool = False):
        x = scheme.bits.astype(np.float64)[None]
        return self.target.forward(x), self.predictor.forward(x, train=train)


def rnd_bonus(pair: RNDPair, scheme: ConnectionScheme) -> float:
    """Squared L2 gap between target and predictor outputs (>= 0)."""
    t, p = pair._outputs(scheme)
    return float(((t - p) ** 2).sum())


def rnd_train_step(pair: RNDPair, scheme: ConnectionScheme) -> float:
    """One gradient step shrinking the predictor's gap on this scheme."""
    t, p = pair._outputs(scheme, train=True)
    loss = float(((t - p) ** 2).sum())
    pair.predictor.backward(2.0 * (p - t))
    sgd_momentum_step(pair.parameters(), pair.opt)
    return loss


def combined_reward(config: RewardConfig, g_spa: float, g_val: float,
                    g_rnd: float) -> float:
    for name, val in (("g_spa", g_spa), ("g_val", g_val), ("g_rnd", g_rnd)):
        if not np.isfinite(val):
            raise ValueError(f"{name} must be finite, got {val}")
    return (config.lambda_spa * g_spa + config.lambda_val * g_val
            + config.lambda_rnd * g_rnd)


def reward_bundle(config: RewardConfig, scheme: ConnectionScheme, g_val: float,
                  pair: RNDPair | None = None) -> RewardBundle:
    """Assemble all components for one sampled scheme."""
    g_spa = sparsity_reward(scheme)
    g_rnd = rnd_bonus(pair, scheme) if pair is not None and config.lambda_rnd > 0 else 0.0
    return RewardBundle(g_spa, g_val, g_rnd,
                        combined_reward(config, g_spa, g_val, g_rnd))
