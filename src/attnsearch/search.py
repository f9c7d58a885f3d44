"""Scheme searchers and evaluation backends.

The policy-gradient search loop plus the comparison searchers: exhaustive
enumeration, fixed-ones-count random sampling, periodic heuristic schemes,
a bit-string genetic algorithm, and magnitude pruning of attention weights.
Two evaluator backends are provided: the weight-shared backbone proxy and a
deterministic synthetic landscape for fast, exact searcher testing.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from .controller import (ControllerState, RolloutTuple, controller_forward,
                         mean_prob, ppo_update, reinforce_update,
                         sample_and_score)
from .rewards import (RewardConfig, RNDPair, combined_reward, reward_bundle,
                      rnd_train_step, sparsity_reward)
from .rngstreams import named_rng
from .supernet import (ConnectionScheme, SupernetState, evaluate_scheme,
                       sample_bernoulli_scheme)


# ---------------------------------------------------------------------------
# evaluator backends
# ---------------------------------------------------------------------------

class SupernetEvaluator:
    """Proxy accuracy of a scheme, read from a weight-shared backbone."""

    def __init__(self, net: SupernetState, val_set) -> None:
        self.net = net
        self.val_set = val_set

    @property
    def pretrained(self) -> bool:
        return self.net.pretrained

    def __call__(self, scheme: ConnectionScheme) -> float:
        return evaluate_scheme(self.net, scheme, self.val_set)


class SyntheticLandscape:
    """Seeded quadratic-plus-interaction pseudo-accuracy over schemes.

    Coefficients are uniform-bounded and scale like 1/sqrt(m) and 1/m so no
    single bit dominates the score; outputs land strictly inside (0,1).
    """

    pretrained = True

    def __init__(self, m: int, seed: int, linear_scale: float = 0.3,
                 pair_scale: float = 1.6) -> None:
        rng = named_rng(seed, "synthetic-landscape")
        self.m = m
        self.linear = rng.uniform(-1.0, 1.0, m) * linear_scale / np.sqrt(m)
        couplings = rng.uniform(-1.0, 1.0, (m, m)) * pair_scale / m
        self.couplings = np.triu(couplings, 1)

    def __call__(self, scheme: ConnectionScheme) -> float:
        x = scheme.bits - 0.5
        s = float(self.linear @ x + x @ self.couplings @ x)
        return 0.5 + 0.5 * np.tanh(s)


class PeakedLandscape:
    """One strongly preferred scheme; score decays with Hamming distance."""

    pretrained = True

    def __init__(self, m: int, seed: int, floor: float = 0.1,
                 height: float = 0.9, tau: float = 1.0) -> None:
        rng = named_rng(seed, "peaked-landscape")
        self.m = m
        self.peak = sample_bernoulli_scheme(0.5, m, rng)
        self.floor = floor
        self.height = height
        self.tau = tau

    def __call__(self, scheme: ConnectionScheme) -> float:
        dist = int(np.sum(scheme.bits != self.peak.bits))
        return self.floor + self.height * float(np.exp(-dist / self.tau))


# ---------------------------------------------------------------------------
# verdicts, traces
# ---------------------------------------------------------------------------

@dataclass
class TicketVerdict:
    standalone_accuracy: float
    full_accuracy: float
    original_accuracy: float
    is_ticket: bool
    is_harmful: bool
    scheme: ConnectionScheme | None = None


@dataclass
class TraceRow:
    iteration: int
    scheme: str
    sparse: float
    g_val: float
    g_rnd: float
    reward: float
    p_bar: float


@dataclass
class SearchResult:
    best: list  # [(ConnectionScheme, reward)], highest reward first, up to 3
    trace: list[TraceRow] = field(default_factory=list)


def classify_ticket(scheme_accuracy: float, full_accuracy: float,
                    original_accuracy: float, ones_count: int, m: int,
                    scheme: ConnectionScheme | None = None) -> TicketVerdict:
    """A ticket matches the all-connected accuracy with strictly fewer
    connections; a harmful scheme falls below the plain backbone."""
    for name, acc in (("scheme", scheme_accuracy), ("full", full_accuracy),
                      ("original", original_accuracy)):
        if not 0.0 <= acc <= 1.0:
            raise ValueError(f"{name} accuracy {acc} outside [0,1]")
    return TicketVerdict(
        standalone_accuracy=scheme_accuracy,
        full_accuracy=full_accuracy,
        original_accuracy=original_accuracy,
        is_ticket=bool(scheme_accuracy >= full_accuracy and ones_count < m),
        is_harmful=bool(scheme_accuracy < original_accuracy),
        scheme=scheme,
    )


def _scored_once(evaluator):
    """`evaluator` with a memo: each distinct scheme is scored once per searcher call."""
    return functools.cache(lambda scheme: float(evaluator(scheme)))


# ---------------------------------------------------------------------------
# the policy-gradient search loop
# ---------------------------------------------------------------------------

def ean_search(evaluator, controller: ControllerState, rewards: RewardConfig,
               iterations: int, rng: np.random.Generator,
               rnd_pair: RNDPair | None = None) -> SearchResult:
    """Sample schemes from the controller, reward, ascend, replay.

    Per iteration, `iterations` times: forward the controller, sample one
    scheme, score it, compute the reward components, take one policy-gradient
    step, push the rollout to the buffer, run an importance-weighted replay
    update every `ppo_period` steps, then train the novelty predictor on the
    scheme.
    Returns the top three distinct schemes by combined reward plus the full
    per-iteration trace. `evaluator` must be a pure function of the scheme:
    each distinct scheme is scored once and reused on a repeat."""
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    if not getattr(evaluator, "pretrained", True):
        warnings.warn("searching against an un-pretrained proxy; accuracy "
                      "rewards will be close to chance", stacklevel=2)
    if rewards.lambda_rnd > 0 and rnd_pair is None:
        raise ValueError("lambda_rnd > 0 requires an RNDPair")
    score = _scored_once(evaluator)
    best: dict[ConnectionScheme, float] = {}
    trace: list[TraceRow] = []
    for iteration in range(iterations):
        probs = controller_forward(controller)
        scheme, p_hat, _ = sample_and_score(probs, rng)
        g_val = score(scheme)
        bundle = reward_bundle(rewards, scheme, g_val, rnd_pair)
        reinforce_update(controller, scheme, bundle.combined)
        controller.buffer.append(RolloutTuple(probs.copy(), scheme, bundle.combined))
        if controller.update_count % controller.ppo_period == 0:
            ppo_update(controller)
        if rnd_pair is not None:
            rnd_train_step(rnd_pair, scheme)
        trace.append(TraceRow(iteration, scheme.to_string(), bundle.g_spa,
                              bundle.g_val, bundle.g_rnd, bundle.combined,
                              mean_prob(p_hat)))
        if scheme not in best or bundle.combined > best[scheme]:
            best[scheme] = bundle.combined
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0].to_string()))
    return SearchResult(best=ranked[:3], trace=trace)


# ---------------------------------------------------------------------------
# baseline searchers
# ---------------------------------------------------------------------------

def all_schemes(m: int):
    """Every scheme of length m in ascending digit-string order."""
    for code in range(2 ** m):
        yield ConnectionScheme.from_string(format(code, f"0{m}b"))


def exhaustive_search(evaluator, m: int) -> list:
    """Evaluate all 2^m schemes; rank by score desc, ties by string asc."""
    if m > 20:
        raise ValueError(f"refusing exhaustive search for m={m} (2^{m} schemes); cap is 20")
    scored = [(scheme, float(evaluator(scheme))) for scheme in all_schemes(m)]
    scored.sort(key=lambda sv: (-sv[1], sv[0].to_string()))
    return scored


def sample_fixed_ones(m: int, ones: int, rng: np.random.Generator) -> ConnectionScheme:
    bits = np.zeros(m, dtype=np.int64)
    if ones:
        bits[rng.choice(m, size=ones, replace=False)] = 1
    return ConnectionScheme(bits)


def random_ratio_study(evaluator, m: int, ratios, samples_per_ratio: int,
                       rng: np.random.Generator) -> list[dict]:
    """Uniform samples among schemes with exactly round(ratio*m) ones.

    When a bucket holds no more than samples_per_ratio distinct schemes the
    whole bucket is enumerated instead, so the reported per-ratio maximum is
    exact there. Rows carry scheme (a digit string), ones, ratio and accuracy.
    All sampling happens before evaluation.
    """
    sampled = []
    for ratio in ratios:
        ones = int(round(ratio * m))
        if not 0 <= ones <= m:
            raise ValueError(f"ratio {ratio} out of range for m={m}")
        if comb(m, ones) <= samples_per_ratio:
            for positions in combinations(range(m), ones):
                bits = np.zeros(m, dtype=np.int64)
                bits[list(positions)] = 1
                sampled.append((ratio, ones, ConnectionScheme(bits)))
        else:
            sampled.extend((ratio, ones, sample_fixed_ones(m, ones, rng))
                           for _ in range(samples_per_ratio))
    return [{"scheme": scheme.to_string(), "ones": ones, "ratio": ratio,
             "accuracy": float(evaluator(scheme))}
            for ratio, ones, scheme in sampled]


def hsp_scheme(period: int, offset: int, m: int) -> ConnectionScheme:
    """Connect every `period` blocks starting at `offset` (0-based)."""
    if not 1 <= period <= m:
        raise ValueError(f"period {period} must lie in [1, m={m}]")
    if not 0 <= offset < period:
        raise ValueError(f"offset {offset} must lie in [0, period={period})")
    bits = np.fromiter((1 if i % period == offset else 0 for i in range(m)),
                       dtype=np.int64, count=m)
    return ConnectionScheme(bits)


def ga_search(evaluator, m: int, population: int, generations: int,
              rng: np.random.Generator,
              rewards: RewardConfig | None = None) -> tuple[ConnectionScheme, float]:
    """Bit-string GA: tournament (k=3), uniform crossover (p=0.5), per-bit
    mutation 1/m, single elite. Fitness is the combined reward with the
    novelty term absent. `evaluator` must be a pure function of the scheme:
    each distinct scheme is scored once and reused on a repeat."""
    if population < 4:
        raise ValueError("population must be at least 4")
    if generations < 1:
        raise ValueError(f"generations must be at least 1, got {generations}")
    rewards = rewards or RewardConfig()
    score = _scored_once(evaluator)

    def fitness(scheme: ConnectionScheme) -> float:
        return combined_reward(rewards, sparsity_reward(scheme), score(scheme), 0.0)

    pop = [sample_bernoulli_scheme(0.5, m, rng) for _ in range(population)]
    best_scheme, best_fit = None, -np.inf
    for _ in range(generations):
        fits = [fitness(s) for s in pop]
        order = sorted(range(population), key=lambda i: (-fits[i], pop[i].to_string()))
        if fits[order[0]] > best_fit:
            best_scheme, best_fit = pop[order[0]], fits[order[0]]

        def tournament():
            picks = rng.integers(0, population, size=3)
            w = min(picks, key=lambda i: (-fits[i], pop[i].to_string()))
            return pop[w]

        children = [pop[order[0]]]  # elite carries over unchanged
        while len(children) < population:
            pa, pb = tournament(), tournament()
            cross = rng.random(m) < 0.5
            bits = np.where(cross, pa.bits, pb.bits)
            flip = rng.random(m) < 1.0 / m
            bits = np.where(flip, 1 - bits, bits)
            children.append(ConnectionScheme(bits.astype(np.int64)))
        pop = children
    for s in pop:
        f = fitness(s)
        if f > best_fit:
            best_scheme, best_fit = s, f
    return best_scheme, best_fit


def l1_prune_baseline(net: SupernetState, keep_ratio: float) -> ConnectionScheme:
    """Keep the round(keep_ratio*m) blocks whose attention parameters have
    the largest L1 norm. Needs per-block storage; shared mode has no
    per-block ranking."""
    if net.config.sharing != "per-block":
        raise ValueError("magnitude pruning needs per-block attention parameters")
    if not 0.0 <= keep_ratio <= 1.0:
        raise ValueError("keep_ratio must lie in [0,1]")
    m = net.config.total_blocks
    norms = np.array([sum(float(np.abs(p.value).sum()) for p in b.sam.parameters())
                      for b in net.blocks])
    keep = int(round(keep_ratio * m))
    bits = np.zeros(m, dtype=np.int64)
    if keep:
        order = np.lexsort((np.arange(m), -norms))  # ties keep the earlier block
        bits[order[:keep]] = 1
    return ConnectionScheme(bits)
