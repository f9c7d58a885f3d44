"""Compare the baseline searchers on one synthetic landscape: periodic
heuristics, a bit-string genetic algorithm, and exhaustive ground truth."""

import numpy as np

from attnsearch.rewards import RewardConfig
from attnsearch.search import (SyntheticLandscape, exhaustive_search, ga_search,
                               hsp_scheme)

M = 10
land = SyntheticLandscape(M, seed=5)
ranked = exhaustive_search(land, M)
rank_of = {s: i for i, (s, _) in enumerate(ranked)}
print(f"exhaustive best: {ranked[0][0].to_string()} score {ranked[0][1]:.4f}")

print("\nperiodic heuristics (connect every N-th block):")
for period in (2, 3):
    for offset in range(period):
        s = hsp_scheme(period, offset, M)
        print(f"  N={period} offset={offset}: {s.to_string()}  "
              f"score {land(s):.4f}  rank {rank_of[s]}")

print("\ngenetic algorithm, 20 individuals x 15 generations:")
for seed in range(3):
    best, _, score = ga_search(land, M, 20, 15, np.random.default_rng(seed),
                               RewardConfig(0.0, 1.0, 0.0))
    print(f"  seed {seed}: {best.to_string()}  score {score:.4f}  "
          f"rank {rank_of[best]}")
