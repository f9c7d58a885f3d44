"""Policy-gradient scheme search on a deterministic synthetic landscape.

The controller samples schemes, is rewarded for sparsity/accuracy/novelty,
and its convergence is tracked through the mean realized-bit probability.
"""

import numpy as np

from attnsearch.controller import ControllerState
from attnsearch.rewards import RewardConfig, RNDPair
from attnsearch.search import SyntheticLandscape, ean_search, exhaustive_search

M = 8
land = SyntheticLandscape(M, seed=1)
ranked = exhaustive_search(land, M)
rank_of = {s: i for i, (s, _) in enumerate(ranked)}
print(f"landscape over {len(ranked)} schemes: best {ranked[0][0].to_string()} "
      f"({ranked[0][1]:.4f}), worst {ranked[-1][1]:.4f}")

controller = ControllerState(M, momentum=0.0, rng=np.random.default_rng(2))
pair = RNDPair(M, np.random.default_rng(3), init_scale=0.5)
result = ean_search(land, controller, RewardConfig(0.2, 1.0, 0.05),
                    300, np.random.default_rng(4), pair)

print("\niter  scheme    sparse  g_val   reward  p_bar")
for row in result.trace[::30]:
    print(f"{row.iteration:4d}  {row.scheme}  {row.sparse:.3f}  {row.g_val:.4f}"
          f"  {row.reward:.4f}  {row.p_bar:.3f}")

print("\ntop-3 schemes by combined reward:")
for scheme, reward in result.best:
    print(f"  {scheme.to_string()}  reward {reward:.4f}  "
          f"landscape rank {rank_of[scheme]}/{len(ranked)}")
