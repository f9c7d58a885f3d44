"""Inspect the two attention modules: mask shapes, parameter counts, and the
cost accounting used in study reports."""

import numpy as np

from attnsearch.attention import SEModule, SGEModule, se_attention, sge_attention
from attnsearch.supernet import (BackboneConfig, ConnectionScheme, base_flops,
                                 count_params, extra_flops)

cfg = BackboneConfig(stages=((3, 8), (3, 16), (2, 32)), input_shape=(1, 8, 8),
                     classes=6, sam="se", reduction=4)
rng = np.random.default_rng(0)
feat = rng.random((8, 6, 6))

se = SEModule(channels=8, reduction=4, rng=rng)
mask = se_attention(feat, se)
print("channel-squeeze mask (one value per channel):")
print(" ", np.round(mask, 3))
print(f"  parameters: {se.param_count()} "
      f"(closed form {cfg.sam_cost(8, 6 * 6)[0]})")

sge = SGEModule(channels=8, groups=2)
spatial = sge_attention(feat, sge)
print(f"\ngroup-wise mask shape {spatial.shape}, per-group scale/shift "
      f"-> {sge.param_count()} parameters")
print("  corner of the mask:")
print(np.round(spatial[0, :3, :3], 3))

print(f"\nbackbone: {count_params(cfg, ConnectionScheme.zeros(8))[0]} parameters, "
      f"{base_flops(cfg)} multiply ops")
print("scheme      extra params   extra ops   increment")
for text in ("00000000", "10001000", "11110000", "11111111"):
    s = ConnectionScheme.from_string(text)
    extra = count_params(cfg, s)[1]
    ops = extra_flops(cfg, s)
    print(f"{text}  {extra:12d}  {ops:10d}  {100 * ops / base_flops(cfg):8.2f}%")
