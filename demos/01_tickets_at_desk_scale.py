"""Find sparse attention-connection schemes that match the fully connected
network on a small synthetic task.

Pre-trains a weight-shared backbone under random gating, ranks every scheme
by proxy accuracy, retrains the best sparse candidates standalone, and
checks them against the fully connected and attention-free baselines.
"""

from attnsearch.config import ExperimentConfig
from attnsearch.nncore import OptimizerConfig
from attnsearch.search import all_schemes, classify_ticket
from attnsearch.supernet import (ConnectionScheme, SupernetState, count_params,
                                 evaluate_scheme, flop_increment_pct,
                                 pretrain_supernet, train_with_scheme)

cfg = ExperimentConfig.from_dict({
    "seed": 0,
    "dataset": {"classes": 6, "noise": 0.40, "per_class": 80, "val_fraction": 0.4},
    "backbone": {"stages": [[3, 8], [3, 16], [2, 32]], "input_shape": [1, 8, 8],
                 "classes": 6},
})
train, val = cfg.build_dataset()
opt = OptimizerConfig(0.02, 0.9, 1e-3)
m = cfg.backbone.total_blocks

print(f"toy task: {len(train)} train / {len(val)} val samples, {m} blocks")
print("pre-training the weight-shared backbone under Bernoulli(0.5) gates ...")
net = cfg.build_supernet()
pretrain_supernet(net, train, beta=0.5, steps=600, batch_size=16, opt=opt)

print("ranking all 256 schemes by proxy accuracy ...")
proxy = {s: evaluate_scheme(net, s, val) for s in all_schemes(m)}


def standalone(scheme, steps=300):
    fresh = SupernetState(cfg.backbone, cfg.seed + 1000)
    train_with_scheme(fresh, train, scheme, steps, 16, opt,
                      lr_drop_step=int(steps * 0.75))
    return evaluate_scheme(fresh, scheme, val)


full = ConnectionScheme.ones(m)
empty = ConnectionScheme.zeros(m)
acc_full = standalone(full)
acc_plain = standalone(empty)
print(f"standalone: fully connected {acc_full:.3f}, attention-free {acc_plain:.3f}")

sparse = sorted((s for s in proxy if s.ones_count <= m // 2),
                key=lambda s: (-proxy[s], s.to_string()))[:6]
print("\nscheme    ones  proxy  standalone  extra-params  flops(+%)  verdict")
for s in sparse:
    acc = standalone(s)
    verdict = classify_ticket(acc, acc_full, acc_plain, s.ones_count, m)
    tag = "TICKET" if verdict.is_ticket else ("harmful" if verdict.is_harmful else "-")
    extra = count_params(cfg.backbone, s)[1]
    print(f"{s.to_string()}  {s.ones_count:4d}  {proxy[s]:.3f}  {acc:10.3f}"
          f"  {extra:12d}  {flop_increment_pct(cfg.backbone, s):8.2f}  {tag}")
