"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The full gate takes roughly 10-15 minutes on one desktop core; the
heavyweight criteria state their own budgets.
"""

import json
import math
import time

import numpy as np

from attnsearch.cli import main as cli_main
from attnsearch.config import ExperimentConfig
from attnsearch.controller import (ControllerState, RolloutTuple,
                                   controller_forward, ppo_gradient,
                                   reinforce_gradient, sample_and_score)
from attnsearch.nncore import OptimizerConfig
from attnsearch.rewards import RewardConfig, RNDPair, sparsity_reward
from attnsearch.search import (SyntheticLandscape, all_schemes, ean_search,
                               exhaustive_search, ga_search, sample_fixed_ones)
from attnsearch.stats import pearson, pearson_pvalue_one_sided
from attnsearch.supernet import (ConnectionScheme, SupernetState,
                                 evaluate_scheme, pretrain_supernet,
                                 sample_bernoulli_scheme, train_with_scheme)
from attnsearch.theory import (ResNetChain, Thm1Instance, embed_as_subnetwork,
                               extend_network, min_row_zeroing_error,
                               thm1_monte_carlo)
from oracles import PeakedLandscape, ppo_objective, reinforce_objective

ITER0_SCHEME_54 = "000110000001111101110010000001000110111110110110010011"


def report(num, name, passed, detail=""):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def toy_config(seed, noise=0.35):
    return ExperimentConfig.from_dict({
        "seed": seed,
        "dataset": {"classes": 6, "noise": noise, "per_class": 80,
                    "val_fraction": 0.4},
        "backbone": {"stages": [[3, 8], [3, 16], [2, 32]],
                     "input_shape": [1, 8, 8], "classes": 6},
    })


OPT = OptimizerConfig(0.02, 0.9, 1e-3)


def standalone_accuracy(cfg, train, val, scheme, steps):
    net = SupernetState(cfg.backbone, cfg.seed + 1000)
    train_with_scheme(net, train, scheme, steps, 16, OPT,
                      lr_drop_step=int(steps * 0.75))
    return evaluate_scheme(net, scheme, val)


def test_criterion_01_ticket_existence():
    """Exhaustive desk-scale study finds a sparse scheme matching the fully
    connected network, in at least 4 of 5 seeds, within 30 minutes."""
    started = time.perf_counter()
    m = 8
    wins = 0
    details = []
    for seed in range(5):
        cfg = toy_config(seed, noise=0.40)
        train, val = cfg.build_dataset()
        net = cfg.build_supernet()
        pretrain_supernet(net, train, 0.5, 600, 16, OPT)
        proxy = {s: evaluate_scheme(net, s, val) for s in all_schemes(m)}
        acc_full = standalone_accuracy(cfg, train, val, ConnectionScheme.ones(m), 300)
        sparse = sorted((s for s in proxy if s.ones_count <= m // 2),
                        key=lambda s: (-proxy[s], s.to_string()))[:6]
        best = max(standalone_accuracy(cfg, train, val, s, 300) for s in sparse)
        wins += best >= acc_full
        details.append(f"seed{seed}: full={acc_full:.3f} sparse={best:.3f}")
    elapsed = time.perf_counter() - started
    report(1, "ticket existence", wins >= 4 and elapsed <= 1800,
           f"{wins}/5 seeds, {elapsed:.0f}s ({'; '.join(details)})")


def test_criterion_02_search_quality_vs_exhaustive():
    """Policy search lands in the exhaustive top 5% in >=8/10 seeds with a
    300-evaluation budget; the GA reaches the top 10%; under one minute."""
    started = time.perf_counter()
    land = SyntheticLandscape(8, seed=1)
    ranked = exhaustive_search(land, 8)
    rank_of = {s: i for i, (s, _) in enumerate(ranked)}
    ean_hits = ga_hits = 0
    for seed in range(10):
        controller = ControllerState(8, momentum=0.0, ratio_bounds=(0.0, math.inf),
                                     rng=np.random.default_rng(100 + seed))
        res = ean_search(land, controller, RewardConfig(0.0, 1.0, 0.0), 300,
                         np.random.default_rng(200 + seed))
        ean_hits += rank_of[res.best[0][0]] < 0.05 * 256
        best, _, _ = ga_search(land, 8, 20, 15, np.random.default_rng(300 + seed),
                               RewardConfig(0.0, 1.0, 0.0))
        ga_hits += rank_of[best] < 0.10 * 256
    elapsed = time.perf_counter() - started
    report(2, "search quality vs exhaustive oracle",
           ean_hits >= 8 and ga_hits >= 8 and elapsed <= 60,
           f"EAN top-5% {ean_hits}/10, GA top-10% {ga_hits}/10, {elapsed:.1f}s")


def test_criterion_03_sparsity_reward_ground_truth():
    """Reference 54-block trace endpoints: the iteration-0 scheme scores
    0.52 +- 0.005 and the all-ones iteration-60 scheme exactly 0."""
    s0 = ConnectionScheme.from_string(ITER0_SCHEME_54)
    g0 = sparsity_reward(s0)
    g60 = sparsity_reward(ConnectionScheme.ones(54))
    report(3, "sparsity reward ground truth",
           abs(g0 - 0.52) <= 0.005 and g60 == 0.0,
           f"iter0={g0:.4f}, iter60={g60}")


def test_criterion_04_policy_gradient_correctness():
    """Score-ascent and replay gradients match finite differences to 1e-5
    relative; ratio-1 replay reproduces averaged single-sample steps to 1e-10."""
    worst_fd = 0.0
    worst_eq = 0.0
    for seed in range(3):
        st = ControllerState(6, hidden=16, ratio_bounds=(0.0, math.inf),
                             rng=np.random.default_rng(seed))
        mix = np.random.default_rng(900 + seed)
        st.w2.value[:] = mix.standard_normal(st.w2.value.shape) * 0.4
        st.b2.value[:] = mix.standard_normal(6) * 0.3
        rng = np.random.default_rng(50 + seed)
        scheme, _, _ = sample_and_score(controller_forward(st), rng)

        def fd(objective):
            grads = []
            for prm in st.parameters():
                g = np.zeros_like(prm.value)
                flat, gf = prm.value.reshape(-1), g.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + 1e-6
                    up = objective()
                    flat[i] = orig - 1e-6
                    down = objective()
                    flat[i] = orig
                    gf[i] = (up - down) / 2e-6
                grads.append(g)
            return grads

        analytic = reinforce_gradient(st, scheme, 0.8)
        numeric = fd(lambda: reinforce_objective(st, scheme, 0.8))
        for a, n in zip(analytic, numeric):
            scale = max(np.abs(n).max(), 1e-8)
            worst_fd = max(worst_fd, float(np.abs(a - n).max() / scale))

        tuples = []
        for _ in range(5):
            p = controller_forward(st)
            s2, _, _ = sample_and_score(p, rng)
            tuples.append(RolloutTuple(p.copy(), s2, float(rng.random())))
        ppo = ppo_gradient(st, tuples)
        mean = [np.zeros_like(p.value) for p in st.parameters()]
        for t in tuples:
            for acc, g in zip(mean, reinforce_gradient(st, t.scheme, t.reward)):
                acc += g / len(tuples)
        for a, b in zip(ppo, mean):
            worst_eq = max(worst_eq, float(np.abs(a - b).max()))

        st.b2.value += 0.15  # off-policy: ratios differ from 1
        analytic = ppo_gradient(st, tuples)
        numeric = fd(lambda: ppo_objective(st, tuples))
        for a, n in zip(analytic, numeric):
            scale = max(np.abs(n).max(), 1e-8)
            worst_fd = max(worst_fd, float(np.abs(a - n).max() / scale))
    report(4, "policy-gradient correctness",
           worst_fd < 1e-5 and worst_eq < 1e-10,
           f"max FD rel err {worst_fd:.2e}, max replay-vs-mean gap {worst_eq:.2e}")


def test_criterion_05_width_bound_monte_carlo():
    """At the bound width (d=8, eps=0.5, delta=0.1, corrected dof), 2000
    sampled nets respect the 3-sigma failure band; the proof bound dominates
    the measured zeroing error on all 100 instances; under two minutes."""
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    mc = thm1_monte_carlo(8, 0.5, 0.1, 2000, rng, "corrected")
    inst_rng = np.random.default_rng(1)
    dominated = 0
    for _ in range(100):
        inst = Thm1Instance.draw(8, 32, 100, inst_rng)
        _, measured, bound = min_row_zeroing_error(inst)
        dominated += measured <= bound
    elapsed = time.perf_counter() - started
    report(5, "width-bound Monte Carlo",
           mc["passed"] and dominated == 100 and elapsed <= 120,
           f"failure {mc['failure_rate']:.4f} <= band {mc['band']:.4f} at "
           f"m={mc['m']}, dominance {dominated}/100, {elapsed:.0f}s")


def test_criterion_06_function_preserving_constructions():
    """Depth extension is exact; masked embedding agrees to 1e-12 on 100
    probes each."""
    rng = np.random.default_rng(2)
    chain = ResNetChain.random(5, [4, 3, 4], rng)
    probes = rng.standard_normal((100, 5))
    ext_gap = float(np.abs(extend_network(chain, 6).forward(probes)
                           - chain.forward(probes)).max())
    wide, masks = embed_as_subnetwork(chain, 9, rng)
    emb_gap = float(np.abs(wide.forward(probes, masks)
                           - chain.forward(probes)).max())
    report(6, "function-preserving constructions",
           ext_gap == 0.0 and emb_gap <= 1e-12,
           f"extension gap {ext_gap}, embedding gap {emb_gap:.2e}")


def test_criterion_07_gradient_isolation():
    """Disconnected blocks' attention parameters receive exactly zero
    gradient across 100 random scheme/batch pairs."""
    cfg = toy_config(0)
    train, _ = cfg.build_dataset()
    net = cfg.build_supernet()
    rng = np.random.default_rng(3)
    clean = 0
    for _ in range(100):
        scheme = sample_bernoulli_scheme(0.5, 8, rng)
        idx = rng.integers(0, len(train), 8)
        for _, p in net.named_parameters():
            p.zero_grad()
        net.loss_and_grads(train.images[idx], train.labels[idx], scheme)
        ok = True
        for b, block in enumerate(net.blocks):
            peak = max(np.abs(p.grad).max() for p in block.sam.parameters())
            ok &= (peak == 0.0) if not scheme.bits[b] else (peak > 0.0)
        clean += ok
    report(7, "gradient isolation", clean == 100, f"{clean}/100 pairs exact")


def test_criterion_08_proxy_correlation():
    """Proxy accuracy correlates with standalone accuracy (r > 0.3,
    one-sided p < 0.05) over 27 ratio-stratified schemes."""
    cfg = toy_config(0, noise=0.40)
    train, val = cfg.build_dataset()
    net = cfg.build_supernet()
    pretrain_supernet(net, train, 0.5, 400, 16, OPT)
    rng = np.random.default_rng(42)
    schemes = []
    for ones in range(9):
        for _ in range(3):
            schemes.append(sample_fixed_ones(8, ones, rng))
    schemes = list(dict.fromkeys(schemes))
    proxy = [evaluate_scheme(net, s, val) for s in schemes]
    standalone = [standalone_accuracy(cfg, train, val, s, 120) for s in schemes]
    r = pearson(proxy, standalone)
    p = pearson_pvalue_one_sided(r, len(schemes))
    report(8, "proxy correlation",
           len(schemes) >= 20 and r > 0.3 and p < 0.05,
           f"n={len(schemes)}, r={r:.3f}, one-sided p={p:.4f}")


def test_criterion_09_convergence_diagnostics():
    """Without the novelty bonus the sampler turns deterministic (mean
    realized-bit probability above 0.95 inside 300 iterations) on a strongly
    peaked landscape; enabling it (weight 0.1) should keep the first-100
    mean at least 0.05 lower across 10 seeds."""
    crossings = 0
    gaps = []
    for seed in range(10):
        land = PeakedLandscape(8, seed, floor=0.0, height=1.0, tau=0.7)

        def run(lam3):
            c = ControllerState(8, rng=np.random.default_rng(1000 + seed))
            pair = (RNDPair(8, np.random.default_rng(2000 + seed), init_scale=0.5)
                    if lam3 else None)
            cfg = RewardConfig(0.0, 1.0, lam3) if lam3 else RewardConfig(0.0, 1.0, 0.0)
            return ean_search(land, c, cfg, 300,
                              np.random.default_rng(3000 + seed), pair).trace
        plain = run(0.0)
        bonused = run(0.1)
        crossings += any(row.p_bar > 0.95 for row in plain)
        gaps.append(np.mean([row.p_bar for row in plain[:100]])
                    - np.mean([row.p_bar for row in bonused[:100]]))
    mean_gap = float(np.mean(gaps))
    report(9, "convergence diagnostics",
           crossings == 10 and mean_gap >= 0.05,
           f"deterministic collapse {crossings}/10, exploration gap {mean_gap:+.4f} "
           f"(needs >= +0.05)")


def test_criterion_10_reproducibility(tmp_path):
    """Every command rerun with identical config and seed produces
    byte-identical primary outputs (timing advisories excluded)."""
    cfg = {
        "seed": 11,
        "backbone": {"stages": [[2, 4], [2, 6]], "input_shape": [1, 6, 6],
                     "classes": 3, "sam": "se", "reduction": 2},
        "dataset": {"classes": 3, "per_class": 12, "noise": 0.3},
        "supernet": {"steps": 10, "batch_size": 4, "learning_rate": 0.02,
                     "weight_decay": 0.001, "lr_drop_step": None},
        "search": {"iterations": 6},
        "study": {"ratios": [0.25, 0.5], "samples_per_ratio": 4},
        "theory": {"d": 4, "epsilon": 1.0, "delta": 0.2, "trials": 150,
                   "probes": 10, "dof_convention": "corrected"},
    }
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(cfg))
    primary = ["supernet.ckpt", "trace.csv", "pbar.csv", "schemes.json",
               "ranking.csv", "study_rows.csv", "study_summary.json",
               "baseline_hsp.json", "baseline_ga.json", "baseline_l1.json",
               "thm1_report.json", "extend_report.json", "report_summary.json"]
    snap = {}
    for tag in ("first", "second"):
        out = tmp_path / tag
        argsets = [
            ["pretrain", "--config", config_path, "--output-dir", out],
            ["search", "--config", config_path, "--output-dir", out,
             "--checkpoint", out / "supernet.ckpt"],
            ["enumerate", "--config", config_path, "--output-dir", out],
            ["study", "--config", config_path, "--output-dir", out],
            ["baseline", "hsp", "--config", config_path, "--output-dir", out],
            ["baseline", "ga", "--config", config_path, "--output-dir", out],
            ["baseline", "l1", "--config", config_path, "--output-dir", out,
             "--checkpoint", out / "supernet.ckpt"],
            ["verify-thm1", "--config", config_path, "--output-dir", out],
            ["extend-demo", "--config", config_path, "--output-dir", out],
            ["report", "--rows", out / "study_rows.csv",
             "--out", out / "report_summary.json"],
        ]
        for argv in argsets:
            assert cli_main([str(a) for a in argv]) == 0
        snap[tag] = {name: (out / name).read_bytes() for name in primary}
    mismatched = [n for n in primary if snap["first"][n] != snap["second"][n]]
    report(10, "byte-identical reruns", not mismatched,
           f"{len(primary)} primary outputs compared"
           + (f"; mismatch: {mismatched}" if mismatched else ""))
