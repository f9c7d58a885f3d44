"""Command-line entry point.

Subcommands: pretrain, search, enumerate, study, baseline {hsp|ga|l1},
verify-thm1, extend-demo, report. Every primary output file carries the
config digest; wall-clock figures go to separate *_timing.json advisory
files so primary outputs stay byte-identical across reruns.

Exit codes: 0 success, 1 validation failure, 2 acceptance-check failure
(verify subcommands).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, open_atomic, save_checkpoint
from .config import ExperimentConfig
from .search import (SupernetEvaluator, ean_search, exhaustive_search, ga_search,
                     hsp_scheme, l1_prune_baseline, random_ratio_study)
from .stats import aggregate_violin
from .supernet import (BackboneConfig, ConnectionScheme, count_params,
                       flop_increment_pct, pretrain_supernet)
from .theory import (ResNetChain, Thm1Instance, embed_as_subnetwork,
                     extend_network, min_row_zeroing_error, thm1_monte_carlo,
                     thm1_width_bound)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse reserves exit code 2; we need it for checks
        raise _UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, digest: str, columns, rows) -> None:
    with open_atomic(path) as fh:
        fh.write(f"# config_digest={digest}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path, required=()) -> tuple[str, list[dict]]:
    """(digest, rows as dicts), `required` columns read as numbers. A missing
    column, a wrong field count or a non-number is refused with its location."""
    digest = ""
    lines = []  # (line number, fields), the header first
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line.startswith("# config_digest="):
                digest = line.split("=", 1)[1]
            elif line:
                lines.append((line_no, line.split(",")))
    columns = lines[0][1] if lines else []
    for name in required:
        if name not in columns:
            raise ValueError(f"{path}: no {name!r} column")
    rows = []
    for line_no, fields in lines[1:]:
        try:
            if len(fields) != len(columns):
                raise ValueError(f"expected {len(columns)} fields, got {len(fields)}")
            row = dict(zip(columns, fields))
            row.update((name, float(row[name])) for name in required)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
        rows.append(row)
    return digest, rows


def write_json(path, digest: str, payload: dict) -> None:
    body = {"config_digest": digest}
    body.update(payload)
    with open_atomic(path) as fh:
        json.dump(body, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_timing(outdir, name: str, digest: str, elapsed: float, **counts) -> None:
    path = os.path.join(outdir, f"{name}_timing.json")
    with open_atomic(path) as fh:
        json.dump({"config_digest": digest, "elapsed_seconds": elapsed, **counts}, fh,
                  indent=2)
        fh.write("\n")


def _prepare(args) -> tuple[ExperimentConfig, str, str]:
    cfg = ExperimentConfig.from_file(args.config)
    return cfg, args.output_dir or cfg.output_dir, cfg.digest()


def _evaluator(cfg: ExperimentConfig, args):
    """Evaluation backend: deterministic synthetic landscape, or the
    weight-shared backbone proxy restored from a checkpoint."""
    if args.backend == "synthetic":
        return cfg.build_landscape()
    if not args.checkpoint:
        raise _UsageError("backend 'supernet' needs --checkpoint")
    return _supernet_evaluator(cfg, args.checkpoint)


def _supernet_evaluator(cfg: ExperimentConfig, checkpoint) -> SupernetEvaluator:
    """The backbone restored from `checkpoint`, scored on the validation split."""
    net = cfg.build_supernet()
    load_checkpoint(checkpoint, net, cfg.digest())
    _, val = cfg.build_dataset()
    return SupernetEvaluator(net, val)


def _cost_columns(backbone: BackboneConfig, scheme: ConnectionScheme) -> dict:
    """What `scheme` adds to the backbone: attention parameters and FLOP percent."""
    return {"extra_params": count_params(backbone, scheme)[1],
            "flop_increment_pct": flop_increment_pct(backbone, scheme)}


def _per_ratio(rows) -> dict:
    """Per-ratio (max, mean, min) accuracy summary, keyed by the ratio's text."""
    return {str(k): {"max": v[0], "mean": v[1], "min": v[2]}
            for k, v in aggregate_violin(rows).items()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_pretrain(args) -> int:
    cfg, outdir, digest = _prepare(args)
    train, _ = cfg.build_dataset()
    net = cfg.build_supernet()
    t0 = time.perf_counter()
    s = cfg.supernet
    pretrain_supernet(net, train, s.beta, s.steps, s.batch_size,
                      cfg.supernet_optimizer(), s.lr_drop_step, s.lr_drop_factor)
    out = args.out or os.path.join(outdir, "supernet.ckpt")
    save_checkpoint(out, net, digest)
    _write_timing(outdir, "pretrain", digest, time.perf_counter() - t0)
    print(f"checkpoint written: {out} ({s.steps} steps, beta={s.beta})")
    return 0


def cmd_search(args) -> int:
    cfg, outdir, digest = _prepare(args)
    evaluator = _supernet_evaluator(cfg, args.checkpoint)
    if not evaluator.pretrained:  # its scores would be close to chance
        raise _UsageError(f"{args.checkpoint}: the backbone was never pre-trained "
                          "(supernet.steps 0); search needs a pre-trained proxy")
    controller = cfg.build_controller()
    rnd_pair = cfg.build_rnd_pair()
    t0 = time.perf_counter()
    result = ean_search(evaluator, controller, cfg.rewards, cfg.search.iterations,
                        cfg.rng("controller-sample"), rnd_pair)
    write_csv(os.path.join(outdir, "trace.csv"), digest,
              ["iteration", "scheme", "sparse", "g_val", "g_rnd", "reward", "p_bar"],
              [(r.iteration, r.scheme, r.sparse, r.g_val, r.g_rnd, r.reward, r.p_bar)
               for r in result.trace])
    write_csv(os.path.join(outdir, "pbar.csv"), digest, ["iteration", "p_bar"],
              [(r.iteration, r.p_bar) for r in result.trace])
    write_json(os.path.join(outdir, "schemes.json"), digest, {
        "best": [{"scheme": s.to_string(), "reward": g, **_cost_columns(cfg.backbone, s)}
                 for s, g in result.best],
    })
    _write_timing(outdir, "search", digest, time.perf_counter() - t0,
                  iterations=len(result.trace),
                  distinct_schemes=len({r.scheme for r in result.trace}))
    best = result.best[0]
    print(f"best scheme {best[0].to_string()} reward {best[1]:.4f} "
          f"({len(result.trace)} iterations)")
    return 0


def cmd_enumerate(args) -> int:
    cfg, outdir, digest = _prepare(args)
    ranked = exhaustive_search(_evaluator(cfg, args), cfg.backbone.total_blocks)
    write_csv(os.path.join(outdir, "ranking.csv"), digest,
              ["rank", "scheme", "ones", "ratio", "score"],
              [(i, s.to_string(), s.ones_count, s.ratio, v)
               for i, (s, v) in enumerate(ranked)])
    print(f"enumerated {len(ranked)} schemes -> {outdir}/ranking.csv")
    return 0


def cmd_study(args) -> int:
    cfg, outdir, digest = _prepare(args)
    evaluator = _evaluator(cfg, args)
    t0 = time.perf_counter()
    rows = random_ratio_study(evaluator, cfg.backbone.total_blocks, cfg.study.ratios,
                              cfg.study.samples_per_ratio, cfg.rng("study"))
    for r in rows:
        r.update(_cost_columns(cfg.backbone, ConnectionScheme.from_string(r["scheme"])))
    columns = ["scheme", "ones", "ratio", "accuracy", "extra_params", "flop_increment_pct"]
    write_csv(os.path.join(outdir, "study_rows.csv"), digest, columns,
              [[r[c] for c in columns] for r in rows])
    write_json(os.path.join(outdir, "study_summary.json"), digest,
               {"per_ratio": _per_ratio(rows)})
    _write_timing(outdir, "study", digest, time.perf_counter() - t0)
    print(f"study rows: {len(rows)} -> {outdir}/study_rows.csv")
    return 0


def cmd_baseline(args) -> int:
    cfg, outdir, digest = _prepare(args)
    m = cfg.backbone.total_blocks
    payload: dict = {"method": args.method}
    if args.method == "hsp":
        scheme = hsp_scheme(args.period, args.offset, m)
        evaluator = _evaluator(cfg, args)
        payload.update(period=args.period, offset=args.offset,
                       scheme=scheme.to_string(), score=float(evaluator(scheme)))
    elif args.method == "ga":
        # the winner's score is read back from the scores the GA computed
        evaluator = functools.cache(_evaluator(cfg, args))
        generations = args.generations
        if generations is None:  # ga_search refuses a population below 4
            generations = max(1, cfg.search.iterations // max(args.population, 1))
        scheme, fit = ga_search(evaluator, m, args.population, generations,
                                cfg.rng("ga"), cfg.rewards)
        payload.update(population=args.population, generations=generations,
                       scheme=scheme.to_string(), fitness=fit,
                       score=float(evaluator(scheme)))
    else:  # l1
        if not args.checkpoint:
            raise _UsageError("baseline l1 needs --checkpoint")
        evaluator = _supernet_evaluator(cfg, args.checkpoint)
        scheme = l1_prune_baseline(evaluator.net, args.keep_ratio)
        payload.update(keep_ratio=args.keep_ratio, scheme=scheme.to_string(),
                       score=evaluator(scheme))
    write_json(os.path.join(outdir, f"baseline_{args.method}.json"), digest, payload)
    print(f"baseline {args.method}: scheme {payload['scheme']}")
    return 0


def cmd_verify_thm1(args) -> int:
    cfg, outdir, digest = _prepare(args)
    th = cfg.theory
    rng = cfg.rng("theory-mc")
    results = [thm1_monte_carlo(th.d, th.epsilon, th.delta, th.trials, rng, conv)
               for conv in th.conventions]
    inst_rng = cfg.rng("theory-instances")
    dominance_ok = True
    worst_gap = -np.inf
    for _ in range(th.probes):
        inst = Thm1Instance.draw(th.d, 32, 50, inst_rng)
        _, measured, bound = min_row_zeroing_error(inst)
        dominance_ok &= measured <= bound
        worst_gap = max(worst_gap, measured - bound)
    passed = all(r["passed"] for r in results) and dominance_ok
    write_json(os.path.join(outdir, "thm1_report.json"), digest, {
        "d": th.d, "epsilon": th.epsilon, "delta": th.delta, "trials": th.trials,
        "m_min_literal": thm1_width_bound(th.d, th.epsilon, th.delta, "literal"),
        "m_min_corrected": thm1_width_bound(th.d, th.epsilon, th.delta, "corrected"),
        "monte_carlo": results,
        "zeroing_dominance": {"instances": th.probes, "ok": bool(dominance_ok),
                              "worst_gap": float(worst_gap)},
        "passed": bool(passed),
    })
    for r in results:
        print(f"dof={r['dof_convention']}: m={r['m']} failure_rate={r['failure_rate']:.4f} "
              f"band={r['band']:.4f} {'PASS' if r['passed'] else 'FAIL'}")
    return 0 if passed else 2


def cmd_extend_demo(args) -> int:
    for flag in ("dim", "depth", "width", "probes"):
        if getattr(args, flag) < 1:
            raise _UsageError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    cfg, outdir, digest = _prepare(args)
    rng = cfg.rng("extend-demo")
    narrow = ResNetChain.random(args.dim, [args.width] * args.depth, rng)
    probes = rng.standard_normal((args.probes, args.dim))
    extended = extend_network(narrow, args.extra)
    ext_err = float(np.abs(extended.forward(probes) - narrow.forward(probes)).max())
    wide, masks = embed_as_subnetwork(narrow, args.wide_width, rng)
    emb_err = float(np.abs(wide.forward(probes, masks) - narrow.forward(probes)).max())
    unmasked_gap = float(np.abs(wide.forward(probes) - narrow.forward(probes)).max())
    passed = ext_err == 0.0 and emb_err <= 1e-12 and unmasked_gap > 1e-6
    write_json(os.path.join(outdir, "extend_report.json"), digest, {
        "dim": args.dim, "depth": args.depth, "extra_layers": args.extra,
        "wide_width": args.wide_width, "probes": args.probes,
        "extension_error": ext_err, "embedding_error": emb_err,
        "unmasked_gap": unmasked_gap,
        "extended_depth": extended.depth, "original_depth": narrow.depth,
        "passed": bool(passed),
    })
    print(f"extension error {ext_err:.2e}, embedding error {emb_err:.2e} "
          f"-> {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 2


def cmd_report(args) -> int:
    digest, rows = read_csv(args.rows, required=("ratio", "accuracy"))
    if not rows:
        raise ValueError(f"{args.rows}: no rows to report")
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
        if cfg.digest() != digest:
            raise _UsageError(
                f"rows file digest {digest[:12]}… does not match config "
                f"{cfg.digest()[:12]}…")
    out = args.out or os.path.join(os.path.dirname(args.rows) or ".",
                                   "report_summary.json")
    write_json(out, digest, {"per_ratio": _per_ratio(rows), "rows": len(rows)})
    print(f"report over {len(rows)} rows -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="attnsearch",
                     description="sparse attention-connection scheme search")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--output-dir", default=None,
                       help="override the config's output directory")

    p = sub.add_parser("pretrain", help="pre-train the weight-shared backbone")
    common(p)
    p.add_argument("--out", default=None, help="checkpoint path")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("search", help="policy-gradient scheme search")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("enumerate", help="evaluate every scheme exhaustively")
    common(p)
    p.add_argument("--backend", choices=["synthetic", "supernet"], default="synthetic")
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("study", help="fixed-ratio random sampling study")
    common(p)
    p.add_argument("--backend", choices=["synthetic", "supernet"], default="synthetic")
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("baseline", help="comparison searchers")
    p.add_argument("method", choices=["hsp", "ga", "l1"])
    common(p)
    p.add_argument("--backend", choices=["synthetic", "supernet"], default="synthetic")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--period", type=int, default=2, help="hsp: connect every N blocks")
    p.add_argument("--offset", type=int, default=0, help="hsp: first connected block")
    p.add_argument("--population", type=int, default=20, help="ga population size")
    p.add_argument("--generations", type=int, default=None,
                   help="ga generations (default: search iterations / population)")
    p.add_argument("--keep-ratio", type=float, default=0.5,
                   help="l1: fraction of connections kept")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("verify-thm1", help="Monte-Carlo check of the width bound")
    common(p)
    p.set_defaults(func=cmd_verify_thm1)

    p = sub.add_parser("extend-demo", help="function-preserving depth extension "
                                           "and subnetwork embedding check")
    common(p)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--width", type=int, default=3)
    p.add_argument("--extra", type=int, default=4)
    p.add_argument("--wide-width", type=int, default=8)
    p.add_argument("--probes", type=int, default=100)
    p.set_defaults(func=cmd_extend_demo)

    p = sub.add_parser("report", help="recompute per-ratio summary from study rows")
    p.add_argument("--rows", required=True, help="study_rows.csv path")
    p.add_argument("--config", default=None, help="verify the digest against this config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
