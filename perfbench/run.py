"""Benchmark of the attnsearch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
NAME is one of `pretrain`, `ground_truth`, `search`, `width_bound`, or `all` to
run the four in turn. The seed only enters the generated experiment config; the
program sees nothing but that config and the files it writes itself.

The load is a closed loop with one client: the workload's CLI commands run one
after another, each in a fresh interpreter, so at most one child process exists
at a time. Sets of commands repeat for about S seconds (at least one set).
Children get the BLAS thread variables set to 1.

`--trace 0` reports the end-to-end metrics, `--trace 1` runs one set untraced
and one set under `tracer.py` and reports the per-layer metrics. Metric names
and units come from BENCHMARK.json. Every command's exit code and primary
outputs are checked; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LayerTotals  # noqa: E402

WORKLOADS = ("pretrain", "ground_truth", "search", "width_bound")
SETUP_MIN_REPEATS, SETUP_MIN_S = 3, 2.0  # set-up repeats at least this often and this long
BUDGET_S = 170.0  # every child is killed once the run has used this much
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RATE_NAMES = {"pretrain": "train_steps_per_s", "ground_truth": "scheme_evals_per_s",
              "search": "scheme_evals_per_s", "width_bound": "mc_trials_per_s"}

# which commands of a set count towards work_units_per_s
WORK_COMMANDS = {"pretrain": ("pretrain",),
                 "ground_truth": ("enumerate", "study", "hsp", "l1"),
                 "search": ("search", "ga"),
                 "width_bound": ("verify-thm1",)}

# primary outputs; *_timing.json files are advisory and not compared
PRIMARY = {"pretrain": ("supernet.ckpt",), "enumerate": ("ranking.csv",),
           "study": ("study_rows.csv", "study_summary.json"), "hsp": ("baseline_hsp.json",),
           "l1": ("baseline_l1.json",), "search": ("trace.csv", "pbar.csv", "schemes.json"),
           "ga": ("baseline_ga.json",), "verify-thm1": ("thm1_report.json",),
           "extend-demo": ("extend_report.json",)}


def make_config(seed: int) -> dict:
    """The README's reference experiment, at run lengths sized for the benchmark."""
    return {
        "seed": seed,
        "output_dir": "out",
        "backbone": {"stages": [[3, 8], [3, 16], [2, 32]], "input_shape": [1, 8, 8],
                     "classes": 6, "sam": "se", "sharing": "per-block"},
        "dataset": {"classes": 6, "per_class": 80, "noise": 0.35},
        "supernet": {"beta": 0.5, "steps": 100, "batch_size": 16},
        "rewards": {"lambda_rnd": 0.1},
        "search": {"iterations": 300},
        "study": {"ratios": [0.25, 0.5, 0.75], "samples_per_ratio": 20},
        "theory": {"d": 8, "epsilon": 0.5, "delta": 0.1, "trials": 100, "probes": 100,
                   "dof_convention": "corrected"},
    }


def commands(workload: str, cfg_path: str, out: str, ckpt: str) -> list:
    """(label, CLI arguments) of one set."""
    c = ["--config", cfg_path, "--output-dir", out]
    net = ["--backend", "supernet", "--checkpoint", ckpt]
    return {
        "pretrain": [("pretrain", ["pretrain", *c, "--out", os.path.join(out, "supernet.ckpt")])],
        "ground_truth": [("enumerate", ["enumerate", *c, *net]), ("study", ["study", *c, *net]),
                         ("hsp", ["baseline", "hsp", *c, *net]),
                         ("l1", ["baseline", "l1", *c, "--checkpoint", ckpt])],
        "search": [("search", ["search", *c, "--checkpoint", ckpt]),
                   ("ga", ["baseline", "ga", *c, *net])],
        "width_bound": [("verify-thm1", ["verify-thm1", *c]), ("extend-demo", ["extend-demo", *c])],
    }[workload]


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

class Runner:
    """Starts children one at a time and keeps the tally of commands."""

    def __init__(self, root: str, work: str) -> None:
        self.root = root
        self.work = work
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **THREADS)
        self.attempted = 0
        self.problems: list[str] = []
        self.failed_commands = 0

    def run(self, argv: list) -> tuple[int, float, float, str]:
        """(exit code, wall seconds, max RSS in MB, captured output) of one child."""
        self.attempted += 1
        log = os.path.join(self.work, f"child{self.attempted}.log")
        remaining = BUDGET_S - (time.perf_counter() - self.started)
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(remaining, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log, encoding="utf-8", errors="replace") as fh:
            output = fh.read()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, output

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def command_failed(self, message: str) -> None:
        self.failed_commands += 1
        self.fail(message)


def cli(args: list) -> list:
    return ["-m", "attnsearch", *args]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _csv(path: str) -> tuple[str, list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    digest = lines[0].split("=", 1)[1] if lines and lines[0].startswith("# config_digest=") else ""
    return digest, [line.split(",") for line in lines[2:] if line]


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _scheme_ok(text: str, m: int) -> bool:
    return len(text) == m and set(text) <= {"0", "1"}


def check_outputs(label: str, out: str, cfg: dict, digest: str) -> tuple[int, list]:
    """(work units the command delivered, problems) for one finished command."""
    m = sum(b for b, _ in cfg["backbone"]["stages"])
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{label}: {what}")

    def expect_digest(found: str, name: str) -> None:
        expect(found == digest, f"{name} carries digest {found[:12]}, config has {digest[:12]}")

    try:
        if label == "pretrain":
            path = os.path.join(out, "supernet.ckpt")
            found, steps = checkpoint_header(path)
            expect_digest(found, "supernet.ckpt")
            expect(steps == cfg["supernet"]["steps"], f"checkpoint records {steps} steps")
            return steps, problems
        if label == "enumerate":
            found, rows = _csv(os.path.join(out, "ranking.csv"))
            expect_digest(found, "ranking.csv")
            schemes = {r[1] for r in rows}
            expect(len(rows) == 2 ** m and len(schemes) == 2 ** m,
                   f"ranking.csv holds {len(rows)} rows, {len(schemes)} distinct schemes")
            expect(all(_scheme_ok(r[1], m) and 0.0 <= float(r[4]) <= 1.0 for r in rows),
                   "ranking.csv has a malformed scheme or a score outside [0,1]")
            return len(rows), problems
        if label == "study":
            found, rows = _csv(os.path.join(out, "study_rows.csv"))
            expect_digest(found, "study_rows.csv")
            want = len(cfg["study"]["ratios"]) * cfg["study"]["samples_per_ratio"]
            expect(len(rows) == want, f"study_rows.csv holds {len(rows)} rows, expected {want}")
            expect(all(_scheme_ok(r[0], m) and 0.0 <= float(r[3]) <= 1.0 for r in rows),
                   "study_rows.csv has a malformed scheme or an accuracy outside [0,1]")
            expect_digest(_json(os.path.join(out, "study_summary.json"))["config_digest"],
                          "study_summary.json")
            return len(rows), problems
        if label in ("hsp", "l1", "ga"):
            body = _json(os.path.join(out, f"baseline_{label}.json"))
            expect_digest(body["config_digest"], f"baseline_{label}.json")
            expect(_scheme_ok(body["scheme"], m) and 0.0 <= body["score"] <= 1.0,
                   f"baseline_{label}.json scheme {body['scheme']} score {body['score']}")
            if label != "ga":
                return 1, problems
            # fitness values the GA reads, its own cache hits included, plus the final score
            return body["population"] * (body["generations"] + 1) + 1, problems
        if label == "search":
            found, rows = _csv(os.path.join(out, "trace.csv"))
            expect_digest(found, "trace.csv")
            iterations = cfg["search"]["iterations"]
            expect([int(r[0]) for r in rows] == list(range(iterations)),
                   f"trace.csv holds {len(rows)} rows, expected iterations 0..{iterations - 1}")
            expect(all(_scheme_ok(r[1], m) for r in rows), "trace.csv has a malformed scheme")
            expect_digest(_csv(os.path.join(out, "pbar.csv"))[0], "pbar.csv")
            expect_digest(_json(os.path.join(out, "schemes.json"))["config_digest"], "schemes.json")
            return len(rows), problems
        if label == "verify-thm1":
            body = _json(os.path.join(out, "thm1_report.json"))
            expect_digest(body["config_digest"], "thm1_report.json")
            expect(body["passed"] is True, "thm1_report.json has passed != true")
            expect(body["trials"] == cfg["theory"]["trials"], f"{body['trials']} trials")
            return sum(r["trials"] for r in body["monte_carlo"]), problems
        body = _json(os.path.join(out, "extend_report.json"))
        expect_digest(body["config_digest"], "extend_report.json")
        expect(body["passed"] is True, "extend_report.json has passed != true")
        return 0, problems
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return 0, problems + [f"{label}: unreadable output ({exc!r})"]


def checkpoint_header(path: str) -> tuple[str, int]:
    """(config digest, step count) from a checkpoint header."""
    with open(path, "rb") as fh:
        if fh.read(8) != b"ATSNCHK1":
            raise ValueError("not a checkpoint file")
        fh.read(4)
        (dlen,) = struct.unpack("<H", fh.read(2))
        digest = fh.read(dlen).decode("ascii")
        (steps,) = struct.unpack("<Q", fh.read(8))
    return digest, steps


def fingerprint(label: str, out: str) -> dict:
    digests = {}
    for name in PRIMARY[label]:
        path = os.path.join(out, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


# ---------------------------------------------------------------------------
# set-up and timed sets
# ---------------------------------------------------------------------------

def setup(runner: Runner, workload: str, cfg: dict, repeats: int, min_s: float = 0.0
          ) -> tuple[list, str, dict]:
    """Write the config and build the inputs, at least `repeats` times and for
    at least `min_s` seconds.

    Returns (seconds per repeat, config path, probe report). Each repeat runs
    the probe (config load, dataset build, environment) and, for the workloads
    that score schemes, pretrains the checkpoint they read.
    """
    times, first_ckpt, probe = [], None, {}
    rep = 0
    while rep < repeats or sum(times) < min_s:
        rep_dir = os.path.join(runner.work, f"setup{rep}")
        t0 = time.perf_counter()
        os.makedirs(rep_dir)
        cfg_path = os.path.join(rep_dir, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
        rc, wall, _, output = runner.run([os.path.join(HERE, "probe.py"), cfg_path])
        elapsed = time.perf_counter() - t0
        if rc != 0:
            runner.command_failed(f"set-up probe exited {rc}: {output.strip()[-300:]}")
            return times, cfg_path, probe
        probe = json.loads(output.strip().splitlines()[-1])
        if workload in ("ground_truth", "search"):
            ckpt = os.path.join(rep_dir, "supernet.ckpt")
            t1 = time.perf_counter()
            rc, _, _, output = runner.run(cli(["pretrain", "--config", cfg_path,
                                               "--output-dir", rep_dir, "--out", ckpt]))
            elapsed += time.perf_counter() - t1
            _, problems = check_outputs("pretrain", rep_dir, cfg, probe["config_digest"])
            if rc != 0 or problems:
                runner.command_failed(f"set-up pretrain exited {rc}: {problems or output[-300:]}")
                return times, cfg_path, probe
            if first_ckpt is None:
                first_ckpt = ckpt
            elif fingerprint("pretrain", rep_dir) != fingerprint(
                    "pretrain", os.path.dirname(first_ckpt)):
                runner.command_failed(f"set-up checkpoint {rep} differs from the first")
        times.append(elapsed)
        rep += 1
    probe["checkpoint"] = first_ckpt
    return times, os.path.join(runner.work, "setup0", "config.json"), probe


def run_set(runner: Runner, workload: str, cfg: dict, cfg_path: str, probe: dict,
            name: str, traced: bool, reference: dict) -> dict | None:
    """Run one set; returns walls, units, RSS and span files, or None on failure."""
    out = os.path.join(runner.work, name)
    os.makedirs(out)
    digest = probe["config_digest"]
    result = {"wall": 0.0, "work_wall": 0.0, "units": 0, "rss": 0.0, "spans": []}
    ok = True
    for i, (label, args) in enumerate(commands(workload, cfg_path, out, probe["checkpoint"])):
        if traced:
            spans = os.path.join(out, f"spans{i}.json")
            argv = [os.path.join(HERE, "tracer.py"), spans, f"{name}.{label}", "--", *args]
            result["spans"].append(spans)
        else:
            argv = cli(args)
        rc, wall, rss, output = runner.run(argv)
        result["wall"] += wall
        result["rss"] = max(result["rss"], rss)
        if rc != 0:
            runner.command_failed(f"{name} {label} exited {rc}: {output.strip()[-300:]}")
            ok = False
            continue
        units, problems = check_outputs(label, out, cfg, digest)
        prints = fingerprint(label, out)
        if reference.setdefault(label, prints) != prints:
            problems.append(f"{label}: primary outputs differ from the first set's")
        if problems:
            runner.command_failed(f"{name}: " + "; ".join(problems))
            ok = False
        if label in WORK_COMMANDS[workload]:
            result["units"] += units
            result["work_wall"] += wall
    return result if ok else None


def loop_sets(runner: Runner, workload: str, cfg: dict, cfg_path: str, probe: dict,
              seconds: float, reference: dict) -> list:
    """Repeat sets for about `seconds`. Another set starts only if, judged by
    the median set so far, it ends nearer the deadline than stopping now."""
    sets, t0 = [], time.perf_counter()
    while not sets or (time.perf_counter() - t0
                       + statistics.median(s["wall"] for s in sets) / 2 < seconds):
        done = run_set(runner, workload, cfg, cfg_path, probe, f"set{len(sets)}", False, reference)
        if done is None:
            break
        sets.append(done)
    return sets


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def summary(values: list) -> dict:
    values = sorted(values)
    med = statistics.median(values)
    if len(values) > 1:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = med
    return {"median": med, "p25": p25, "p75": p75, "n": len(values)}


def end_to_end(runner, workload, cfg, seconds) -> tuple[dict, dict]:
    """(metric summaries, probe report) of an untraced run."""
    setup_times, cfg_path, probe = setup(runner, workload, cfg, SETUP_MIN_REPEATS, SETUP_MIN_S)
    if runner.problems:
        return {}, probe
    reference: dict = {}
    sets = loop_sets(runner, workload, cfg, cfg_path, probe, seconds, reference)
    if workload == "pretrain" and sets:
        rc, _, _, output = runner.run([os.path.join(HERE, "probe.py"), cfg_path,
                                       os.path.join(runner.work, "set0", "supernet.ckpt")])
        if rc != 0:
            runner.command_failed(f"the pretrained checkpoint does not load: {output[-300:]}")
    if not sets:
        return {}, probe
    stats = {
        "setup_s": summary(setup_times),
        "wall_s": summary([s["wall"] for s in sets]),
        "work_units_per_s": summary([s["units"] / s["work_wall"] for s in sets]),
        "peak_rss_mb": summary([max(s["rss"] for s in sets)]),
    }
    return stats, probe


def per_layer(runner, workload, cfg, spec) -> tuple[dict, dict]:
    """(per-layer values, probe report) of a traced run: one untraced set, then
    one traced set whose primary outputs must match it byte for byte."""
    _, cfg_path, probe = setup(runner, workload, cfg, 1)
    if runner.problems:
        return {}, probe
    reference: dict = {}
    plain = run_set(runner, workload, cfg, cfg_path, probe, "plain", False, reference)
    traced = run_set(runner, workload, cfg, cfg_path, probe, "traced", True, reference)
    if plain is None or traced is None:
        return {}, probe
    totals = LayerTotals()
    for path in traced["spans"]:
        totals.add_file(path)
    for problem in totals.mac_mismatches[:3]:
        runner.fail(problem)
    missing = sorted(set(spec["spans"]) - totals.seen())
    if missing:
        runner.fail(f"spans expected on {workload} never fired: {missing}")
    if workload == "ground_truth" and totals.evaluations != traced["units"]:
        runner.fail(f"{totals.evaluations} traced evaluations, {traced['units']} scores counted")
    return totals.metrics(traced["wall"] - plain["wall"]), probe


def check_package(root: str, probe: dict) -> str | None:
    want = os.path.join(root, "src", "attnsearch")
    if probe and os.path.realpath(probe.get("package", "")) != os.path.realpath(want):
        return f"attnsearch was imported from {probe.get('package')}, not {want}"
    return None


def run_workload(root, workload, seed, seconds, trace, declared) -> dict:
    work = os.path.join(root, ".perfbench", f"{workload}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, work)
    cfg = make_config(seed)
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        spec = json.load(fh)[workload]
    if trace:
        values, probe = per_layer(runner, workload, cfg, spec)
        stats = {k: summary([v]) for k, v in values.items()}
    else:
        stats, probe = end_to_end(runner, workload, cfg, seconds)
    wrong_package = check_package(root, probe)
    if wrong_package:
        runner.fail(wrong_package)
    names = declared["per_layer" if trace else "end_to_end"]
    if stats and set(stats) != set(names):
        runner.fail(f"computed metrics {sorted(set(stats) ^ set(names))} "
                    "do not match BENCHMARK.json")
    correct = not runner.problems and bool(stats)
    if correct:
        shutil.rmtree(work)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run's files are still there
            pass
    return {"workload": workload, "env": probe.get("env", {}), "stats": stats, "units": names,
            "correct": correct, "attempted": runner.attempted,
            "failed": runner.failed_commands, "problems": runner.problems}


def print_report(res: dict, seed: int, trace: int) -> None:
    w = res["workload"]
    print(f"== {w} seed={seed} trace={trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"{'metric':34s} {'median':>14s} {'p25':>14s} {'p75':>14s} {'n':>3s}  unit")
    for name, unit in res["units"].items():
        if name not in res["stats"]:
            continue
        s = res["stats"][name]
        shown = RATE_NAMES[w] if name == "work_units_per_s" else name
        note = " (computed)" if name.endswith(("gmac_per_s", "mb_moved")) else ""
        print(f"{shown:34s} {s['median']:14.6g} {s['p25']:14.6g} {s['p75']:14.6g} "
              f"{s['n']:3d}  {unit}{note}")
    rate = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"{'error_rate':34s} {rate:14.6g} {'':14s} {'':14s} {res['attempted']:3d}  "
          f"ratio ({res['failed']} of {res['attempted']} commands)")
    for problem in res["problems"]:
        print(f"FAILED: {problem}")


def load_declared(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "attnsearch", "cli.py")):
        print(f"perfbench: no attnsearch sources under {root}/src; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    declared = load_declared(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        res = run_workload(root, workload, args.seed, args.seconds, args.trace, declared)
        print_report(res, args.seed, args.trace)
        results.append(res)
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}/{name}" if prefix else name):
               {"value": r["stats"][name]["median"], "unit": unit}
               for r in results for name, unit in r["units"].items() if name in r["stats"]}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
