"""Traced runs of the attnsearch CLI, and the per-layer metrics drawn from them.

Child side (run as a script): import the package, wrap the public functions of
each module in spans, run one CLI command, and write the spans as JSON when the
command ends.

    python3 perfbench/tracer.py SPANS_OUT RUN_ID -- <attnsearch CLI arguments>

A span is [run_id, id, parent_id, name, start, end, attrs]; the span names are
the layer names the benchmark reports (`nncore.conv_fwd`, `supernet.evaluate`,
...). Wrappers are installed on every module that holds the wrapped object, so a
function imported by name elsewhere (`cli.pretrain_supernet`,
`search.evaluate_scheme`) is traced at each call site.

Parent side: `LayerTotals` reads the span files of one traced set and turns
them into the per-layer metrics. Operation counts and bytes moved for the
convolutions are computed from the recorded shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

CONV_SHAPES = ("stem", "c8", "c16", "c32", "down16", "down32")
BYTES = 8  # float64


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory; `stack` holds the spans still open."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[list] = []
        self._next_id = 0

    def open(self, name: str, attrs=None) -> list:
        parent = self.stack[-1][1] if self.stack else None
        rec = [self.run_id, self._next_id, parent, name, 0.0, 0.0, attrs]
        self._next_id += 1
        self.stack.append(rec)
        rec[4] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self.stack.pop()
        self.spans.append(rec)

    def wrap(self, name: str, fn, attrs=None, after=None):
        """`attrs(args, kwargs)` runs before the span opens; `after(rec, args,
        result)` runs after it closes, inside a `trace.probe` span so that the
        caller's self time does not include it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name, attrs(args, kwargs) if attrs else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                probe = tracer.open("trace.probe")
                try:
                    after(rec, args, result)
                finally:
                    tracer.close(probe)
            return result

        return wrapper

    def innermost(self, name: str):
        for rec in reversed(self.stack):
            if rec[3] == name:
                return rec
        return None


def _conv_fwd_attrs(args, kwargs):
    x, kernel, _bias, stride, pad = args
    return [list(x.shape), list(kernel.shape), stride, pad]


def _conv_bwd_attrs(args, kwargs):
    dout, xp, kernel, stride = args[:4]
    return [list(dout.shape), list(xp.shape), list(kernel.shape), stride]


def _file_bytes(rec, args, result):
    rec[6] = {"bytes": os.path.getsize(args[0])}


def _timing_bytes(rec, args, result):
    rec[6] = {"bytes": os.path.getsize(os.path.join(args[0], f"{args[1]}_timing.json"))}


def _scheme_attr(args, kwargs):
    return args[1].to_string()


def _trials_attr(args, kwargs):
    return {"trials": int(args[3] if len(args) > 3 else kwargs["trials"])}


def _targets(tracer: Tracer):
    """(module, attribute path, span name, attrs, after) for every wrapped call."""
    supernet = importlib.import_module("attnsearch.supernet")
    clip_sig = inspect.signature(supernet.SupernetState.train_step)
    clip_default = clip_sig.parameters["clip_norm"].default

    def train_step_attrs(args, kwargs):
        bound = clip_sig.bind(*args, **kwargs)
        return {"clip_norm": bound.arguments.get("clip_norm", clip_default), "clipped": 0}

    def pre_clip_norm(rec, args, result):
        # recomputes, read-only, the global norm train_step is about to clip
        step = tracer.innermost("supernet.train_step")
        if step is None or step[6]["clip_norm"] is None:
            return
        net, _x, _y, scheme = args[:4]
        total = sum(float((p.grad ** 2).sum()) for p in net.active_parameters(scheme)) ** 0.5
        step[6]["clipped"] = int(total > step[6]["clip_norm"])

    elementwise = [("nncore", f"{cls}.{m}", "nncore.elementwise", None, None)
                   for cls in ("ReLU", "Tanh", "Dense", "GlobalAvgPool")
                   for m in ("forward", "backward")]
    return elementwise + [
        ("nncore", "_conv_forward", "nncore.conv_fwd", _conv_fwd_attrs, None),
        ("nncore", "_conv_backward", "nncore.conv_bwd", _conv_bwd_attrs, None),
        ("nncore", "softmax_cross_entropy_batch", "nncore.elementwise", None, None),
        ("nncore", "sgd_momentum_step", "nncore.sgd", None, None),
        ("attention", "SEModule.forward", "attention.fwd", None, None),
        ("attention", "SGEModule.forward", "attention.fwd", None, None),
        ("attention", "SEModule.backward", "attention.bwd", None, None),
        ("attention", "SGEModule.backward", "attention.bwd", None, None),
        ("supernet", "SupernetState.train_step", "supernet.train_step", train_step_attrs, None),
        ("supernet", "SupernetState.loss_and_grads", "supernet.loss_and_grads", None, pre_clip_norm),
        ("supernet", "ResidualBlock.forward", "supernet.block_fwd", None, None),
        ("supernet", "evaluate_scheme", "supernet.evaluate", None, None),
        ("supernet", "pretrain_supernet", "supernet.pretrain", None, None),
        ("search", "SupernetEvaluator.__call__", "search.evaluator", _scheme_attr, None),
        *[("search", fn, "search.searcher", None, None)
          for fn in ("ean_search", "exhaustive_search", "random_ratio_study",
                     "hsp_scheme", "ga_search", "l1_prune_baseline")],
        ("controller", "controller_forward", "controller.sample", None, None),
        ("controller", "sample_and_score", "controller.sample", None, None),
        ("controller", "reinforce_update", "controller.step", None, None),
        ("controller", "ppo_update", "controller.ppo", None, None),
        ("rewards", "reward_bundle", "rewards.bundle", None, None),
        ("rewards", "rnd_train_step", "rewards.rnd_train", None, None),
        ("theory", "thm1_monte_carlo", "theory.mc", _trials_attr, None),
        ("theory", "thm1_width_bound", "theory.bound", None, None),
        ("theory", "Thm1Instance.draw", "theory.zeroing", None, None),
        ("theory", "min_row_zeroing_error", "theory.zeroing", None, None),
        *[("theory", fn, "theory.chain", None, None)
          for fn in ("ResNetChain.random", "ResNetChain.forward", "extend_network",
                     "embed_as_subnetwork")],
        ("checkpoint", "save_checkpoint", "checkpoint.save", None, _file_bytes),
        ("checkpoint", "load_checkpoint", "checkpoint.load", None, None),
        *[("data", fn, "data.build", None, None)
          for fn in ("make_blob_dataset", "make_digits_dataset", "split_train_val", "load_csv")],
        ("config", "ExperimentConfig.from_file", "config.load", None, None),
        ("stats", "aggregate_violin", "stats.aggregate", None, None),
        ("cli", "write_csv", "cli.write", None, _file_bytes),
        ("cli", "write_json", "cli.write", None, _file_bytes),
        ("cli", "_write_timing", "cli.write", None, _timing_bytes),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every target at every module attribute that refers to it."""
    modules = {}
    for module_name, path, span, attrs, after in _targets(tracer):
        module = modules.setdefault(module_name,
                                    importlib.import_module(f"attnsearch.{module_name}"))
        if "." in path:  # method or classmethod: patch the class once
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(span, raw.__func__, attrs, after)))
            else:
                setattr(cls, attr, tracer.wrap(span, raw, attrs, after))
            continue
        original = getattr(module, path)
        wrapped = tracer.wrap(span, original, attrs, after)
        for name, mod in list(sys.modules.items()):
            if name == "attnsearch" or name.startswith("attnsearch."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def _expected_conv_macs(argv) -> int | None:
    """Per-sample conv MACs of one evaluation by the library's own formula:
    base_flops minus its dense term. Call before `install`, so that reading
    the config leaves no span."""
    from attnsearch.config import ExperimentConfig
    from attnsearch.supernet import base_flops
    try:
        backbone = ExperimentConfig.from_file(argv[argv.index("--config") + 1]).backbone
    except (ValueError, IndexError, OSError):
        return None
    return base_flops(backbone) - backbone.classes * backbone.stage_channels[-1]


def child_main(argv) -> int:
    spans_out, run_id = argv[0], argv[1]
    cli_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    t0 = time.perf_counter()
    import attnsearch.cli
    import_s = time.perf_counter() - t0
    expected_macs = _expected_conv_macs(cli_args)
    tracer = Tracer(run_id)
    install(tracer)
    root = tracer.open("cli.main")
    try:
        rc = attnsearch.cli.main(cli_args)
    finally:
        tracer.close(root)
    body = {"run_id": run_id, "argv": cli_args, "rc": rc, "import_s": import_s,
            "conv_macs_per_sample": expected_macs,
            "spans": tracer.spans}
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(body, fh, separators=(",", ":"))
    return rc


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def conv_label(kernel_shape, stride: int) -> str:
    c_out, c_in = kernel_shape[0], kernel_shape[1]
    if stride > 1:
        return f"down{c_out}"
    return f"c{c_out}" if c_in == c_out else "stem"


def conv_fwd_cost(attrs) -> tuple[str, int, int]:
    """(shape label, MACs, bytes moved) of one forward conv, computed from shapes:
    input, kernel and output each cross memory once."""
    (n, c_in, h, w), kernel, stride, pad = attrs
    c_out, _, k, _ = kernel
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    out = n * c_out * h_out * w_out
    moved = BYTES * (n * c_in * h * w + c_out * c_in * k * k + out)
    return conv_label(kernel, stride), out * c_in * k * k, moved


def conv_bwd_cost(attrs) -> tuple[str, int, int]:
    """Backward: one MAC pass for the kernel gradient and one for the input
    gradient; reads dout, the padded input and the kernel, writes dk and dx."""
    dout, xp, kernel, stride = attrs
    c_out, c_in, k, _ = kernel
    n = dout[0]
    out = n * c_out * dout[2] * dout[3]
    kernel_size = c_out * c_in * k * k
    moved = BYTES * (out + 2 * n * c_in * xp[2] * xp[3] + 2 * kernel_size)
    return conv_label(kernel, stride), 2 * out * c_in * k * k, moved


class LayerTotals:
    """Per-layer sums over the span files of one traced set."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.conv_busy: dict[str, float] = {}
        self.macs = {"nncore.conv_fwd": 0, "nncore.conv_bwd": 0}
        self.moved = 0
        self.bytes: dict[str, int] = {}
        self.evaluations = 0
        self.block_fwd_in_eval = 0
        self.requested = 0
        self.distinct = 0
        self.ean_requested = 0  # the `search` command alone
        self.ean_distinct = 0
        self.clipped = 0
        self.trials = 0
        self.import_s: list[float] = []
        self.mac_mismatches: list[str] = []

    def add_file(self, path: str) -> None:
        with open(path, encoding="utf-8") as fh:
            body = json.load(fh)
        self.import_s.append(body["import_s"])
        spans = body["spans"]
        children: dict[int, list] = {}
        for s in spans:
            children.setdefault(s[2], []).append(s)
        schemes = set()
        for s in spans:
            _, sid, parent, name, t0, t1, attrs = s
            dur = t1 - t0
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - sum(
                c[5] - c[4] for c in children.get(sid, ()))
            self.busy[name] = self.busy.get(name, 0.0) + dur
            if name in ("nncore.conv_fwd", "nncore.conv_bwd"):
                cost = conv_fwd_cost if name == "nncore.conv_fwd" else conv_bwd_cost
                label, macs, moved = cost(attrs)
                key = f"{name}.{label}"
                self.conv_busy[key] = self.conv_busy.get(key, 0.0) + dur
                self.macs[name] += macs
                self.moved += moved
            elif name == "supernet.evaluate":
                self._check_evaluation(body, s, children)
            elif name == "search.evaluator":
                schemes.add(attrs)
            elif name == "supernet.train_step":
                self.clipped += attrs["clipped"]
            elif name == "theory.mc":
                self.trials += attrs["trials"]
            if name in ("checkpoint.save", "cli.write"):
                self.bytes[name] = self.bytes.get(name, 0) + attrs["bytes"]
        requested = sum(1 for s in spans if s[3] == "search.evaluator")
        self.requested += requested
        self.distinct += len(schemes)
        if body["argv"][:1] == ["search"]:
            self.ean_requested += requested
            self.ean_distinct += len(schemes)

    def _check_evaluation(self, body, span, children) -> None:
        self.evaluations += 1
        macs, batch, todo = 0, None, list(children.get(span[1], ()))
        while todo:
            s = todo.pop()
            todo.extend(children.get(s[1], ()))
            if s[3] == "supernet.block_fwd":
                self.block_fwd_in_eval += 1
            elif s[3] == "nncore.conv_fwd":
                macs += conv_fwd_cost(s[6])[1]
                batch = s[6][0][0]
        expected = body["conv_macs_per_sample"]
        if batch is None or expected is None or macs != expected * batch:
            self.mac_mismatches.append(
                f"{body['run_id']}: conv MACs {macs} over batch {batch}, "
                f"base_flops minus dense term gives {expected} per sample")

    def metrics(self, overhead_s: float) -> dict:
        def busy(name):
            return self.busy.get(name, 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for kind in ("conv_fwd", "conv_bwd"):
            name = f"nncore.{kind}"
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.busy_s"] = busy(name)
            for label in CONV_SHAPES:
                out[f"{name}.{label}.busy_s"] = self.conv_busy.get(f"{name}.{label}", 0.0)
            out[f"{name}.gmac_per_s"] = ratio(self.macs[name], busy(name)) / 1e9
        out["nncore.conv.mb_moved"] = self.moved / 1e6
        out["nncore.elementwise.busy_s"] = busy("nncore.elementwise")
        out["nncore.sgd.busy_s"] = busy("nncore.sgd")
        for kind in ("fwd", "bwd"):
            out[f"attention.{kind}.calls"] = self.calls.get(f"attention.{kind}", 0)
            out[f"attention.{kind}.busy_s"] = busy(f"attention.{kind}")
        steps = self.calls.get("supernet.train_step", 0)
        out["supernet.train_step.calls"] = steps
        out["supernet.train_step.self_s"] = self.self_s.get("supernet.train_step", 0.0)
        out["supernet.clip.fired"] = self.clipped
        out["supernet.clip.fire_ratio"] = ratio(self.clipped, steps)
        out["supernet.evaluate.calls"] = self.evaluations
        out["supernet.evaluate.busy_s"] = busy("supernet.evaluate")
        out["supernet.block_fwd_per_eval"] = ratio(self.block_fwd_in_eval, self.evaluations)
        out["search.evals_requested"] = self.requested
        out["search.evals_distinct"] = self.distinct
        out["search.distinct_ratio"] = ratio(self.distinct, self.requested)
        out["search.ean.distinct_ratio"] = ratio(self.ean_distinct, self.ean_requested)
        out["search.self_s"] = (self.self_s.get("search.searcher", 0.0)
                                + self.self_s.get("search.evaluator", 0.0))
        for name in ("controller.step", "controller.ppo", "rewards.rnd_train"):
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.busy_s"] = busy(name)
        out["controller.sample.busy_s"] = busy("controller.sample")
        out["rewards.bundle.busy_s"] = busy("rewards.bundle")
        out["theory.mc.trials"] = self.trials
        out["theory.mc.busy_s"] = busy("theory.mc")
        out["theory.mc.ms_per_trial"] = 1e3 * ratio(busy("theory.mc"), self.trials)
        for name in ("theory.bound", "theory.zeroing", "theory.chain", "checkpoint.save",
                     "checkpoint.load", "data.build", "config.load", "stats.aggregate",
                     "cli.write"):
            out[f"{name}.busy_s"] = busy(name)
        out["checkpoint.save.bytes"] = self.bytes.get("checkpoint.save", 0)
        out["cli.write.bytes"] = self.bytes.get("cli.write", 0)
        out["cli.import_s"] = sorted(self.import_s)[len(self.import_s) // 2] if self.import_s else 0.0
        out["trace.overhead_s"] = overhead_s
        return out

    def seen(self) -> set:
        return set(self.calls)


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
