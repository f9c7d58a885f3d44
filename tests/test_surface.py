"""The library's public surface is what the program runs: every public
top-level function and class in `src/attnsearch/` has a use in the package,
the demos or the benchmark. A symbol only the tests need belongs in the
tests (see `oracles.py`)."""

import ast
from pathlib import Path

from test_benchmark_hooks import load_perfbench

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "attnsearch"

# kept without a caller, each for its reason
ALLOWED = {
    # the documented single-sample contract surface
    "nncore.conv2d", "nncore.dense", "nncore.global_avg_pool",
    "nncore.softmax_cross_entropy",
    # the reference gradient checker
    "nncore.grad_check",
    # the acceptance gate's statistics
    "stats.pearson", "stats.pearson_pvalue_one_sided",
    # the measured inference-time increment, which run telemetry is to report
    "supernet.inference_time_increment",
}


def public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def referenced_identifiers():
    names = set()
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_symbol_has_a_use_outside_the_tests():
    tracer = load_perfbench("tracer")
    traced = {f"{module}.{path.split('.')[0]}"
              for module, path, *_ in tracer._targets(tracer.Tracer("t"))}
    used = referenced_identifiers()
    unused = sorted(qualified for qualified, name in public_definitions()
                    if name not in used and qualified not in traced | ALLOWED)
    assert unused == []


def test_every_allowed_symbol_still_exists():
    assert ALLOWED <= {qualified for qualified, _ in public_definitions()}
