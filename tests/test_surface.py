"""The library's public surface is what the program runs: every public
top-level function and class in `src/attnsearch/` has a use in the package,
the demos or the benchmark, and every value a public class stores has a
reader there. A symbol only the tests need belongs in the tests (see
`oracles.py`)."""

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


def program_trees():
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            yield ast.parse(path.read_text(encoding="utf-8"))


def referenced_identifiers():
    names = set()
    for tree in program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def stored_attributes():
    """`Class.attr` for every dataclass field and public `self.attr` assignment
    of each public class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        yield cls.name, node.target.id
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"
                        and not node.attr.startswith("_")):
                    yield cls.name, node.attr


def attributes_read():
    return {node.attr for tree in program_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


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


def test_every_stored_value_has_a_reader():
    # Matched by name alone: a field is taken as read when any attribute of
    # that name is read anywhere in the program, so a field sharing its name
    # with a read one (an unread `m` or `scheme`) passes unseen.
    read = attributes_read()
    unread = sorted({f"{cls}.{attr}" for cls, attr in stored_attributes()
                     if attr not in read})
    assert unread == []
