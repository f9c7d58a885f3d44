"""The library's public surface is what the program runs: every public
top-level function and class in `src/attnsearch/` has a use in the package,
the demos or the benchmark, and every value a public class stores has a
reader there. A symbol only the tests need belongs in the tests (see
`oracles.py`). Every module-level import in `src/` and `demos/` is used."""

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
}


def public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def program_files(folders=("src", "demos", "perfbench")):
    for folder in folders:
        yield from sorted((ROOT / folder).rglob("*.py"))


def program_trees():
    for path in program_files():
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


def is_read(node, through_self):
    return (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and (isinstance(node.value, ast.Name) and node.value.id == "self") == through_self)


def attributes_read():
    """(names read through anything but `self` anywhere in the program,
    {package class: names read through `self` in it or in a class derived
    from it})."""
    anywhere = {node.attr for tree in program_trees() for node in ast.walk(tree)
                if is_read(node, through_self=False)}
    classes = {cls.name: cls for path in sorted(PACKAGE.glob("*.py"))
               for cls in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(cls, ast.ClassDef)}

    def lineage(name):
        yield name
        for base in classes[name].bases:
            if isinstance(base, ast.Name) and base.id in classes:
                yield from lineage(base.id)

    through_self = {name: set() for name in classes}
    for name, cls in classes.items():
        read = {node.attr for node in ast.walk(cls) if is_read(node, through_self=True)}
        for owner in lineage(name):
            through_self[owner] |= read
    return anywhere, through_self


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
    # A read through `self` counts for its own class and that class's bases
    # in the package. Any other read is matched by name alone: `net.groups`
    # counts for every class that stores a `groups`, so a field sharing its
    # name with one read through another object (an unread `m` or `scheme`)
    # passes unseen.
    anywhere, through_self = attributes_read()
    unread = sorted({f"{cls}.{attr}" for cls, attr in stored_attributes()
                     if attr not in anywhere and attr not in through_self[cls]})
    assert unread == []


def unused_imports(tree):
    """Names bound by the module-level imports of `tree` that it never uses."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_every_import_is_used():
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in program_files(("src", "demos"))
              for line, name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert unused == []
