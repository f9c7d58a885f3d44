"""The traced benchmark run wraps library functions by module path; every path
it names must still resolve, so a rename fails here rather than mid-benchmark.
The tracer's `install` is not called: it patches modules for the whole process."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_wrapped_path_resolves():
    tracer = load_tracer()
    targets = tracer._targets(tracer.Tracer("t"))
    assert targets
    for module_name, path, *_ in targets:
        module = importlib.import_module(f"attnsearch.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            raw = vars(getattr(module, cls_name)).get(attr)
            ok = inspect.isfunction(raw) or isinstance(raw, classmethod)
        else:
            ok = inspect.isfunction(getattr(module, path, None))
        assert ok, f"attnsearch.{module_name}.{path} is not a function or method"


def test_supernet_attributes_the_tracer_reads_resolve():
    """Read directly, not wrapped: `pre_clip_norm` calls
    `SupernetState.active_parameters`, and `_targets` takes `train_step`'s
    `clip_norm` default from its signature."""
    from attnsearch.supernet import SupernetState
    assert inspect.isfunction(vars(SupernetState).get("active_parameters"))
    clip = inspect.signature(SupernetState.train_step).parameters.get("clip_norm")
    assert clip is not None and clip.default is not inspect.Parameter.empty
