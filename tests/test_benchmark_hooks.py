"""The traced benchmark run wraps library functions by module path, and the
benchmark reads checkpoint headers itself; every path it names must still
resolve and every header it reads must still parse, so a rename or a format
change fails here rather than mid-benchmark. The tracer's `install` is not
called: it patches modules for the whole process."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(stem):
    """perfbench/<stem>.py as a module; `run.py` puts perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}",
                                                  PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True  # leave perfbench/ as is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    return module


def test_every_wrapped_path_resolves():
    tracer = load_perfbench("tracer")
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


def test_checkpoint_header_reads_what_save_checkpoint_writes(tmp_path):
    from attnsearch.checkpoint import save_checkpoint
    from attnsearch.supernet import BackboneConfig, SupernetState
    net = SupernetState(BackboneConfig(stages=((1, 2),), input_shape=(1, 3, 3), classes=2,
                                       reduction=2), 0)
    net.step_count = 2 ** 40 + 3
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net, "ab" * 32)
    path_before = list(sys.path)
    header = load_perfbench("run").checkpoint_header(str(path))
    assert sys.path == path_before
    assert header == ("ab" * 32, 2 ** 40 + 3)


def test_conv_arguments_the_tracer_unpacks(monkeypatch):
    """The tracer reads the conv kernels' arguments by position; those of one
    real `Conv2d` forward and backward must cost that conv's MACs."""
    from attnsearch import nncore
    tracer = load_perfbench("tracer")
    seen = {}
    for name in ("_conv_forward", "_conv_backward"):
        def spy(*args, _name=name, _kernel=getattr(nncore, name), **kwargs):
            seen[_name] = args, kwargs
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(nncore, name, spy)
    rng = np.random.default_rng(0)
    conv = nncore.Conv2d(3, 5, 3, 2, 1, rng)
    y = conv.forward(rng.standard_normal((2, 3, 7, 6)), train=True)
    conv.backward(rng.standard_normal(y.shape))
    macs = 2 * 5 * 4 * 3 * 3 * 3 * 3  # n c_out h_out w_out c_in k k
    _, fwd_macs, _ = tracer.conv_fwd_cost(tracer._conv_fwd_attrs(*seen["_conv_forward"]))
    _, bwd_macs, _ = tracer.conv_bwd_cost(tracer._conv_bwd_attrs(*seen["_conv_backward"]))
    assert (fwd_macs, bwd_macs) == (macs, 2 * macs)
