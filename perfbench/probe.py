"""Set-up probe for the benchmark.

Loads a generated experiment config, builds its dataset, optionally loads a
checkpoint into a fresh supernet, and prints one JSON object with the config
digest, the path the package was imported from and the environment (Python,
numpy, the BLAS numpy was built against, usable cores, CPU model and the BLAS
thread variables this process received).

    python3 perfbench/probe.py CONFIG [CHECKPOINT]

Exit code 1 when the config, dataset or checkpoint does not load.
"""

from __future__ import annotations

import json
import os
import platform
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas(numpy) -> str:
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"
    return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(numpy) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "threads": {k: os.environ.get(k, "") for k in THREAD_VARS},
    }


def main(argv) -> int:
    import numpy

    import attnsearch
    from attnsearch.checkpoint import CheckpointError, load_checkpoint
    from attnsearch.config import ExperimentConfig

    try:
        cfg = ExperimentConfig.from_file(argv[0])
        train, val = cfg.build_dataset()
        out = {"config_digest": cfg.digest(), "train": len(train), "val": len(val)}
        if len(argv) > 1:
            net = cfg.build_supernet()
            load_checkpoint(argv[1], net, cfg.digest())
            out["checkpoint_steps"] = net.step_count
    except (OSError, ValueError, CheckpointError) as exc:
        print(f"probe: {exc}", file=sys.stderr)
        return 1
    out["package"] = os.path.dirname(os.path.abspath(attnsearch.__file__))
    out["env"] = environment(numpy)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
