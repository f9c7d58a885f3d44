"""Statistics over scheme sets: per-block connection frequency, its
least-squares trend, Pearson correlation, and ratio-grouped order
statistics for violin-style study reports."""

from __future__ import annotations

import math

import numpy as np


def connection_score(schemes) -> np.ndarray:
    """Per-block connection frequency across the set, in [0,1]^m."""
    schemes = list(schemes)
    if not schemes:
        raise ValueError("scheme set must be nonempty")
    lengths = {len(s) for s in schemes}
    if len(lengths) != 1:
        raise ValueError(f"mixed scheme lengths {sorted(lengths)}")
    return np.mean([s.bits for s in schemes], axis=0)


def regression_slope(scores) -> float:
    """Ordinary least-squares slope of score against block index."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size < 2:
        raise ValueError("need at least two scores")
    idx = np.arange(scores.size, dtype=np.float64)
    idx_c = idx - idx.mean()
    return float((idx_c @ (scores - scores.mean())) / (idx_c @ idx_c))


def pearson(x, y) -> float:
    """Sample Pearson correlation; rejects degenerate inputs."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 3:
        raise ValueError("need two equal-length vectors of at least 3 entries")
    xc, yc = x - x.mean(), y - y.mean()
    vx, vy = float(xc @ xc), float(yc @ yc)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("zero variance in at least one argument")
    return float((xc @ yc) / math.sqrt(vx * vy))


def pearson_pvalue_one_sided(r: float, n: int) -> float:
    """One-sided p for r > 0 via the Fisher z approximation."""
    if n < 4:
        raise ValueError("need at least 4 samples")
    r = min(max(r, -0.999999999999), 0.999999999999)
    z = math.atanh(r) * math.sqrt(n - 3)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def aggregate_violin(rows) -> dict:
    """Per-ratio (max, mean, min) over rows carrying `ratio` and `accuracy`."""
    groups: dict[float, list[float]] = {}
    for row in rows:
        groups.setdefault(float(row["ratio"]), []).append(float(row["accuracy"]))
    out = {}
    for ratio in sorted(groups):
        arr = np.asarray(groups[ratio])
        out[ratio] = (float(arr.max()), float(arr.mean()), float(arr.min()))
    return out
