"""Numerical verifiers for the width-bound and subnetwork-embedding results.

Covers the chi-square tail (via a self-contained regularized incomplete
gamma), the hidden-width bound for row-zeroing approximation, Monte-Carlo
checking of its failure probability, and two exact function-preserving
constructions on residual chains: depth extension with zero layers and
embedding a narrow chain inside a wider one behind a unit mask.

The row-norm distribution is exposed under two degree-of-freedom
conventions ("literal" d-1 and "corrected" d); callers choose, reports can
carry both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MAX_ITER = 500
_EPS = 1e-15
_FPMIN = 1e-300


def _gamma_p_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma by series; good for x < a+1."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a: float, x: float) -> float:
    """Regularized upper incomplete gamma by continued fraction; x >= a+1."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gammainc_upper_regularized(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x)/Gamma(a) to ~1e-12 relative; series for small x,
    continued fraction for large."""
    if a <= 0:
        raise ValueError("shape parameter must be positive")
    if x < 0:
        raise ValueError("argument must be nonnegative")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def chi_square_tail(dof: int, threshold: float) -> float:
    """P{chi^2(dof) >= threshold^2}."""
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return gammainc_upper_regularized(dof / 2.0, threshold * threshold / 2.0)


def thm1_width_bound(d: int, epsilon: float, delta: float,
                     dof_convention: str) -> int:
    """Smallest hidden width m with m > ln(delta)/ln(tail probability).

    `dof_convention` picks the chi-square degrees of freedom for a row's
    squared norm: "literal" uses d-1, "corrected" uses d (a row of d
    independent Gaussians). The two bounds differ substantially for small
    thresholds; see thm1_monte_carlo for which one the sampled failure
    rate actually respects.
    """
    if d < 2:
        raise ValueError("input dimension must be >= 2")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    dof = {"literal": d - 1, "corrected": d}[dof_convention]
    tail = chi_square_tail(dof, epsilon)
    if tail == 0.0:
        return 1
    if tail >= 1.0 or math.log(tail) == 0.0:
        raise ValueError("tail probability is 1; the width bound is unbounded")
    ratio = math.log(delta) / math.log(tail)
    return int(math.floor(ratio)) + 1


@dataclass
class Thm1Instance:
    """One-hidden-layer net sample: rows of w1 ~ N(0, 1/m), w2 entries +-1."""

    w1: np.ndarray  # [m, d]
    w2: np.ndarray  # [m] of +-1
    probes: np.ndarray  # [n, d], each with norm <= 1

    @classmethod
    def draw(cls, d: int, m: int, n_probes: int,
             rng: np.random.Generator) -> "Thm1Instance":
        w1 = rng.standard_normal((m, d)) / np.sqrt(m)
        w2 = rng.integers(0, 2, size=m) * 2.0 - 1.0
        directions = rng.standard_normal((n_probes, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.random(n_probes) ** (1.0 / d)
        return cls(w1, w2, directions * radii[:, None])

    @property
    def hidden_width(self) -> int:
        return self.w1.shape[0]


def min_row_zeroing_error(instance: Thm1Instance) -> tuple[int, float, float]:
    """Zero the smallest-norm row of w1; report (row index, sup-over-probes
    output error, the proof bound sqrt(m) * that row's norm)."""
    if len(instance.probes) == 0:
        raise ValueError("need at least one probe input")
    norms = np.linalg.norm(instance.w1, axis=1)
    j = int(np.argmin(norms))
    pre = instance.probes @ instance.w1.T  # [n, m]
    full = np.maximum(pre, 0.0) @ instance.w2
    cut_pre = pre.copy()
    cut_pre[:, j] = 0.0
    cut = np.maximum(cut_pre, 0.0) @ instance.w2
    measured = float(np.abs(full - cut).max())
    bound = float(np.sqrt(instance.hidden_width) * norms[j])
    return j, measured, bound


_MC_BLOCK_ROWS = 8192


def thm1_monte_carlo(d: int, epsilon: float, delta: float, trials: int,
                     rng: np.random.Generator, dof_convention: str,
                     m: int | None = None) -> dict:
    """Empirical failure rate of the row-zeroing guarantee at the bound width.

    A trial fails when no row norm drops below epsilon/sqrt(m). The rate is
    compared against delta plus a 3-sigma binomial band.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful band")
    if m is None:
        m = thm1_width_bound(d, epsilon, delta, dof_convention)
    cutoff = epsilon * epsilon  # min ||row||^2 >= eps^2/m  <=>  min sum-sq of raw normals >= eps^2
    failures = 0
    for _ in range(trials):
        # drawn in blocks of rows: the same normal stream as one m x d draw,
        # without holding all of it
        smallest = np.inf
        for start in range(0, m, _MC_BLOCK_ROWS):
            raw = rng.standard_normal((min(_MC_BLOCK_ROWS, m - start), d))
            smallest = min(smallest, np.einsum("ij,ij->i", raw, raw).min())
        if smallest >= cutoff:
            failures += 1
    rate = failures / trials
    band = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    return {
        "d": d,
        "epsilon": epsilon,
        "delta": delta,
        "trials": trials,
        "m": int(m),
        "dof_convention": dof_convention,
        "failure_rate": rate,
        "band": band,
        "passed": bool(rate <= band),
    }


# ---------------------------------------------------------------------------
# residual chains: depth extension and subnetwork embedding
# ---------------------------------------------------------------------------

@dataclass
class ResLayer:
    w_in: np.ndarray  # [width, d]
    b: np.ndarray  # [width]
    w_out: np.ndarray  # [d, width]

    @property
    def width(self) -> int:
        return self.w_in.shape[0]


@dataclass
class ResNetChain:
    """x -> x + w_out @ relu(w_in @ x + b), layer by layer."""

    dim: int
    layers: list[ResLayer]

    @classmethod
    def random(cls, dim: int, widths, rng: np.random.Generator) -> "ResNetChain":
        scale = 1.0 / np.sqrt(dim)
        layers = [ResLayer(rng.standard_normal((w, dim)) * scale,
                           rng.standard_normal(w) * scale,
                           rng.standard_normal((dim, w)) * scale)
                  for w in widths]
        return cls(dim, layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def forward(self, x: np.ndarray,
                unit_masks: list[np.ndarray] | None = None) -> np.ndarray:
        """Evaluate on [n,d] (or [d]) inputs; optional per-layer 0/1 masks
        zero out hidden units."""
        squeeze = x.ndim == 1
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for li, layer in enumerate(self.layers):
            act = np.maximum(h @ layer.w_in.T + layer.b, 0.0)
            if unit_masks is not None:
                act = act * unit_masks[li]
            h = h + act @ layer.w_out.T
        return h[0] if squeeze else h


def extend_network(chain: ResNetChain, extra_layers: int) -> ResNetChain:
    """Append zero-parameter residual layers; the function is unchanged
    exactly (skip connections carry the value through)."""
    if extra_layers < 1:
        raise ValueError("extra_layers must be >= 1")
    width = max((l.width for l in chain.layers), default=1)
    zero_layers = [ResLayer(np.zeros((width, chain.dim)), np.zeros(width),
                            np.zeros((chain.dim, width))) for _ in range(extra_layers)]
    return ResNetChain(chain.dim, chain.layers + zero_layers)


def embed_as_subnetwork(narrow: ResNetChain, wide_width: int,
                        rng: np.random.Generator) -> tuple[ResNetChain, list[np.ndarray]]:
    """Build a wider chain containing the narrow one behind a unit mask.

    Each wide layer copies the narrow layer's weights into its leading
    units and fills the rest randomly; masking those extra units to zero
    reproduces the narrow chain's output exactly, while the unmasked wide
    chain computes something else.
    """
    max_width = max((l.width for l in narrow.layers), default=0)
    if wide_width <= max_width:
        raise ValueError(
            f"wide width {wide_width} must exceed the narrow max width {max_width}")
    wide = ResNetChain.random(narrow.dim, [wide_width] * narrow.depth, rng)
    for layer, wide_layer in zip(narrow.layers, wide.layers):
        w = layer.width
        wide_layer.w_in[:w] = layer.w_in
        wide_layer.b[:w] = layer.b
        wide_layer.w_out[:, :w] = layer.w_out
    masks = [(np.arange(wide_width) < layer.width).astype(np.float64)
             for layer in narrow.layers]
    return wide, masks
