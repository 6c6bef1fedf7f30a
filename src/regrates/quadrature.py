"""Adaptive one-dimensional quadrature on finite intervals.

Each segment is evaluated with a Gauss-Legendre pair (7 and 15 nodes, which
share the midpoint: 21 abscissae in one integrand call); the 15-node value is
kept and the difference between the two rules serves as the segment error
estimate. The segment with the largest estimate is bisected until the summed
estimate meets the tolerance.
Graded bisection toward an endpoint handles integrable singularities such as
s**-0.9; infinite ranges must be transformed to a finite interval by the
caller.

Integrands must accept a numpy array of abscissae and return an array of the
same shape, or of shape (m, len(x)) for m integrals over one shared set of
segments. A vector-valued integrand gets (m,) arrays of values and error
estimates back: the segment bisected next is the one with the largest
max_i e_i / scale_i, where scale_i = max(abs_tol, rel_tol * |value_i|) is
taken from the first, whole-interval segment, so that a large component with
an error at its rounding floor cannot starve a small one of bisections (for
a scalar integrand this is the order of the estimates themselves). The loop
stops once every component meets its own tolerance, and max_subdivisions
counts the shared segments. Non-finite integrand values
in any component short-circuit the subdivision loop and are returned as-is
with an infinite error estimate, so callers can detect overflow without an
exception.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "NonConvergenceError",
    "integrate_1d",
    "DEFAULT_SPEC",
]

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)
_N_HI = len(_NODES_HI)
# both rules hold the midpoint as an exact 0.0 (the lookups fail otherwise):
# one integrand call per segment takes the 15 nodes, then the other 6 of the
# 7, and the 7-node rule reads the midpoint value from the 15
_MID_LO = int(np.flatnonzero(_NODES_LO == 0.0)[0])
_MID_HI = int(np.flatnonzero(_NODES_HI == 0.0)[0])
_NODES = np.concatenate([_NODES_HI, np.delete(_NODES_LO, _MID_LO)])
_LO_INDEX = np.insert(np.arange(_N_HI, len(_NODES)), _MID_LO, _MID_HI)


class NonConvergenceError(RuntimeError):
    """Raised when the subdivision budget is exhausted before the tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 4000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_SPEC = QuadratureSpec()


_EPS = float(np.finfo(float).eps)


def _rule(vals, weights):
    # a (1, n) @ (n, 1) matmul per row runs numpy's 1-D dot on each row, so a
    # row of a vector-valued integrand sums as the same scalar integrand does
    return np.matmul(vals[..., None, :], weights[:, None])[..., 0, 0]


def _segment(f, lo: float, hi: float):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # non-finite values (overflow, inf - inf) are the caller's to see, with an
    # infinite error estimate, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        both = f(mid + half * _NODES)
        vals = both[..., :_N_HI]
        fine = half * _rule(vals, _WEIGHTS_HI)
        # np.take keeps each row contiguous, as a scalar integrand's values
        # are, so both sum alike; fancy indexing would copy column-major
        coarse = half * _rule(np.take(both, _LO_INDEX, axis=-1), _WEIGHTS_LO)
        # floor at the rounding noise of the node sum so the estimate stays an
        # upper bound even when both rules agree to machine precision
        noise = 20.0 * _EPS * half * _rule(np.abs(vals), _WEIGHTS_HI)
        return fine, np.maximum(np.abs(fine - coarse), noise)


def integrate_1d(f, lo: float, hi: float, spec: QuadratureSpec = DEFAULT_SPEC):
    """Integrate ``f`` over ``[lo, hi]``, returning ``(value, err_est)``.

    For an integrand of shape ``(m, len(x))`` both are arrays of shape
    ``(m,)``; otherwise they are floats. Raises NonConvergenceError if
    ``spec.max_subdivisions`` segments are not enough to reach
    ``max(abs_tol, rel_tol * |value|)`` in every component.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration bounds must be finite")
    if not lo < hi:
        raise ValueError("require lo < hi")

    val, err = _segment(f, lo, hi)
    scalar = np.ndim(val) == 0
    if not np.isfinite(val).all():
        return _result(scalar, val, np.full_like(val, math.inf))
    scale = np.fmax(spec.abs_tol, spec.rel_tol * np.abs(val))
    heap = [(-(err / scale).max(), 0, lo, hi, val, err)]
    tiebreak = 1
    # copies, since the totals are updated in place and the heap keeps val, err
    total_val = val.copy()
    total_err = err.copy()
    nseg = 1
    while (total_err > np.fmax(spec.abs_tol, spec.rel_tol * np.abs(total_val))).any():
        if nseg >= spec.max_subdivisions:
            raise NonConvergenceError(
                f"quadrature used {nseg} segments without reaching "
                f"tolerance (err~{total_err.max():.3e})"
            )
        _, _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # interval at floating-point resolution; keep its estimate
            heapq.heappush(heap, (0.0, tiebreak, a, b, v, np.zeros_like(e)))
            tiebreak += 1
            total_err -= e
            continue
        v1, e1 = _segment(f, a, m)
        v2, e2 = _segment(f, m, b)
        if not (np.isfinite(v1).all() and np.isfinite(v2).all()):
            return _result(scalar, v1 + v2, np.full_like(v1, math.inf))
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-(e1 / scale).max(), tiebreak, a, m, v1, e1))
        heapq.heappush(heap, (-(e2 / scale).max(), tiebreak + 1, m, b, v2, e2))
        tiebreak += 2
        nseg += 1
    values = np.array([item[4] for item in heap]).reshape(len(heap), -1)
    errors = np.array([item[5] for item in heap]).reshape(len(heap), -1)
    return _result(scalar, [math.fsum(col) for col in values.T],
                   [math.fsum(col) for col in errors.T])


def _result(scalar: bool, value, err):
    """Floats for a scalar integrand, (m,) arrays for a vector-valued one."""
    value, err = np.asarray(value, dtype=float), np.asarray(err, dtype=float)
    return (value.item(), err.item()) if scalar else (value, err)
