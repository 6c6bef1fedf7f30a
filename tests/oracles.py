"""Reference code that the tests check the rate engine against."""

import math

import numpy as np


class GridTooNarrowError(ValueError):
    """The scan grid does not contain the conjugate maximizer."""


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def conjugate_oracle(psi_fn, u_grid, t: float, refine_iters: int = 60) -> float:
    """Brute-force convex conjugate sup_u (u t - psi(u)).

    Scans the tabulated grid, requires the argmax to be interior, then
    golden-section refines around it. Independent of the Newton inversion.
    """
    u = np.asarray(u_grid, dtype=float)
    if u.size < 3:
        raise GridTooNarrowError("need at least three grid points")
    vals = np.array([ui * t - psi_fn(ui) for ui in u])
    i = int(np.argmax(vals))
    if i == 0 or i == u.size - 1:
        raise GridTooNarrowError(
            f"conjugate maximizer for t={t!r} at the grid boundary; widen the grid"
        )

    def g(ui):
        return ui * t - psi_fn(ui)

    lo, hi = u[i - 1], u[i + 1]
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    gc, gd = g(c), g(d)
    best = max(vals[i], gc, gd)
    for _ in range(refine_iters):
        if gc >= gd:
            hi, d, gd = d, c, gc
            c = hi - _INVPHI * (hi - lo)
            gc = g(c)
            best = max(best, gc)
        else:
            lo, c, gc = c, d, gd
            d = lo + _INVPHI * (hi - lo)
            gd = g(d)
            best = max(best, gd)
        if hi - lo < 1e-12 * max(1.0, abs(hi) + abs(lo)):
            break
    return best
