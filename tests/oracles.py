"""Reference code that the tests check the rate engine against."""

import math

import numpy as np

from regrates.models import GaussianNoise


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


_TERMS = 4000
_LOG_FACTORIAL = np.array([math.lgamma(n + 1) for n in range(2 * _TERMS + 2)])


def _log_kernel_power(name: str, k):
    """log int K(z)^k dz, k >= 1: 0 for the uniform kernel on [-1/2, 1/2]; the
    Beta integral 2 3^k (k!)^2 / (2k+1)! for Epanechnikov;
    (2 pi)^(-(k-1)/2) k^(-1/2) for the Gaussian."""
    if name == "uniform":
        return np.zeros(k.size)
    if name == "epanechnikov":
        return (math.log(2.0) + k * math.log(3.0) + 2.0 * _LOG_FACTORIAL[k]
                - _LOG_FACTORIAL[2 * k + 1])
    if name == "gaussian":
        return -0.5 * (k - 1) * math.log(2.0 * math.pi) - 0.5 * np.log(k)
    raise ValueError(f"no closed form for int K^k of kernel {name!r}")


def _log_moments(law, r_x: float, f_x: float, k):
    """(log |mu_k|, sign of mu_k) for mu_k = E[w^k], w = (Y - r(x)) / f(x);
    the sign is 0 where mu_k = 0."""
    if isinstance(law, GaussianNoise):
        # (k-1)!! s^k for even k, with s = sigma / f and (k-1)!! = k!/(2^(k/2) (k/2)!)
        even = k % 2 == 0
        log_mu = (_LOG_FACTORIAL[k] - 0.5 * k * math.log(2.0) - _LOG_FACTORIAL[k // 2]
                  + k * math.log(law.sigma / f_x))
        return np.where(even, log_mu, -np.inf), even.astype(float)
    w = (np.asarray(law.values, dtype=float) - r_x) / f_x
    top = float(np.max(np.abs(w)))
    # sum p (w/top)^k lies in [-1, 1]
    scaled = np.asarray(law.probs, dtype=float) @ (w[:, None] / top) ** k
    with np.errstate(divide="ignore"):
        return k * math.log(top) + np.log(np.abs(scaled)), np.sign(scaled)


def psi_series(model, kernel, a: float, q: float, x: float, u: float,
               order: int = 0, log: bool = False) -> float:
    """psi^(order)(u) of the averaged estimator as its power series

        (1-q) f sum_{k >= max(order, 1)} u^(k-order)/(k-order)!
                                         mu_k kappa_k / (1 - a + k(a-q)),

    with mu_k = E[w^k] and kappa_k = int K^k, its terms summed in log space.
    Exact for the built-in laws and kernels, and independent of the nested
    quadrature; the first 4000 terms are kept, and the last must be negligible.
    With ``log``, the log of a positive value, which may lie past the float range.
    """
    f_x, r_x, law = model.density(x), model.regression(x), model.cond_law(x)
    k = np.arange(max(order, 1), _TERMS)
    power = k - order
    log_mu, sign = _log_moments(law, r_x, f_x, k)
    if u == 0.0:
        sign = np.where(power == 0, sign, 0.0)
    else:
        log_mu = log_mu + power * math.log(abs(u))
        if u < 0.0:
            sign = np.where(power % 2, -sign, sign)
    logs = (log_mu - _LOG_FACTORIAL[power] + _log_kernel_power(kernel.name, k)
            - np.log(1.0 - a + k * (a - q)))[sign != 0.0]
    sign = sign[sign != 0.0]
    if not logs.size:
        return 0.0
    top = float(np.max(logs))
    if u != 0.0 and logs[-1] > top - 50.0:
        raise ValueError(f"the series at u = {u!r} needs more than {_TERMS} terms")
    total = math.fsum(sign * np.exp(logs - top))
    if log:
        return math.log((1.0 - q) * f_x * total) + top
    return (1.0 - q) * f_x * math.exp(top) * total
