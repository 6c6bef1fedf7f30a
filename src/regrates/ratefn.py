"""Deviation rate functions for the streaming regression estimators.

The large-deviation behaviour of the averaged estimator at a point x is
governed by the convex function

    psi(u) = (1-q) * int_0^1 int_z int_y s^(-a)
             (exp(u s^(a-q) K(z) (y - r(x)) / f(x)) - 1) g(x, y) ds dz dy,

whose Fenchel-Legendre transform I(t) = sup_u (u t - psi(u)) is computed here
by inverting psi' with a safeguarded Newton iteration. On the
moderate-deviation scale each estimator k has one constant, its asymptotic
variance sigma_k^2(x) = Var[Y|x] int K^2 / (f(x) F_k), with F_NW = 1,
F_semi = 1 + a and F_avg = (1+a-2q)/(1-q)^2; its rate is the quadratic
J_k(t) = t^2 / (2 sigma_k^2), and psi''(0) = sigma_avg^2 / (1-q).

Power series, the path of every built-in law and kernel: expanding the
exponential term by term gives

    psi^(j)(u) = (1-q) f sum_{k >= max(j,1)} u^(k-j)/(k-j)!
                                             mu_k kappa_k / (1-a+k(a-q)),

with mu_k = E[w^k], w = (y - r(x)) / f(x), and kappa_k = int K^k. A context
sums it when the kernel has a closed-form log kappa_k (log_power_integral) and
the conditional law is symmetric about r(x), as Gaussian noise, symmetric
atoms and a point mass are: every odd mu_k then vanishes, and every term has
the sign of u^j, so the sum cancels nothing. At q = a it is the
Nadaraya-Watson cumulant f Z_j(u) below. The log coefficients, and log n!,
are cached per context on first use, in doubling lengths. The sum runs in log
space over a window about the largest term, which lies near k = (u s max K)^2
for Gaussian noise of scale s = sigma/f and near k = |u| max|w| max K for
atoms, widened until the terms at both of its ends are e^-50 below the
largest. A peak past the cached terms is first looked at alone: if that one
term passes the float range, so does the sum, and psi^(j) is +-inf, with no
term up to it cached. Newton takes psi'' from the series.

Nested quadrature, the generic path, for a kernel without a closed-form
kappa_k or a law whose odd moments do not vanish: the s-integral is
substituted as s = tau^(1/(1-p)) where s^(-p) is the power weight of the
respective order, which removes the endpoint singularity analytically, and
then as tau = sigma^k. The tilt u tau^beta, beta = (a-q)/(1-p), is not smooth at
tau = 0; in k sigma^(k-1) Z_j(u sigma^(k beta)) with k beta >= 1, every
non-integer power of sigma is at least sigma^k, so the outer pass needs a few
segments (mostly 1-3) where in tau it graded its way to 0. The power is
k = min(ceil(1/beta), 8). The cap matters as q -> a: then beta -> 0, and an
uncapped k would pile the weight k sigma^(k-1) up at sigma = 1, where the rule
misses it (Rademacher noise, Epanechnikov kernel, a = 0.3, q = 0.2999:
psi(1) = 1.6e-17 in place of 0.31, with no error raised). At q = a, beta = 0
and the weight 8 sigma^7 is integrated exactly in one segment, so
psi^(j)(u) = f Z_j(u), the Nadaraya-Watson cumulant, needs no branch of its
own. The z-integral runs over the kernel support (truncated at |z| <= 12 for
the Gaussian kernel, where the omitted mass is below 2e-32 times the integrand
bound), as one vector-valued adaptive pass per outer segment over all of that
segment's sigma-nodes, or in closed form, |supp| h^order M_order(v h), for a
kernel flat at height h = 1/|supp| on its support (the uniform kernel:
M_order(v)); the y-integral is exact at every tilt: a finite sum for atomic
laws and the normal moment generating function for Gaussian noise. Every
integral runs at integrate_1d's default tolerances, a constant of the engine.
A conditional law that is a point mass at r(x) makes psi vanish, so that
I(t) = +inf at every t != 0.

Slope inversion: substituting v = u s^(a-q) turns psi into the solution of
the linear ODE u psi' + kappa psi = kappa C Z_0(u), with kappa = (1-a)/(a-q),
C = (1-q) f(x)/(1-a) and Z_j(v) the z-integral of order j at tilt v, so that
u psi'' + (1+kappa) psi' = kappa C Z_1(u). On the nested path each Newton
step evaluates the nested psi' once and takes psi'' from that identity, at the
cost of one z-integral (at q = a the tilt is 1 and psi'' = C Z_2(u) exactly).
The identity loses digits near u = 0 and as q -> a, so it only sizes the
step: the residual test on psi' sets the root's tolerance, and
cumulant_derivatives keeps the nested psi''. The step is Newton's on
log psi'(u) = log t, u - log(psi'/t) psi'/psi'', taken where psi'/t > 0: psi' grows like sinh u
for atoms and like u exp(c u^2) for Gaussian noise, so log psi' is close to
linear or quadratic where psi' is not, and a start past the root comes back
in a few steps. The iteration starts at t / psi''(0), |u| at most 1024 (from
a start near t = 1e150 the bisection would halve down for the whole budget)
or psi''(0)^(-1/2) if larger: for Gaussian noise of s.d. sd the root grows
like 1/sd, and t / psi''(0) like 1/sd^2. Since psi'(0) = 0, the bracket
starts at u = 0 on the side of t; |u| at most doubles per step until psi'
passes t (an overflowing psi' has passed it), and a step outside the bracket
bisects it. The one stop rule is the budget of 100 steps, which a slope
outside the range of psi' runs out; the error then names the last u where
psi' overflowed a float, if it did. A root u* whose I(t) = t u* - psi(u*)
overflows a float (t = 1e308 for Rademacher noise) is an error too.

The weight exponent must satisfy q <= a: for q > a the tilt s^(a-q) blows up
at s = 0 and psi(u) is infinite for every u of the unfavourable sign, so such
contexts are rejected up front.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .kernels import Kernel
from .models import DiscreteAtoms, GaussianNoise, Model
from .quadrature import NonConvergenceError, integrate_1d
from .schedules import ScheduleConfig, ValidationError

__all__ = [
    "EstimatorKind",
    "moderate_factor",
    "asymptotic_variance",
    "moderate_rate",
    "CumulantContext",
    "cumulant",
    "cumulant_derivatives",
    "invert_slope",
    "large_deviation_rate",
    "rate_point",
]

GAUSS_KERNEL_Z_RADIUS = 12.0
_SLOPE_TOL = 1e-10
_MAX_NEWTON_ITER = 100
# cap on |u| at the start t / psi''(0), which is exact only for a quadratic psi
_MAX_START = 1024.0
# cap on the power k of the outer substitution tau = sigma^k (module docstring)
_MAX_POWER = 8
# the power series leaves out terms more than _SERIES_DROP below the largest
# in log, e^-50 = 2e-22 of it
_SERIES_DROP = 50.0
_LOG_MAX = math.log(float(np.finfo(float).max))

_log_factorial = np.vectorize(lambda n: math.lgamma(n + 1.0), otypes=[float])


class EstimatorKind(str, Enum):
    AVERAGED = "averaged"
    NADARAYA_WATSON = "nadaraya_watson"
    SEMI_RECURSIVE = "semi_recursive"


def moderate_factor(kind: EstimatorKind, a: float, q: float) -> float:
    kind = EstimatorKind(kind)
    if kind is EstimatorKind.AVERAGED:
        return (1.0 + a - 2.0 * q) / (1.0 - q) ** 2
    if kind is EstimatorKind.NADARAYA_WATSON:
        return 1.0
    return 1.0 + a


def asymptotic_variance(kind, a: float, q: float, f_x: float, cond_var: float,
                        kernel: Kernel) -> float:
    """sigma_k^2(x) = Var[Y|x] int K^2 / (f(x) F_k), the limit of n h_n times
    the variance of estimator k at x, with F_k = moderate_factor(kind, a, q)."""
    if not f_x > 0:
        raise ValidationError(f"f(x) = {f_x!r}: x lies outside the support of "
                              "the design density")
    if cond_var < 0:
        raise ValueError("conditional variance must be nonnegative")
    return cond_var * kernel.squared_integral / (f_x * moderate_factor(kind, a, q))


def moderate_rate(kind, a: float, q: float, f_x: float, cond_var: float,
                  kernel: Kernel, t: float) -> float:
    """J_k(t) = t^2 / (2 sigma_k^2): 0 at t = 0, and +inf at t != 0 when
    sigma_k^2 = 0."""
    sigma2 = asymptotic_variance(kind, a, q, f_x, cond_var, kernel)
    if t == 0.0:
        return 0.0
    return t * t / (2.0 * sigma2) if sigma2 > 0.0 else math.inf


class _TiltedMoments:
    """E[w^j exp(lam w)], less 1 at j = 0, for w = (y - r(x)) / f(x) with
    r(x) the law's mean: a finite sum over atoms, or the normal moment
    generating function for Gaussian noise, w ~ N(0, s^2) with s = sigma/f,
    squared only in products such as (lam s)^2, which keep their digits
    where s^2 alone is subnormal. ``point_mass``: w = 0 a.s.;
    ``o_minus_null``: w >= 0 a.s., no mass strictly below r(x). For the power
    series: whether w is ``symmetric``, log E[w^k] at even k, and about where
    the largest term lies."""

    def __init__(self, law, f_x: float):
        if isinstance(law, DiscreteAtoms):
            # atoms without mass are left out: they add nothing to a moment
            mean = law.mean
            atoms = [((v - mean) / f_x, p) for v, p in zip(law.values, law.probs) if p > 0.0]
            w = [w for w, _ in atoms]
            self._w = np.array(w)
            self._wt = np.array([p for _, p in atoms])
            self.point_mass = not any(w)
            self.o_minus_null = min(w) >= 0.0
            # w and -w have one law, so that every odd moment of w vanishes
            self.symmetric = sorted(atoms) == sorted((-w, p) for w, p in atoms)
            self._w_top = max(map(abs, w))
        elif isinstance(law, GaussianNoise):
            self._w = None
            self.symmetric = True
            self._s = law.sigma / f_x
            self.point_mass = self._s * self._s == 0.0  # psi is 0 in floats
            self.o_minus_null = law.sigma == 0.0  # s^2 may underflow to 0 at sigma > 0
        else:
            raise TypeError(f"unsupported conditional law {law!r}")

    def moment(self, order: int, lam):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(over="ignore"):
            if self._w is None:
                lam_s = lam * self._s
                half = 0.5 * lam_s * lam_s
                if order == 0:
                    return np.expm1(half)
                factor = lam_s if order == 1 else self._s * (1.0 + lam_s * lam_s)
                return factor * self._s * np.exp(half)
            if order == 0:
                core = np.expm1(lam[..., None] * self._w)
            else:
                core = self._w**order * np.exp(lam[..., None] * self._w)
        return core @ self._wt

    def peak_index(self, lam: float) -> float:
        """About the k of the largest term of sum_k lam^k E[w^k] / k!:
        (lam s)^2 for Gaussian noise, |lam| max|w| for atoms."""
        if self._w is None:
            return lam * self._s * lam * self._s  # inf past the float range, not an error
        return abs(lam) * self._w_top

    def log_even_moments(self, k):
        """log E[w^k] for an array of even k >= 2; -inf where w = 0 a.s."""
        if self._w is None:
            if self._s == 0.0:
                return np.full(np.shape(k), -math.inf)
            # (k-1)!! s^k = k! s^k / (2^(k/2) (k/2)!)
            return (_log_factorial(k) - 0.5 * k * math.log(2.0) - _log_factorial(0.5 * k)
                    + k * math.log(self._s))
        top = self._w_top
        if top == 0.0:
            return np.full(np.shape(k), -math.inf)
        # sum p (|w|/top)^k lies in (0, 1]
        scaled = np.power.outer(np.abs(self._w) / top, k).T @ self._wt
        return k * math.log(top) + np.log(scaled)


class CumulantContext:
    """Everything needed to evaluate psi and its transform at one point x."""

    def __init__(self, model: Model, kernel: Kernel, a: float, q: float, x: float):
        # at alpha = 1 the bandwidth interval is (0, 1/2), the union of the
        # intervals over every admissible alpha
        ScheduleConfig(alpha=1.0, a=a, q=q).ensure_valid()
        if q > a:
            raise ValidationError(
                f"weight_exponent: q={q!r} exceeds a={a!r}; the tilt s**(a-q) is "
                "unbounded at s=0 and the cumulant integral diverges"
            )
        self.model = model
        self.kernel = kernel
        self.a = float(a)
        self.q = float(q)
        self.f_x = float(model.density(x))
        # psi''(0) = sigma_avg^2 / (1-q); the variance checks that f(x) > 0
        self.curvature_at_zero = asymptotic_variance(
            EstimatorKind.AVERAGED, self.a, self.q, self.f_x, model.cond_var(x),
            kernel) / (1.0 - self.q)
        self._moments = _TiltedMoments(model.cond_law(x), self.f_x)
        radius = kernel.support_radius
        self._z_radius = radius if math.isfinite(radius) else GAUSS_KERNEL_Z_RADIUS
        # by Cauchy-Schwarz, int K^2 * |{K > 0}| >= (int K)^2 = 1, with
        # equality exactly when K is flat on its support
        self._flat = kernel.squared_integral * kernel.support_measure_positive == 1.0
        # the one choice of path (module docstring): the power series or the
        # nested quadrature
        self.series = kernel.log_power_integral is not None and self._moments.symmetric
        self._log_scale = math.log((1.0 - self.q) * self.f_x)
        self._terms = []  # the power series' cache, filled on first use

    def _log_coefficients(self, k):
        """log(mu_k kappa_k / (1-a+k(a-q))) for an array of even k >= 2."""
        return (self._moments.log_even_moments(k) + self.kernel.log_power_integral(k)
                - np.log(1.0 - self.a + k * (self.a - self.q)))

    def _series_terms(self, order: int, count: int):
        """(base, power) over m = 1..count at least: the m-th term of
        psi^(order)(u) / ((1-q) f) is exp(base + power log|u|), with
        power = 2m - order. Grown by doubling, so that a context costs
        nothing until its series is summed."""
        if not self._terms:
            self._k_max = float(self.kernel(0.0))  # max K for the built-ins
        size = self._terms[0][0].size if self._terms else 0
        if size < count:
            size = max(count, 2 * size, 32)
            k = 2.0 * np.arange(1, size + 1)
            coef = self._log_coefficients(k)
            self._terms = [(coef - _log_factorial(k - j), k - j) for j in range(3)]
        return self._terms[order]

    def _power_series(self, order: int, u: float) -> float:
        """psi^(order)(u) = (1-q) f sum_{m >= 1} u^(2m-order)/(2m-order)!
        mu_2m kappa_2m / (1-a+2m(a-q)), summed over the terms within
        _SERIES_DROP of the largest in log (module docstring)."""
        base, power = self._series_terms(order, 1)
        if u == 0.0:
            # only the term u^0 is left, at m = 1 for psi''
            return math.exp(self._log_scale + base[0]) if order == 2 else 0.0
        sign = -1.0 if u < 0.0 and order % 2 else 1.0
        log_u = math.log(abs(u))
        peak = 0.5 * self._moments.peak_index(u * self._k_max)
        if peak >= base.size:
            # a peak past the cached terms is first looked at alone: every term
            # has the sign of the sum, so one past the float range puts the
            # sum past it, and the terms up to it need not be cached. The
            # largest term is about e^m at its index m, so a sum that does not
            # overflow peaks within a few thousand terms
            k = 2.0 * math.floor(min(peak, 1e300))
            head = float(self._log_coefficients(np.array([k]))[0])
            if head + (k - order) * log_u - math.lgamma(k - order + 1.0) \
                    + self._log_scale > _LOG_MAX:
                return sign * math.inf
        half = 10.0 * math.sqrt(peak) + 32.0
        lo, hi = max(0, int(peak - half)), int(peak + half)
        while True:
            base, power = self._series_terms(order, hi)
            logs = base[lo:hi] + power[lo:hi] * log_u
            top = float(np.maximum.reduce(logs))
            if top == -math.inf:
                return 0.0  # w = 0 a.s.
            if top + self._log_scale > _LOG_MAX:
                return sign * math.inf
            low = lo > 0 and logs[0] > top - _SERIES_DROP
            high = logs[-1] > top - _SERIES_DROP
            if not (low or high):
                break
            width = hi - lo
            lo, hi = (max(0, lo - width) if low else lo), (hi + width if high else hi)
        # Python's float product gives inf past the range, with no exception
        return sign * math.exp(top + self._log_scale) * float(np.add.reduce(np.exp(logs - top)))

    def _z_integrals(self, order: int, v):
        """int K(z)^order E[w^order exp(v K(z) w)] dz (less 1 at order 0) for
        each tilt in ``v``: in closed form for a flat kernel, else one
        vector-valued adaptive pass shared by all tilts."""
        mom = self._moments.moment
        if self._flat:
            measure = self.kernel.support_measure_positive
            height = 1.0 / measure
            return measure * height**order * mom(order, v * height)
        kern = self.kernel.fn

        def integrand(z):
            k = kern(z)
            return k**order * mom(order, v[:, None] * k)

        vals, _ = integrate_1d(integrand, -self._z_radius, self._z_radius)
        return vals

    def _s_weighted(self, order: int, u: float) -> float:
        if self.series:
            return self._power_series(order, u)
        # psi^(order)(u) = (1-q) f int_0^1 s^(-p) Z_order(u s^(a-q)) ds; the
        # substitution s = tau^(1/(1-p)) makes the order's weight s^(-p) constant,
        # and tau = sigma^k with k beta >= 1 makes the integrand smooth at 0
        a, q = self.a, self.q
        one_minus_p = (1.0 - a, 1.0 - q, 1.0 + a - 2.0 * q)[order]
        beta = (a - q) / one_minus_p
        k = math.ceil(1.0 / beta) if beta > 1.0 / _MAX_POWER else _MAX_POWER

        def integrand(sig):
            return k * sig**(k - 1) * self._z_integrals(order, u * sig**(k * beta))

        val, _ = integrate_1d(integrand, 0.0, 1.0)
        return (1.0 - q) * self.f_x * (val / one_minus_p)

    def _curvature(self, u: float, slope: float) -> float:
        """psi''(u) for Newton's step: the series psi'', or on the nested path,
        at u != 0, from slope = psi'(u) and one inner pass, by the identity
        u psi'' + (1+kappa) psi' = kappa C Z_1(u) (module docstring); within
        3e-8 relative of the nested psi'' at |u| >= 0.5 in the tests."""
        if self.series:
            return self._power_series(2, u)
        a, q = self.a, self.q
        scale = (1.0 - q) * self.f_x / (1.0 - a)
        if q == a:
            return scale * float(self._z_integrals(2, np.array([u]))[0])
        kappa = (1.0 - a) / (a - q)
        z1 = float(self._z_integrals(1, np.array([u]))[0])
        return (kappa * scale * z1 - (1.0 + kappa) * slope) / u


def cumulant(ctx: CumulantContext, u: float) -> float:
    """The limiting scaled log moment generating function psi at u."""
    return ctx._s_weighted(0, u)


def cumulant_derivatives(ctx: CumulantContext, u: float) -> tuple[float, float]:
    """(psi'(u), psi''(u)) from the series, or by direct quadrature of the
    differentiated integrals."""
    return ctx._s_weighted(1, u), ctx._s_weighted(2, u)


def invert_slope(ctx: CumulantContext, t: float) -> float:
    """Solve psi'(u) = t; psi'' > 0 makes the root unique when it exists.
    Safeguarded Newton on log psi', as set out under "Slope inversion" above."""
    side = 1.0 if t >= 0.0 else -1.0
    lo, hi = (0.0, math.inf) if side > 0 else (-math.inf, 0.0)
    curv0 = ctx.curvature_at_zero
    u = side * min(abs(t) / curv0, max(_MAX_START, curv0**-0.5)) if curv0 > 0.0 else side
    tol = _SLOPE_TOL * max(1.0, abs(t))
    overflow = None  # the last u where psi' overflowed
    for _ in range(_MAX_NEWTON_ITER):
        slope = ctx._s_weighted(1, u)
        if math.isinf(slope):
            overflow = u
        resid = slope - t
        if math.isfinite(resid) and abs(resid) < tol:
            return u
        if math.isnan(resid):
            raise NonConvergenceError(f"psi'({u}) is not a number")
        if resid > 0:
            hi = u
        else:
            lo = u
        candidate = math.nan
        ratio = slope / t
        if math.isfinite(resid) and ratio > 0.0:
            d2 = ctx._curvature(u, slope)
            if math.isfinite(d2) and d2 > 0.0:
                candidate = u - math.log(ratio) * slope / d2
        if math.isinf(hi if side > 0 else lo):
            # psi' has not yet passed t on the side of t: at most double |u|
            step = side * candidate
            u = side * (step if abs(u) < step < 2.0 * abs(u) else 2.0 * abs(u))
        else:
            u = candidate if lo < candidate < hi else 0.5 * (lo + hi)
    message = f"slope inversion did not reach {tol:g} within {_MAX_NEWTON_ITER} iterations"
    if overflow is not None:
        message += f"; psi' overflows a float at u = {overflow!r}"
    raise NonConvergenceError(message)


def large_deviation_rate(ctx: CumulantContext, t: float) -> float:
    """I(t) = t u* - psi(u*) with u* = (psi')^{-1}(t), plus the degenerate
    branches at t <= 0 for models whose conditional law has no mass below
    r(x), and +inf at t != 0 when that law is a point mass at r(x)."""
    return rate_point(ctx, t)[0]


def rate_point(ctx: CumulantContext, t: float):
    """(I(t), u_star, psi(u_star)); u_star and psi are NaN on the closed-form
    branches where no finite maximizer exists."""
    if ctx._moments.o_minus_null:
        if t < 0.0:
            return math.inf, math.nan, math.nan
        if t == 0.0:
            # (1-q)/(1-a) |{K > 0}| f(x): +inf for a kernel positive on the line
            support = ctx.kernel.support_measure_positive
            value = (1.0 - ctx.q) / (1.0 - ctx.a) * support * ctx.f_x
            return value, math.nan, math.nan
    elif t == 0.0:
        # psi(0) = 0 and psi'(0) = 0: the conjugate is attained at u = 0
        return 0.0, 0.0, 0.0
    if ctx._moments.point_mass:
        # psi = 0 everywhere, so I(t) = sup_u u t = +inf at every t != 0
        return math.inf, math.nan, math.nan
    u_star = invert_slope(ctx, t)
    psi_val = cumulant(ctx, u_star)
    value = t * u_star - psi_val
    if not math.isfinite(value):
        raise NonConvergenceError(f"I(t) overflows a float at u = {u_star!r}")
    return value, u_star, psi_val

