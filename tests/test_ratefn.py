import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regrates.kernels import EPANECHNIKOV, GAUSSIAN, KERNELS, UNIFORM, Kernel, get_kernel
from regrates.models import (
    MODEL_NAMES,
    ConstantResponse,
    DiscreteAtoms,
    Model,
    UniformQuadraticGauss,
    UniformRademacher,
    get_model,
)
from regrates.quadrature import NonConvergenceError, QuadratureSpec, integrate_1d
from regrates.ratefn import (
    CumulantContext,
    EstimatorKind,
    cumulant,
    cumulant_derivatives,
    invert_slope,
    large_deviation_rate,
    asymptotic_variance,
    moderate_factor,
    moderate_rate,
    quadratic_rate,
    rate_point,
)
from regrates.schedules import ScheduleConfig, ValidationError

from oracles import GridTooNarrowError, conjugate_oracle, psi_series


@pytest.fixture(scope="module")
def cosh_ctx():
    # rademacher noise + uniform kernel + q = a collapses the cumulant to
    # cosh(u) - 1, giving closed forms for every downstream quantity
    return CumulantContext(UniformRademacher(), UNIFORM, a=0.25, q=0.25, x=0.5)


def closed_rate(t):
    return t * math.asinh(t) - math.sqrt(1.0 + t * t) + 1.0


def test_cumulant_zero_is_exact(cosh_ctx):
    assert cumulant(cosh_ctx, 0.0) == 0.0


@pytest.mark.parametrize("u", [-3.0, -1.0, 0.5, 1.0, 2.5])
def test_cumulant_cosh_closed_form(cosh_ctx, u):
    assert abs(cumulant(cosh_ctx, u) - (math.cosh(u) - 1.0)) < 1e-10


def test_derivatives_cosh_closed_form(cosh_ctx):
    d1, d2 = cumulant_derivatives(cosh_ctx, 1.0)
    assert abs(d1 - math.sinh(1.0)) < 1e-10
    assert abs(d2 - math.cosh(1.0)) < 1e-10
    d1, d2 = cumulant_derivatives(cosh_ctx, 0.0)
    assert abs(d1) < 1e-12
    assert abs(d2 - 1.0) < 1e-10


def test_rate_cosh_closed_form(cosh_ctx):
    for t in (0.5, 1.0, 2.0):
        assert abs(large_deviation_rate(cosh_ctx, t) - closed_rate(t)) < 1e-8
    for t in (50.0, 200.0, 1e3, 1e6, 1e12):
        assert large_deviation_rate(cosh_ctx, t) == pytest.approx(closed_rate(t), rel=1e-10)
    value, u_star, psi_val = rate_point(cosh_ctx, 1.0)
    assert abs(u_star - math.asinh(1.0)) < 1e-8
    assert abs(value - (u_star * 1.0 - psi_val)) < 1e-15


def test_rate_zero_with_two_sided_noise(cosh_ctx):
    assert large_deviation_rate(cosh_ctx, 0.0) == 0.0


def test_rate_negative_t_finite_for_two_sided_noise(cosh_ctx):
    # symmetric noise: I(-t) = I(t)
    assert abs(large_deviation_rate(cosh_ctx, -1.0) - closed_rate(1.0)) < 1e-8


@pytest.mark.parametrize("t", [-20.0, -2.0, 0.5, 2.0, 5.0, 8.0, 20.0])
@pytest.mark.parametrize("a", [0.25, 0.3])
@pytest.mark.parametrize("sigma", [0.5, 0.001])
def test_rate_gauss_closed_form(sigma, a, t):
    # N(0, sigma^2) noise + uniform kernel + q = a collapses the cumulant to
    # psi(u) = expm1(u^2 sigma^2 / 2), so I(t) = |t| u* - psi(u*) where
    # psi'(u*) = u* sigma^2 exp(u*^2 sigma^2 / 2) = |t|; at sigma = 0.001,
    # u* runs from about 2700 to 10300
    ctx = CumulantContext(UniformQuadraticGauss(sigma), UNIFORM, a=a, q=a, x=0.5)
    s2 = sigma * sigma

    def slope(u):
        return u * s2 * math.exp(0.5 * u * u * s2)

    lo, hi = 0.0, 1.0
    while slope(hi) < abs(t):
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if slope(mid) < abs(t) else (lo, mid)
    expected = abs(t) * lo - math.expm1(0.5 * lo * lo * s2)
    assert rate_point(ctx, t)[0] == pytest.approx(expected, rel=1e-10)


def test_rate_zero_closed_form_degenerate_branch():
    ctx = CumulantContext(ConstantResponse(3.0), EPANECHNIKOV, a=0.3, q=0.1, x=0.5)
    assert abs(large_deviation_rate(ctx, 0.0) - (0.9 / 0.7) * 2.0) < 1e-12
    assert large_deviation_rate(ctx, -0.5) == math.inf
    # psi = 0 for a point-mass law, so I(t) = sup_u u t = +inf at t != 0
    assert large_deviation_rate(ctx, 0.5) == math.inf


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN], ids=lambda k: k.name)
def test_noiseless_gauss_matches_constant_response(kernel):
    # both laws are a point mass at r(x), so the two rate functions agree
    noiseless = CumulantContext(UniformQuadraticGauss(0.0), kernel, a=0.3, q=0.1, x=0.5)
    constant = CumulantContext(ConstantResponse(3.0), kernel, a=0.3, q=0.1, x=0.5)
    for t in (-1.0, 0.0, 1.0):
        assert large_deviation_rate(noiseless, t) == large_deviation_rate(constant, t), t


@pytest.mark.parametrize("kernel, at_sigma_zero", [
    (EPANECHNIKOV, (0.9 / 0.7) * 2.0), (UNIFORM, 0.9 / 0.7), (GAUSSIAN, math.inf),
], ids=["epanechnikov", "uniform", "gaussian"])
def test_rate_zero_with_underflowing_gauss_noise(kernel, at_sigma_zero):
    # at sigma = 1e-200, s2 = (sigma/f)^2 underflows to 0, yet the law has
    # mass on both sides of r(x): psi'(0) = 0, so I(0) = 0 at u = 0
    tiny = CumulantContext(UniformQuadraticGauss(1e-200), kernel, a=0.3, q=0.1, x=0.5)
    assert rate_point(tiny, 0.0) == (0.0, 0.0, 0.0)
    assert large_deviation_rate(tiny, 0.5) == large_deviation_rate(tiny, -0.5) == math.inf
    # at sigma = 0 the law has no mass below r(x), and I(0) is the one-sided value
    noiseless = CumulantContext(UniformQuadraticGauss(0.0), kernel, a=0.3, q=0.1, x=0.5)
    assert large_deviation_rate(noiseless, 0.0) == pytest.approx(at_sigma_zero, rel=1e-12)


def test_rate_zero_infinite_for_full_line_kernel():
    ctx = CumulantContext(ConstantResponse(3.0), GAUSSIAN, a=0.3, q=0.1, x=0.5)
    value, u_star, psi = rate_point(ctx, 0.0)
    assert value == math.inf and math.isnan(u_star) and math.isnan(psi)


def test_weight_exponent_above_bandwidth_rejected():
    with pytest.raises(ValidationError, match="exceeds"):
        CumulantContext(UniformRademacher(), UNIFORM, a=0.1, q=0.3, x=0.5)


def test_context_validation():
    with pytest.raises(ValidationError):
        CumulantContext(UniformRademacher(), UNIFORM, a=0.6, q=0.1, x=0.5)
    # asymptotic_variance, which also gives psi''(0), rejects x off the support
    for x in (1.5, 0.0):
        with pytest.raises(ValidationError, match="outside the support"):
            CumulantContext(UniformRademacher(), UNIFORM, a=0.3, q=0.1, x=x)
    with pytest.raises(ValidationError):
        CumulantContext(UniformRademacher(), UNIFORM, a=0.45, q=0.2, x=0.5)


def test_gaussian_law_reduction_at_equal_exponents():
    # with q = a the s-average collapses; the remaining double integral has a
    # closed form through the normal moment generating function
    ctx = CumulantContext(UniformQuadraticGauss(0.5), EPANECHNIKOV,
                          a=0.3, q=0.3, x=0.5)

    def direct(u):
        val, _ = integrate_1d(
            lambda z: np.expm1(0.5 * (u * EPANECHNIKOV.fn(z) * 0.5) ** 2),
            -1.0, 1.0,
        )
        return val

    for u in (0.5, 1.5, -2.0, 20.0):
        expected = direct(u)
        assert abs(cumulant(ctx, u) - expected) < 1e-8 * max(1.0, abs(expected))


# flat at height 1/2 on [-1, 1], built without a closed-form int K^k, so it
# takes the nested quadrature
_WIDE_BOX = Kernel("wide_box", lambda z: np.where(np.abs(z) <= 1.0, 0.5, 0.0),
                   squared_integral=0.5, second_moment=1.0 / 3.0, support_radius=1.0)


def _both_paths(model, kernel, a, q):
    # the context as built, on the series path for a built-in kernel, and the
    # same context on the nested path, the generic one: its kernel has no
    # closed-form int K^k
    kernels = [kernel]
    if kernel.log_power_integral is not None:
        kernels.append(dataclasses.replace(kernel, log_power_integral=None))
    return [CumulantContext(model, k, a=a, q=q, x=0.5) for k in kernels]


def _law_moment(model, order, lam):
    # E[w^order e^(lam w)], less 1 at order 0, with w = y - r(x) at f(x) = 1
    if isinstance(model, UniformRademacher):
        return (np.cosh(lam) - 1.0, np.sinh(lam), np.cosh(lam))[order]
    s2 = model.sigma**2
    half = 0.5 * lam * lam * s2
    return (np.expm1(half), lam * s2 * np.exp(half),
            (s2 + lam * lam * s2 * s2) * np.exp(half))[order]


def _per_node_reference(ctx, order, u):
    # psi^(order)(u) by nested scalar quadrature: one adaptive z-integral per
    # s-node, after the substitution s = tau^(1/(1-p))
    a, q, kern = ctx.a, ctx.q, ctx.kernel.fn
    one_minus_p = (1.0 - a, 1.0 - q, 1.0 + a - 2.0 * q)[order]
    beta = (a - q) / one_minus_p
    radius = min(ctx.kernel.support_radius, 12.0)

    def z_integral(v):
        val, _ = integrate_1d(
            lambda z: kern(z) ** order * _law_moment(ctx.model, order, v * kern(z)),
            -radius, radius,
        )
        return val

    val, _ = integrate_1d(
        lambda taus: np.array([z_integral(u * t**beta) for t in taus]), 0.0, 1.0)
    return (1.0 - q) * val / one_minus_p


@pytest.mark.parametrize("model, kernel, u", [
    *[(model, UNIFORM, u)
      for model in (UniformRademacher(), UniformQuadraticGauss(0.5))
      for u in (-2.0, 0.5, 3.0, 20.0)],
    (UniformQuadraticGauss(0.5), EPANECHNIKOV, -2.0),
    (UniformRademacher(), EPANECHNIKOV, 3.0),
    (UniformRademacher(), GAUSSIAN, 3.0),
    (UniformQuadraticGauss(0.5), _WIDE_BOX, 3.0),
], ids=lambda p: getattr(p, "name", None))
def test_inner_pass_matches_per_node_reference(model, kernel, u):
    # the nested path takes one vector-valued z-pass per outer segment; the
    # series and the nested path against scalar nested quadrature
    for ctx in _both_paths(model, kernel, 0.3, 0.1):
        got = (cumulant(ctx, u), *cumulant_derivatives(ctx, u))
        for order, value in enumerate(got):
            ref = _per_node_reference(ctx, order, u)
            assert abs(value - ref) <= 1e-10 * max(1.0, abs(ref)), \
                (ctx.series, order, value, ref)


_TIGHT = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13)
_GRID_U = np.array([-2.0, 0.5, 1.3, 3.0])


def _tau_form_reference(model, kernel, a, q, order):
    # psi^(order) at each u of _GRID_U by the substitution s = tau^(1/(1-p))
    # alone, whose tilt u tau^beta is not smooth at tau = 0, with one
    # vector-valued z-pass per outer segment, all at tight tolerances
    one_minus_p = (1.0 - a, 1.0 - q, 1.0 + a - 2.0 * q)[order]
    beta = (a - q) / one_minus_p
    radius = min(kernel.support_radius, 12.0)

    def z_integrals(tilts):
        def integrand(z):
            k = kernel.fn(z)
            return k**order * _law_moment(model, order, tilts[:, None] * k)

        return integrate_1d(integrand, -radius, radius, _TIGHT)[0]

    def integrand(taus):
        tilts = np.outer(_GRID_U, taus**beta)
        return z_integrals(tilts.ravel()).reshape(tilts.shape)

    val, _ = integrate_1d(integrand, 0.0, 1.0, _TIGHT)
    return (1.0 - q) * val / one_minus_p


@pytest.mark.parametrize("a, q", [(0.3, 0.1), (0.3, 0.29), (0.25, -0.5), (0.2, -2.0),
                                  (0.45, 0.05), (0.1, 0.0), (0.3, 0.3),
                                  (0.3, 0.2999), (0.3, 0.29999)])
@pytest.mark.parametrize("model", [UniformRademacher(), UniformQuadraticGauss(0.5)],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN], ids=lambda k: k.name)
def test_outer_substitution_matches_tau_form(kernel, model, a, q):
    # tau = sigma^k with k = min(ceil(1/beta), 8); as q -> a, beta -> 0, and
    # an uncapped k would pile the weight k sigma^(k-1) up at sigma = 1; the
    # nested path and the series against the tau form
    for order in range(3):
        ref = _tau_form_reference(model, kernel, a, q, order)
        for ctx in _both_paths(model, kernel, a, q):
            got = np.array([ctx._s_weighted(order, u) for u in _GRID_U])
            assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref))), \
                (ctx.series, order, got, ref)


@pytest.mark.parametrize("model", [UniformRademacher(), UniformQuadraticGauss(0.5)],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN], ids=lambda k: k.name)
def test_nadaraya_watson_cumulant_at_equal_exponents(kernel, model):
    # at q = a the tilt u s^(a-q) is u at every s, so psi^(j)(u) = f Z_j(u),
    # the Nadaraya-Watson cumulant: the averaged estimator with the
    # variance-minimising weights has the Nadaraya-Watson pointwise LDP; on
    # both paths
    for ctx in _both_paths(model, kernel, 0.3, 0.3):
        for u in _GRID_U:
            got = (cumulant(ctx, u), *cumulant_derivatives(ctx, u))
            for order, value in enumerate(got):
                nw = ctx.f_x * float(ctx._z_integrals(order, np.array([u]))[0])
                assert abs(value - nw) <= 1e-14 * abs(nw), (ctx.series, u, order, value, nw)


def test_rate_point_gaussian_kernel_and_noise():
    # the outer pass hands the inner pass tilts spread over [0, u]; the value
    # is the one the tau-form gave, before the outer substitution tau = sigma^k
    ctx = CumulantContext(UniformQuadraticGauss(0.5), GAUSSIAN, a=0.3, q=0.1, x=0.5)
    assert rate_point(ctx, 2.0)[0] == pytest.approx(14.693045275014114, rel=1e-9)


def test_gaussian_curvature_at_zero_analytic():
    ctx = CumulantContext(UniformQuadraticGauss(0.5), EPANECHNIKOV,
                          a=0.3, q=0.1, x=0.5)
    _, d2 = cumulant_derivatives(ctx, 0.0)
    expected = (1 - 0.1) / (1 + 0.3 - 0.2) * 0.25 * 0.6  # x (1/f) with f = 1
    assert abs(d2 - expected) < 1e-10


def test_finite_difference_consistency(cosh_ctx):
    delta = 1e-5
    for u in (-2.0, -0.5, 0.0, 1.0, 2.0):
        fd1 = (cumulant(cosh_ctx, u + delta) - cumulant(cosh_ctx, u - delta)) / (2 * delta)
        d1, d2 = cumulant_derivatives(cosh_ctx, u)
        assert abs(fd1 - d1) <= 1e-5 * max(1.0, abs(d1))
        up, _ = cumulant_derivatives(cosh_ctx, u + delta)
        dn, _ = cumulant_derivatives(cosh_ctx, u - delta)
        fd2 = (up - dn) / (2 * delta)
        assert abs(fd2 - d2) <= 1e-5 * max(1.0, abs(d2))


def test_rate_is_nonnegative_and_convex(cosh_ctx):
    ts = np.linspace(-1.5, 1.5, 13)
    vals = np.array([large_deviation_rate(cosh_ctx, t) for t in ts])
    assert np.all(vals >= -1e-12)
    mid = 0.5 * (vals[:-2] + vals[2:])
    assert np.all(vals[1:-1] <= mid + 1e-10)


def test_inverted_slope_matches_rate_derivative(cosh_ctx):
    delta = 1e-4
    for t in (0.25, 0.5, 1.0):
        u_star = invert_slope(cosh_ctx, t)
        fd = (large_deviation_rate(cosh_ctx, t + delta)
              - large_deviation_rate(cosh_ctx, t - delta)) / (2 * delta)
        assert abs(fd - u_star) <= 1e-4 * max(1.0, abs(u_star))


def test_conjugate_oracle_quadratic():
    got = conjugate_oracle(lambda u: u * u / 2.0, np.linspace(-6, 6, 301), 2.0)
    assert abs(got - 2.0) < 1e-9


def test_conjugate_oracle_matches_newton(cosh_ctx):
    grid = np.linspace(-4, 4, 161)
    for t in (0.5, 1.0):
        oracle = conjugate_oracle(lambda u: cumulant(cosh_ctx, u), grid, t)
        assert abs(oracle - closed_rate(t)) < 1e-6


def test_conjugate_oracle_boundary_detection():
    with pytest.raises(GridTooNarrowError):
        conjugate_oracle(lambda u: abs(u), np.linspace(-1, 1, 21), 2.0)
    with pytest.raises(GridTooNarrowError):
        conjugate_oracle(lambda u: u * u / 2, np.array([0.0, 1.0]), 0.5)


def test_moderate_rate_plugins():
    kw = dict(a=0.25, q=0.25, f_x=1.0, cond_var=1.0, kernel=EPANECHNIKOV)
    assert abs(moderate_rate(EstimatorKind.AVERAGED, **kw, t=1.0)
               - (4.0 / 3.0) * (1.0 / 0.6) * 0.5) < 1e-12
    assert abs(moderate_rate(EstimatorKind.NADARAYA_WATSON, **kw, t=1.0)
               - (1.0 / 0.6) * 0.5) < 1e-12
    assert abs(moderate_rate(EstimatorKind.SEMI_RECURSIVE, **kw, t=1.0)
               - 1.25 * (1.0 / 0.6) * 0.5) < 1e-12


def test_moderate_factor_reduction_at_equal_exponents():
    for a in (0.1, 0.25, 0.3):
        assert math.isclose(moderate_factor(EstimatorKind.AVERAGED, a, a),
                            1.0 / (1.0 - a), rel_tol=1e-14)


def test_moderate_rate_ordering():
    for a in np.arange(0.05, 0.5, 0.05):
        kw = dict(a=a, q=a, f_x=1.0, cond_var=1.0, kernel=EPANECHNIKOV)
        avg = moderate_rate(EstimatorKind.AVERAGED, **kw, t=1.0)
        semi = moderate_rate(EstimatorKind.SEMI_RECURSIVE, **kw, t=1.0)
        nw = moderate_rate(EstimatorKind.NADARAYA_WATSON, **kw, t=1.0)
        assert avg > semi > nw


def test_moderate_rate_degenerate_variance():
    def rate(t):
        return moderate_rate(EstimatorKind.AVERAGED, 0.3, 0.1, 1.0, 0.0, EPANECHNIKOV, t)

    assert rate(1.0) == math.inf
    assert rate(0.0) == 0.0


def test_quadratic_rate_edges():
    assert quadratic_rate(0.0, 0.0) == 0.0
    assert quadratic_rate(0.0, -1e-300) == math.inf
    assert quadratic_rate(0.15, 2.0) == 2.0 * 2.0 / (2.0 * 0.15)
    # t^2 past the float range: J = 0.5 t (t / sigma^2), not inf
    assert quadratic_rate(4.5e99, 1e160) == 0.5 * 1e160 * (1e160 / 4.5e99)
    assert math.isclose(quadratic_rate(4.5e99, -1e160), 1e221 / 9.0, rel_tol=1e-15)
    # t^2 below it, and 2 sigma^2 past it: J = 0.5 t (t / sigma^2), not 0
    assert math.isclose(quadratic_rate(1e-300, 1e-200), 5e-101, rel_tol=1e-15)
    assert math.isclose(quadratic_rate(1e308, 1e100), 5e-109, rel_tol=1e-15)
    # a J past the float range is an error, at t = 1 for sigma^2 < 2.8e-309
    with pytest.raises(NonConvergenceError, match=r"J\(t\) overflows a float at t = 1e\+200"):
        quadratic_rate(0.15, 1e200)
    with pytest.raises(NonConvergenceError, match="at t = 1.0$"):
        quadratic_rate(2.7e-309, 1.0)
    assert quadratic_rate(2.9e-309, 1.0) < math.inf


def test_asymptotic_variance_domain():
    # x outside the design support is a setting error, a negative variance a
    # programming error
    with pytest.raises(ValidationError, match="outside the support"):
        asymptotic_variance(EstimatorKind.AVERAGED, 0.3, 0.1, 0.0, 0.25, EPANECHNIKOV)
    with pytest.raises(ValueError, match="nonnegative"):
        asymptotic_variance(EstimatorKind.NADARAYA_WATSON, 0.3, 0.1, 1.0, -1.0,
                            EPANECHNIKOV)
    assert asymptotic_variance(EstimatorKind.SEMI_RECURSIVE, 0.3, 0.1, 2.0, 0.25,
                               EPANECHNIKOV) == 0.25 * 0.6 / (2.0 * 1.3)


def test_moderate_rate_properties():
    def rate(t):
        return moderate_rate(EstimatorKind.AVERAGED, 0.3, 0.1, 1.0, 0.25, EPANECHNIKOV, t)

    assert rate(0.0) == 0.0
    ts = np.linspace(-2, 2, 9)
    vals = np.array([rate(t) for t in ts])
    assert np.all(vals >= 0.0)
    mid = 0.5 * (vals[:-2] + vals[2:])
    assert np.all(vals[1:-1] < mid + 1e-15)


def test_centering_sweep_light():
    # psi(0) = 0 exactly and psi'(0) ~ 0 across models and kernels
    models = [UniformQuadraticGauss(0.5), UniformRademacher(), ConstantResponse(3.0)]
    for model in models:
        for kernel in (EPANECHNIKOV, UNIFORM):
            ctx = CumulantContext(model, kernel, a=0.3, q=0.1, x=0.5)
            assert cumulant(ctx, 0.0) == 0.0
            d1, d2 = cumulant_derivatives(ctx, 0.0)
            assert abs(d1) < 1e-9
            if model.cond_var(0.5) > 0:
                assert d2 > 0.0
            else:
                assert d2 == 0.0


class _DenseDesign(UniformQuadraticGauss):
    # f(x) = 2, so that the factors of f in the identity are put to the test
    name = "dense_design_gauss"

    def density(self, x):
        return 2.0


def _identity_derivatives(ctx, u):
    # (psi'(u), psi''(u)) from the cumulant ODE u psi' + kappa psi = kappa C Z_0
    # and its derivative, with kappa = (1-a)/(a-q) and C = (1-q) f/(1-a): psi by
    # nested quadrature of order 0, Z_j by one inner pass, no nested psi' or psi''
    a, q = ctx.a, ctx.q
    scale = (1.0 - q) * ctx.f_x / (1.0 - a)

    def z(order):
        return float(ctx._z_integrals(order, np.array([u]))[0])

    if q == a:
        return scale * z(1), scale * z(2)
    kappa = (1.0 - a) / (a - q)
    d1 = kappa * (scale * z(0) - cumulant(ctx, u)) / u
    return d1, (kappa * scale * z(1) - (1.0 + kappa) * d1) / u


@pytest.mark.parametrize("a, q", [(0.3, 0.1), (0.4, 0.1), (0.3, 0.2), (0.25, 0.25)])
@pytest.mark.parametrize("model", [UniformRademacher(), _DenseDesign(0.5)],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN],
                         ids=lambda k: k.name)
def test_derivatives_satisfy_cumulant_identity(kernel, model, a, q):
    # the identity subtracts close numbers, so it loses digits as u -> 0 and as
    # q -> a; measured worst cases over these contexts, at (a, q) = (0.3, 0.2)
    # and the dense design: 2.4e-8 (psi') and 1.7e-7 (psi'' from the
    # identity's psi')
    for ctx in _both_paths(model, kernel, a, q):
        for u in (-0.5, 2.0):
            d1, d2 = cumulant_derivatives(ctx, u)
            o1, o2 = _identity_derivatives(ctx, u)
            assert abs(o1 - d1) <= 1e-7 * abs(d1), (ctx.series, u, o1, d1)
            assert abs(o2 - d2) <= 5e-7 * abs(d2), (ctx.series, u, o2, d2)
        assert abs(ctx.curvature_at_zero - cumulant_derivatives(ctx, 0.0)[1]) \
            <= 1e-12 * ctx.curvature_at_zero


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM], ids=lambda k: k.name)
@pytest.mark.parametrize("a, q", [(0.3, 0.1), (0.25, 0.25)])
def test_newton_takes_nested_curvature(kernel, a, q):
    # on the nested path Newton takes psi'' from the nested integral of order
    # 2, as cumulant_derivatives does, and its root is the series path's
    series, nested = _both_paths(UniformQuadraticGauss(0.5), kernel, a, q)
    orders = []
    s_weighted = nested._s_weighted

    def counting(order, u):
        orders.append(order)
        return s_weighted(order, u)

    nested._s_weighted = counting
    for t in (-0.7, 0.5):
        orders.clear()
        u_star = invert_slope(nested, t)
        assert set(orders) == {1, 2}
        assert abs(s_weighted(1, u_star) - t) < 1e-10
        u_series = invert_slope(series, t)
        assert abs(u_star - u_series) <= 1e-8 * abs(u_series), (t, u_star, u_series)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, q", [(0.3, 0.1), (0.25, 0.25)])
@pytest.mark.parametrize("model", [UniformRademacher(), UniformQuadraticGauss(0.5)],
                         ids=["rademacher", "gauss"])
@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN], ids=lambda k: k.name)
def test_rate_is_finite_at_large_slopes(kernel, model, a, q):
    # psi' grows like sinh u (atoms) or u exp(c u^2) (Gaussian noise), so the
    # start t / psi''(0) lands far past the root; Newton on log psi' comes
    # back down in a few evaluations of the series psi' (at t = 1e150 from the
    # start cap, |u| = 1024, which is still past the root)
    ctx = CumulantContext(model, kernel, a=a, q=q, x=0.5)
    passes = []
    s_weighted = ctx._s_weighted

    def counting(order, u):
        passes[-1] += order == 1
        return s_weighted(order, u)

    ctx._s_weighted = counting
    for t in (-1e150, -1e6, -50.0, -0.5, 0.5, 50.0, 1e6, 1e150):
        passes.append(0)
        assert math.isfinite(rate_point(ctx, t)[0]), t
        assert passes[-1] <= 15, (t, passes[-1])


@pytest.mark.parametrize("sigma", [1e-31, 1e-150, 1e-158, 1e-160, 1e-161])
@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN], ids=lambda k: k.name)
def test_rate_is_reached_at_small_noise(kernel, sigma):
    # u* grows like 1/sigma (1.6e31 at sigma = 1e-30), far past the start cap
    # of 1024 doubled for the whole budget, and t / psi''(0) grows like
    # 1/sigma^2; the start at |u| <= psi''(0)^(-1/2) is on the scale of u*
    model = UniformQuadraticGauss(sigma)
    ctx = CumulantContext(model, kernel, a=0.3, q=0.1, x=0.5)
    for t in (-0.5, 1.0, 2.0):
        value, u_star, _ = rate_point(ctx, t)
        slope = psi_series(model, kernel, 0.3, 0.1, 0.5, u_star, 1)
        assert abs(slope - t) <= 1e-9 * abs(t), (t, slope)
        expected = t * u_star - psi_series(model, kernel, 0.3, 0.1, 0.5, u_star)
        assert math.isfinite(value) and abs(value - expected) <= 1e-12 * expected, \
            (t, value, expected)


def test_slope_outside_range_is_not_bracketed():
    # psi' = 0 for a point-mass law, so |u| doubles until the budget runs out
    ctx = CumulantContext(ConstantResponse(3.0), UNIFORM, a=0.3, q=0.1, x=0.5)
    for t in (-0.5, 0.5):
        with pytest.raises(NonConvergenceError, match="within 100 iterations"):
            invert_slope(ctx, t)


# the power series of psi checks the nested quadrature away from q = a, where
# no other closed form is known
_SERIES_EXPONENTS = [(0.3, 0.1), (0.25, 0.2), (0.3, 0.2999), (0.2, 0.0), (0.25, 0.25)]


@pytest.mark.parametrize("a, q", _SERIES_EXPONENTS)
@pytest.mark.parametrize("model", [UniformRademacher(), UniformQuadraticGauss(0.5)],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN], ids=lambda k: k.name)
def test_cumulant_matches_power_series(kernel, model, a, q):
    ctx = CumulantContext(model, kernel, a=a, q=q, x=0.5)
    us = [-20.0, -2.0, 0.3, 1.0, 5.0, 30.0]
    if isinstance(model, UniformRademacher):
        us += [-200.0, 200.0]
    for u in us:
        for order, value in enumerate((cumulant(ctx, u), *cumulant_derivatives(ctx, u))):
            expected = psi_series(model, kernel, a, q, 0.5, u, order)
            assert abs(value - expected) <= 1e-12 * abs(expected), (u, order, value)


@pytest.mark.parametrize("a, q", _SERIES_EXPONENTS)
@pytest.mark.parametrize("model", [UniformRademacher(), UniformQuadraticGauss(0.5)],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN], ids=lambda k: k.name)
def test_rate_matches_power_series(kernel, model, a, q):
    def series(u, order):
        return psi_series(model, kernel, a, q, 0.5, u, order)

    ctx = CumulantContext(model, kernel, a=a, q=q, x=0.5)
    for t in (0.1, 0.5, 1.0, 2.0):
        # Newton on the series slope: psi' is convex on u > 0 for these
        # symmetric laws, so from t / psi''(0), right of the root, it falls
        # monotonically onto it
        u = t / series(0.0, 2)
        for _ in range(100):
            step = (series(u, 1) - t) / series(u, 2)
            u -= step
            if abs(step) <= 1e-14 * u:
                break
        expected = t * u - series(u, 0)
        assert abs(rate_point(ctx, t)[0] - expected) <= 1e-12 * expected, t


class _SkewAtoms(Model):
    """Y = -1 with probability 2/3 and 2 with probability 1/3: r(x) = 0, and
    the odd moments of Y do not vanish."""

    name = "skew_atoms"

    def curvature(self, x):
        return 0.0

    def cond_law(self, x):
        return DiscreteAtoms((-1.0, 2.0), (2.0 / 3.0, 1.0 / 3.0))


@pytest.mark.parametrize("model_name", MODEL_NAMES)
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_builtin_laws_and_kernels_sum_the_power_series(kernel_name, model_name):
    ctx = CumulantContext(get_model(model_name), get_kernel(kernel_name),
                          a=0.3, q=0.1, x=0.5)
    assert ctx.series


@pytest.mark.parametrize("model, kernel", [
    (UniformRademacher(), _WIDE_BOX), (_SkewAtoms(), EPANECHNIKOV), (_SkewAtoms(), UNIFORM),
], ids=["wide_box", "skew-epanechnikov", "skew-uniform"])
def test_nested_path_without_closed_form_or_symmetry(model, kernel):
    # a kernel with no closed-form int K^k, or a law whose odd moments do not
    # vanish (its series terms change sign), takes the nested quadrature
    ctx = CumulantContext(model, kernel, a=0.3, q=0.1, x=0.5)
    assert not ctx.series
    if kernel.log_power_integral is not None:
        for u in (-2.0, 0.5, 3.0):
            for order in range(3):
                expected = psi_series(model, kernel, 0.3, 0.1, 0.5, u, order)
                assert abs(ctx._s_weighted(order, u) - expected) <= 1e-10 * abs(expected)


@pytest.mark.parametrize("a, q", _SERIES_EXPONENTS)
@pytest.mark.parametrize("model", [UniformRademacher(), UniformQuadraticGauss(0.5)],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN], ids=lambda k: k.name)
def test_series_rate_matches_nested_rate(kernel, model, a, q):
    # the nested engine's own tolerance, 1e-10 relative, and at most 8 nested
    # psi' passes per point, the worst case measured on this grid; both fixed
    # before the run
    series, nested = _both_paths(model, kernel, a, q)
    assert series.series and not nested.series
    passes = []
    s_weighted = nested._s_weighted

    def counting(order, u):
        passes[-1] += order == 1
        return s_weighted(order, u)

    nested._s_weighted = counting
    for t in (-2.0, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0, 5.0):
        passes.append(0)
        got, want = rate_point(series, t)[0], rate_point(nested, t)[0]
        assert abs(got - want) <= 1e-10 * want, (t, got, want)
        assert passes[-1] <= 8, (t, passes[-1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", [UniformRademacher(), UniformQuadraticGauss(0.5)],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN], ids=lambda k: k.name)
def test_series_past_the_float_range_is_infinite(kernel, model):
    # psi^(j) grows up to the largest float and is +-inf past it, with no
    # OverflowError and no numpy warning: the bisection finds where, and
    # passes both the window of terms (near that point) and the one term at
    # the peak (far past it); just below that point the window does not
    # start at the first term
    ctx = CumulantContext(model, kernel, a=0.3, q=0.1, x=0.5)
    for order in range(3):
        lo, hi = 1.0, 1.7e308
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if math.isinf(ctx._s_weighted(order, mid)) else (mid, hi)
        value = ctx._s_weighted(order, lo)
        assert 1e307 < value < math.inf, (order, lo)
        expected = psi_series(model, kernel, 0.3, 0.1, 0.5, lo, order)
        assert abs(value - expected) <= 1e-12 * expected, (order, lo, value, expected)
        for u in (hi, 1e5, 1e150, 1.7e308):
            assert ctx._s_weighted(order, u) == math.inf, (u, order)
            assert ctx._s_weighted(order, -u) == (-math.inf if order % 2 else math.inf)


def test_rate_that_overflows_a_float_raises():
    # psi'(u*) = t = 1e308 at u* ~ 714.96, so t u* - psi(u*) is past the range
    ctx = CumulantContext(UniformRademacher(), UNIFORM, a=0.3, q=0.1, x=0.5)
    with pytest.raises(NonConvergenceError, match=r"I\(t\) overflows a float at u = 71\d\.\d"):
        rate_point(ctx, 1e308)


@st.composite
def _admissible_draws(draw):
    """(model, kernel, a, q, x, t): (a, q) admissible at alpha = 1 with
    q <= a, q = a drawn on its own; Gaussian noise with sigma = 10^s for s in
    [-160, log10 30], or Rademacher noise; t = +-10^e for e in [-8, 300]."""
    a = draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    if a < 1.0 / 3.0 and draw(st.booleans()):
        q = a
    else:
        q = draw(st.floats(-1.0, min(a, 1.0 - 2.0 * a), exclude_max=True))
    assume(not ScheduleConfig(alpha=1.0, a=a, q=q).validate())
    if draw(st.booleans()):
        model = UniformQuadraticGauss(10.0 ** draw(st.floats(-160.0, math.log10(30.0))))
    else:
        model = UniformRademacher()
    kernel = get_kernel(draw(st.sampled_from(sorted(KERNELS))))
    x = draw(st.floats(0.01, 0.99, exclude_min=True, exclude_max=True))
    t = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-8.0, 300.0))
    return model, kernel, a, q, x, t


# the bounds and the example count were fixed before the first run; the
# worst I gap over these examples is 7.1e-15 relative
@settings(max_examples=200, derandomize=True, deadline=None)
@given(draw=_admissible_draws())
def test_rate_point_over_the_admissible_region(draw):
    # rate_point meets psi'(u*) = t and I = t u* - psi(u*) against the
    # independent power series, or says that I(t) is past the float range
    model, kernel, a, q, x, t = draw
    ctx = CumulantContext(model, kernel, a=a, q=q, x=x)
    try:
        value, u_star, _ = rate_point(ctx, t)
    except NonConvergenceError as exc:
        at = re.fullmatch(r"I\(t\) overflows a float at u = (\S+)", str(exc))
        assert at, exc
        u = float(at[1])
        # log(t u - psi(u)), with t u >= psi(u) > 0 on the side of t
        log_tu = math.log(abs(t)) + math.log(abs(u))
        log_psi = psi_series(model, kernel, a, q, x, u, log=True)
        log_rate = log_tu + math.log1p(-math.exp(log_psi - log_tu))
        assert log_rate > math.log(sys.float_info.max), (u, log_tu, log_psi)
        return
    slope = psi_series(model, kernel, a, q, x, u_star, 1)
    assert abs(slope - t) <= 1e-10 * max(1.0, abs(t)), (u_star, slope)
    expected = t * u_star - psi_series(model, kernel, a, q, x, u_star)
    assert abs(value - expected) <= 1e-12 * expected, (u_star, value, expected)


# K(z) = |z| on [-1, 1], with int K^k = 2/(k+1): K(0) = 0 is not the largest
# K, so the largest term lies past the window placed from K(0)
_V_KERNEL = Kernel("v", lambda z: np.where(np.abs(z) <= 1.0, np.abs(z), 0.0),
                   squared_integral=2.0 / 3.0, second_moment=0.5, support_radius=1.0,
                   log_power_integral=lambda k: np.log(2.0 / (k + 1.0)))


class _FarAtoms(Model):
    """Y = +-1/2, and +-1 with a mass of 1e-300 (symmetric): at |u| = 1200
    the largest term comes from the bulk, near half the k that max|w| puts it."""

    name = "far_atoms"

    def curvature(self, x):
        return 0.0

    def cond_law(self, x):
        return DiscreteAtoms((-1.0, -0.5, 0.5, 1.0), (0.5e-300, 0.5, 0.5, 0.5e-300))


def test_series_window_grows_toward_larger_k():
    series, nested = _both_paths(UniformRademacher(), _V_KERNEL, 0.3, 0.1)
    assert series.series and not nested.series
    for u in (-40.0, 5.0, 150.0, 400.0):
        for order in range(3):
            want = nested._s_weighted(order, u)
            assert abs(series._s_weighted(order, u) - want) <= 1e-10 * abs(want), (u, order)


def test_series_window_grows_toward_smaller_k():
    ctx = CumulantContext(_FarAtoms(), UNIFORM, a=0.3, q=0.1, x=0.5)
    assert ctx.series
    for u in (-1200.0, 3.0, 1200.0):
        for order in range(3):
            expected = psi_series(_FarAtoms(), UNIFORM, 0.3, 0.1, 0.5, u, order)
            assert abs(ctx._s_weighted(order, u) - expected) <= 1e-12 * abs(expected), (u, order)
