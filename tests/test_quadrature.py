import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regrates.quadrature import NonConvergenceError, QuadratureSpec, integrate_1d


SCALAR_CASES = [
    (lambda s: s**-0.3, 0.0, 1.0),
    (lambda z: 0.75 * (1.0 - z * z), -1.0, 1.0),
    (np.exp, 0.0, 1.0),
    (lambda x: np.cos(50.0 * x), 0.0, 10.0),
    (lambda x: np.abs(x - 0.3), -1.0, 2.0),
]


def test_power_rule_endpoint_singularity():
    value, err = integrate_1d(lambda s: s**-0.3, 0.0, 1.0)
    assert abs(value - 1.0 / 0.7) < 1e-9
    assert err >= abs(value - 1.0 / 0.7)


def test_kernel_normalization():
    value, err = integrate_1d(lambda z: 0.75 * (1.0 - z * z), -1.0, 1.0)
    assert abs(value - 1.0) < 1e-12
    assert err >= abs(value - 1.0)


def test_exponential():
    value, err = integrate_1d(np.exp, 0.0, 1.0)
    assert abs(value - (math.e - 1.0)) < 1e-12
    assert err >= abs(value - (math.e - 1.0))


@pytest.mark.parametrize("f, lo, hi", SCALAR_CASES)
def test_stacked_rows_reproduce_scalar_bits(f, lo, hi):
    value, err = integrate_1d(f, lo, hi)
    values, errs = integrate_1d(lambda x: np.stack([f(x)] * 3), lo, hi)
    assert type(value) is float and type(err) is float
    assert values.shape == errs.shape == (3,)
    assert values.tolist() == [value] * 3
    assert errs.tolist() == [err] * 3


def test_mixed_rows_meet_their_own_tolerance():
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)
    values, errs = integrate_1d(
        lambda x: np.stack([np.exp(x), x**-0.3, np.zeros_like(x)]), 0.0, 1.0, spec)
    exact = np.array([math.e - 1.0, 1.0 / 0.7, 0.0])
    tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(values))
    assert np.all(errs <= tol)
    assert np.all(np.abs(values - exact) <= errs)
    assert values[2] == 0.0 and errs[2] == 0.0


def test_small_row_is_not_starved_by_a_large_one():
    # the large row's error sits at its noise floor, far above the small row's
    # tolerance in absolute terms; ranking segments by absolute error kept
    # bisecting the large row until the budget ran out
    values, errs = integrate_1d(
        lambda x: np.stack([1e10 * np.exp(-50.0 * (x - 0.3) ** 2), np.sqrt(x)]),
        0.0, 1.0)
    root = math.sqrt(50.0)
    exact = np.array([1e10 * math.sqrt(math.pi / 50.0) / 2.0
                      * (math.erf(0.7 * root) + math.erf(0.3 * root)), 2.0 / 3.0])
    assert np.all(errs <= np.maximum(1e-10, 1e-10 * np.abs(values)))
    assert np.all(np.abs(values - exact) <= 1e-10 * exact)


def test_strong_singularity_converges():
    spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=8000)
    value, _ = integrate_1d(lambda s: s**-0.9, 0.0, 1.0, spec)
    assert abs(value - 10.0) < 1e-6


@pytest.mark.parametrize("degree", range(14))
def test_polynomial_exactness(degree):
    rng = np.random.default_rng(degree)
    coeffs = rng.uniform(-2, 2, degree + 1)
    poly = np.polynomial.Polynomial(coeffs)
    value, _ = integrate_1d(poly, -1.0, 2.0)
    exact = poly.integ()(2.0) - poly.integ()(-1.0)
    assert abs(value - exact) <= 1e-13 * max(1.0, abs(exact))


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-3, 3),
    b=st.floats(-3, 3),
    c=st.floats(-3, 3),
    lo=st.floats(-4, 1),
    width=st.floats(0.1, 5),
)
def test_cubic_matches_antiderivative(a, b, c, lo, width):
    hi = lo + width
    value, _ = integrate_1d(lambda x: a * x**2 + b * x + c, lo, hi)
    anti = lambda x: a * x**3 / 3 + b * x**2 / 2 + c * x
    assert math.isclose(value, anti(hi) - anti(lo), rel_tol=1e-11, abs_tol=1e-11)


def test_zero_integrand_is_exact_and_cheap():
    value, err = integrate_1d(lambda x: np.zeros_like(x), 0.0, 1.0)
    assert value == 0.0
    assert err == 0.0


@pytest.mark.parametrize("stacked", [False, True], ids=["scalar", "vector"])
def test_subdivision_budget_exhausted(stacked):
    # a flat row converges in one segment; the budget counts shared segments
    def f(x):
        hard = np.cos(200.0 * x)
        return np.stack([np.ones_like(x), hard]) if stacked else hard

    spec = QuadratureSpec(max_subdivisions=4)
    with pytest.raises(NonConvergenceError):
        integrate_1d(f, 0.0, 10.0, spec)


def test_infinite_bounds_rejected():
    with pytest.raises(ValueError):
        integrate_1d(np.exp, 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate_1d(np.exp, 1.0, 0.0)


@pytest.mark.parametrize("stacked", [False, True], ids=["scalar", "vector"])
def test_nonfinite_integrand_propagates(stacked):
    def f(x):
        blowup = np.exp(2000.0 * x)
        return np.stack([np.exp(x), blowup]) if stacked else blowup

    with np.errstate(over="ignore"):
        value, err = integrate_1d(f, 0.0, 1.0)
    assert np.isinf(np.atleast_1d(value)[-1])
    assert np.all(np.isinf(err))


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
