import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regrates.kernels import EPANECHNIKOV, GAUSSIAN, KERNELS, UNIFORM, get_kernel
from regrates.quadrature import QuadratureSpec, integrate_1d


def test_evaluate_examples():
    assert EPANECHNIKOV(0.0) == 0.75
    assert EPANECHNIKOV(1.5) == 0.0
    assert abs(GAUSSIAN(0.0) - 1.0 / math.sqrt(2 * math.pi)) < 1e-12
    assert UNIFORM(0.25) == 1.0
    assert UNIFORM(0.75) == 0.0


def test_constant_triples():
    for kernel, expected in ((EPANECHNIKOV, (0.6, 0.2, 2.0)),
                             (UNIFORM, (1.0, 1.0 / 12.0, 1.0))):
        assert (kernel.squared_integral, kernel.second_moment,
                kernel.support_measure_positive) == expected
    assert abs(GAUSSIAN.squared_integral - 1.0 / (2 * math.sqrt(math.pi))) < 1e-15
    assert GAUSSIAN.second_moment == 1.0
    assert math.isinf(GAUSSIAN.support_measure_positive)


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN],
                         ids=lambda k: k.name)
def test_stored_constants_match_quadrature(kernel):
    radius = kernel.support_radius if math.isfinite(kernel.support_radius) else 12.0
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    mass, _ = integrate_1d(kernel.fn, -radius, radius, spec)
    mean, _ = integrate_1d(lambda z: z * kernel.fn(z), -radius, radius, spec)
    sq, _ = integrate_1d(lambda z: kernel.fn(z) ** 2, -radius, radius, spec)
    second, _ = integrate_1d(lambda z: z * z * kernel.fn(z), -radius, radius, spec)
    assert abs(mass - 1.0) < 1e-8
    assert abs(mean) < 1e-8
    assert abs(sq - kernel.squared_integral) < 1e-8
    assert abs(second - kernel.second_moment) < 1e-8


@given(z=st.floats(-20, 20))
def test_even_and_nonnegative(z):
    for kernel in KERNELS.values():
        assert kernel(z) >= 0.0
        assert kernel(z) == kernel(-z)


def test_vectorized_evaluate():
    z = np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
    np.testing.assert_allclose(
        EPANECHNIKOV(z), [0.0, 0.5625, 0.75, 0.5625, 0.0]
    )


def test_compact_support_is_exact_zero():
    assert EPANECHNIKOV(1.0) == 0.0
    assert EPANECHNIKOV(-37.0) == 0.0
    assert UNIFORM(0.5000001) == 0.0


def test_registry():
    assert get_kernel("Epanechnikov") is EPANECHNIKOV
    assert get_kernel("uniform") is UNIFORM
    with pytest.raises(ValueError, match="unknown kernel"):
        get_kernel("triangle")


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN],
                         ids=lambda k: k.name)
def test_log_power_integral_matches_quadrature(kernel):
    # log int K^k: 0 at k = 1, log int K^2 at k = 2, and int K^k by quadrature
    # up to k = 12
    k = np.arange(1, 13)
    logs = kernel.log_power_integral(k)
    assert logs[0] == pytest.approx(0.0, abs=1e-14)
    assert logs[1] == pytest.approx(math.log(kernel.squared_integral), abs=1e-14)
    radius = kernel.support_radius if math.isfinite(kernel.support_radius) else 12.0
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12)
    for power, log in zip(k, logs):
        value, _ = integrate_1d(lambda z: kernel.fn(z) ** power, -radius, radius, spec)
        assert math.exp(log) == pytest.approx(value, rel=1e-10), power
