import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regrates.schedules import ScheduleConfig, ValidationError


def _validate(alpha, a, q):
    return ScheduleConfig(alpha=alpha, a=a, q=q).validate()


def test_sequence_value_examples():
    assert math.isclose(ScheduleConfig(c=1.0, a=0.3).bandwidth(8), 0.535886731,
                        rel_tol=1e-8)
    assert ScheduleConfig(q=0.0).weight(17) == 1.0
    assert ScheduleConfig(gamma0=1.0, alpha=1.0).stepsize(4) == 0.25


def test_sequence_value_rejects_zero():
    with pytest.raises(ValueError):
        ScheduleConfig().bandwidth(0)


def test_unvalidated_constant_raises_on_evaluation():
    with pytest.raises(ValueError, match="constant must be positive"):
        ScheduleConfig(c=-1.0).bandwidth(4)


@pytest.mark.parametrize("exponent", [0.0, 0.3, 0.9])
def test_regular_variation_limit(exponent):
    bandwidth = ScheduleConfig(c=1.0, a=exponent).bandwidth
    n = 10**6
    lim = n * (1.0 - bandwidth(n - 1) / bandwidth(n))
    assert abs(lim - (-exponent)) < 1e-4


@pytest.mark.parametrize("exponent", [0.0, 0.25, 0.5])
def test_ratio_to_partial_sum(exponent):
    n = 10**5
    values = ScheduleConfig(c=1.0, a=exponent).bandwidth(np.arange(1, n + 1))
    ratio = n * values[-1] / np.sum(values)
    assert abs(ratio - (1.0 - exponent)) < 1e-2


def test_default_schedule_is_admissible():
    sched = ScheduleConfig()
    assert sched.alpha < 1
    assert sched.validate() == {}


def test_validate_ok():
    assert _validate(1.0, 0.3, 0.1) == {}


def test_validate_bandwidth_out_of_range():
    # a = 0.6 also leaves no room for q: 1 - 2a < 0
    assert _validate(1.0, 0.6, 0.1) == {
        "bandwidth_exponent": "bandwidth_exponent: value 0.6 violates a in (0, 0.5)",
        "weight_exponent": "weight_exponent: value 0.1 violates "
                           "q < min(1-2a, (1+a)/2) = -0.2",
    }


def test_validate_empty_interval():
    assert _validate(0.8, 0.25, 0.0) == {
        "bandwidth_interval_empty": "bandwidth_interval_empty: value 0.25 violates "
                                    "(1-alpha, (4*alpha-3)/2) = (0.2, 0.1) is empty; "
                                    "need alpha > 5/6",
    }


def test_validate_alpha_and_weight():
    violations = _validate(0.5, 0.3, 0.5)
    assert violations == {
        "stepsize_exponent": "stepsize_exponent: value 0.5 violates alpha in (3/4, 1]",
        "weight_exponent": "weight_exponent: value 0.5 violates "
                           "q < min(1-2a, (1+a)/2) = 0.4",
    }
    assert list(violations) == ["stepsize_exponent", "weight_exponent"]  # check order


@settings(max_examples=50)
@given(
    alpha=st.floats(5 / 6 + 1e-6, 1.0, exclude_min=True),
    u=st.floats(0.01, 0.99),
    w=st.floats(0.01, 0.99),
)
def test_interior_points_always_valid(alpha, u, w):
    lo, hi = 1.0 - alpha, (4.0 * alpha - 3.0) / 2.0
    a = lo + u * (hi - lo)
    if not lo < a < hi:
        return  # u at the float boundary
    q = w * min(1.0 - 2.0 * a, (1.0 + a) / 2.0) - 1e-9
    assert _validate(alpha, a, q) == {}


def test_schedule_values_and_validation():
    sched = ScheduleConfig(alpha=0.95, a=0.3, q=0.1, c=2.0, gamma0=3.0)
    assert sched.validate() == {}
    assert math.isclose(sched.bandwidth(8), 2.0 * 8**-0.3)
    assert math.isclose(sched.stepsize(10), 3.0 * 10**-0.95)
    assert math.isclose(sched.weight(4), 4**-0.1)
    np.testing.assert_allclose(sched.bandwidth(np.array([1, 8])),
                               [2.0, 2.0 * 8**-0.3])


def test_schedule_ensure_valid_raises():
    with pytest.raises(ValidationError, match="bandwidth_exponent"):
        ScheduleConfig(a=0.6).ensure_valid()
    with pytest.raises(ValidationError, match="positive_c"):
        ScheduleConfig(c=-1.0).ensure_valid()
    assert ScheduleConfig(gamma0=math.nan).validate() == {
        "positive_gamma0": "positive_gamma0: value nan violates gamma0 > 0"}
