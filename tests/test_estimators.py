import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regrates.estimators import BLOCK_ROWS, EstimatorState, nadaraya_watson
from regrates.kernels import EPANECHNIKOV, GAUSSIAN, UNIFORM
from regrates.schedules import ScheduleConfig


def _flat_schedule():
    # gamma_n = n^-1, h_n = n^-0.3, q_n = n^-0.3
    return ScheduleConfig(alpha=1.0, a=0.3, q=0.3, c=1.0, gamma0=1.0)


def test_one_step_in_support():
    sched = ScheduleConfig(alpha=1.0, a=0.0, q=0.0, gamma0=0.5)  # gamma1=0.5, h=1
    state = EstimatorState([0.0], sched, UNIFORM, r0=0.0)
    state.update(0.2, 2.0)
    assert state.current()[0] == 1.0  # 0.5 * 2


def test_one_step_out_of_support():
    sched = ScheduleConfig(alpha=1.0, a=0.0, q=0.0, gamma0=0.5)
    state = EstimatorState([0.0], sched, UNIFORM, r0=0.0)
    state.update(0.9, 2.0)
    assert state.current()[0] == 0.0


def test_two_step_recursion_frozen():
    # hand evaluation of the recursion with gamma_n = 1/n, h_n = n^-0.3,
    # epanechnikov, observations (0.2, 2.0) then (-0.5, 1.0) at x = 0
    state = EstimatorState([0.0], _flat_schedule(), EPANECHNIKOV, r0=0.0)
    state.update(0.2, 2.0)
    assert math.isclose(state.current()[0], 1.44, rel_tol=1e-15)
    state.update(-0.5, 1.0)
    assert math.isclose(state.current()[0], 1.3138363935998754, rel_tol=1e-12)
    assert math.isclose(state.averaged()[0], 1.3834534108838876, rel_tol=1e-12)
    assert math.isclose(state.semi_recursive()[0], 1.5566418067434595,
                        rel_tol=1e-12)


def test_averaged_equal_weights_is_mean():
    sched = ScheduleConfig(alpha=1.0, a=0.3, q=0.0)
    state = EstimatorState([0.5], sched, EPANECHNIKOV, r0=0.0)
    rng = np.random.default_rng(11)
    history = []
    for _ in range(50):
        state.update(rng.random(), rng.normal())
        history.append(state.current()[0])
    assert math.isclose(state.averaged()[0], np.mean(history), rel_tol=1e-12)


def test_averaged_single_observation():
    state = EstimatorState([0.5], _flat_schedule(), EPANECHNIKOV, r0=0.0)
    state.update(0.5, 2.0)
    assert state.averaged()[0] == state.current()[0]


def test_averaged_requires_observation():
    state = EstimatorState([0.5], _flat_schedule(), EPANECHNIKOV)
    with pytest.raises(ValueError):
        state.averaged()
    with pytest.raises(ValueError):
        state.semi_recursive()


def test_streaming_average_matches_stored_history():
    sched = ScheduleConfig(alpha=1.0, a=0.25, q=0.15)
    state = EstimatorState([0.4, 0.6], sched, EPANECHNIKOV, r0=0.3)
    rng = np.random.default_rng(5)
    hist = []
    for n in range(1, 1001):
        state.update(rng.random(), rng.normal())
        hist.append(state.current())
    hist = np.array(hist)
    q = np.arange(1, 1001.0) ** -0.15
    direct = (q[:, None] * hist).sum(axis=0) / q.sum()
    np.testing.assert_allclose(state.averaged(), direct, rtol=1e-12)


def test_fixed_point_is_exact():
    sched = ScheduleConfig(alpha=1.0, a=0.3, q=0.1)
    state = EstimatorState([0.3, 0.5, 0.7], sched, EPANECHNIKOV, r0=3.0)
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        state.update(rng.random(), 3.0)
    assert np.all(state.current() == 3.0)
    assert np.all(state.averaged() == 3.0)


def test_locality_is_exact():
    sched = _flat_schedule()
    state = EstimatorState([0.5], sched, EPANECHNIKOV, r0=0.7)
    state.update(0.5, 1.0)
    before = state.current()[0]
    h2 = sched.bandwidth(2)
    state.update(0.5 + h2 * EPANECHNIKOV.support_radius * 1.0001, 5.0)
    assert state.current()[0] == before


@settings(max_examples=30, deadline=None)
@given(offset=st.floats(1.0001, 50.0), y=st.floats(-100, 100))
def test_locality_any_magnitude(offset, y):
    sched = _flat_schedule()
    state = EstimatorState([0.0], sched, EPANECHNIKOV, r0=0.25)
    x_out = sched.bandwidth(1) * EPANECHNIKOV.support_radius * offset
    state.update(x_out, y)
    assert state.current()[0] == 0.25


def test_gain_above_one_permitted():
    # gamma1/h1 * K(0) = 5 * 0.75 > 1; the update still follows the formula
    sched = ScheduleConfig(alpha=1.0, a=0.0, q=0.0, gamma0=5.0)
    state = EstimatorState([0.5], sched, EPANECHNIKOV, r0=0.0)
    state.update(0.5, 1.0)
    assert math.isclose(state.current()[0], 3.75, rel_tol=1e-15)


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, GAUSSIAN],
                         ids=lambda k: k.name)
def test_lane_batch_matches_scalar_states(kernel):
    # lane and scalar states, fed one step at a time and in row blocks: a
    # block from n = 1, a single step, and one longer than BLOCK_ROWS
    sched = ScheduleConfig(alpha=0.95, a=0.3, q=0.1, c=2.0, gamma0=3.0)
    steps = 2 * BLOCK_ROWS + 40
    cuts = (0, 3, 4, steps)
    rng = np.random.default_rng(17)
    xs = rng.random((steps, 3))
    ys = rng.normal(size=(steps, 3))

    def state(lanes=None):
        return EstimatorState([0.4, 0.6], sched, kernel, r0=0.4, lanes=lanes)

    batch, batch_blocks = state(3), state(3)
    singles = [state() for _ in range(3)]
    single_blocks = [state() for _ in range(3)]
    for i in range(steps):
        batch.update(xs[i], ys[i])
        for j, s in enumerate(singles):
            s.update(xs[i, j], ys[i, j])
    for lo, hi in zip(cuts, cuts[1:]):
        batch_blocks.update(xs[lo:hi], ys[lo:hi])
        for j, s in enumerate(single_blocks):
            s.update(xs[lo:hi, j], ys[lo:hi, j])
    assert batch.n == steps
    for lanes in (batch, batch_blocks):
        for scalars in (singles, single_blocks):
            for j, s in enumerate(scalars):
                assert (s.n, s.qsum) == (lanes.n, lanes.qsum)
                np.testing.assert_array_equal(lanes.current()[:, j], s.current())
                np.testing.assert_array_equal(lanes.averaged()[:, j],
                                              s.averaged())
                np.testing.assert_array_equal(lanes.semi_recursive()[:, j],
                                              s.semi_recursive())


def test_nw_equal_points_gives_mean():
    y = np.array([1.0, 2.0, 4.0])
    x = np.full(3, 0.5)
    got = nadaraya_watson(x, y, 0.4, 0.5, EPANECHNIKOV)
    assert math.isclose(got, y.mean(), rel_tol=1e-14)


def test_nw_empty_support_returns_zero():
    got = nadaraya_watson([0.9, 0.95], [5.0, 6.0], 0.01, 0.1, EPANECHNIKOV)
    assert got == 0.0


def test_nw_three_point_frozen():
    data_x = [0.1, 0.3, 0.9]
    data_y = [1.0, 2.0, -1.0]
    got = nadaraya_watson(data_x, data_y, 0.4, 0.25, EPANECHNIKOV)
    assert math.isclose(got, 181.0 / 118.0, rel_tol=1e-14)


def test_nw_rejects_bad_input():
    with pytest.raises(ValueError):
        nadaraya_watson([], [], 0.4, 0.25, EPANECHNIKOV)
    with pytest.raises(ValueError):
        nadaraya_watson([0.1], [1.0], 0.0, 0.25, EPANECHNIKOV)


def test_semi_recursive_single_observation():
    sched = ScheduleConfig(alpha=1.0, a=0.0, q=0.0)  # h = 1
    state = EstimatorState([0.0], sched, UNIFORM, r0=0.0)
    state.update(0.3, 4.0)
    assert state.semi_recursive()[0] == 4.0


def test_semi_recursive_no_hits_returns_zero():
    state = EstimatorState([0.0], _flat_schedule(), UNIFORM, r0=0.0)
    state.update(0.9, 4.0)
    assert state.semi_recursive()[0] == 0.0


def test_state_without_semi_recursive_sums():
    # r_n and avg_n do not read the sums, so they keep their bits without
    # them; the ratio that was never formed raises instead of reading as zero
    sched = ScheduleConfig(alpha=0.95, a=0.3, q=0.1, c=2.0, gamma0=3.0)
    rng = np.random.default_rng(5)
    xs = rng.random((BLOCK_ROWS + 9, 3))
    ys = rng.normal(size=xs.shape)
    full, lean = (EstimatorState([0.4, 0.6], sched, EPANECHNIKOV, r0=0.4,
                                 lanes=3, semi_recursive=keep)
                  for keep in (True, False))
    for state in (full, lean):
        state.update(xs, ys)
    np.testing.assert_array_equal(lean.current(), full.current())
    np.testing.assert_array_equal(lean.averaged(), full.averaged())
    with pytest.raises(ValueError, match="semi_recursive=False"):
        lean.semi_recursive()


def test_consistency_median_error_shrinks():
    # soft statistical check: averaged estimates tighten as n grows
    from regrates.experiments import ExperimentPlan, _simulate
    from regrates.models import UniformQuadraticGauss

    sched = ScheduleConfig(alpha=0.92, a=0.3, q=0.1, c=2.0, gamma0=5.0)
    plan = ExperimentPlan(
        model=UniformQuadraticGauss(0.5), schedule=sched, kernel=EPANECHNIKOV,
        x_points=(0.5,), n_list=(1000, 10000, 100000), replicates=200,
        master_seed=99, r0=0.25,
    )
    sims = _simulate(plan, threads=4)
    medians = [np.median(np.abs(sims[n][0] - 0.25))
               for n in (1000, 10000, 100000)]
    assert medians[0] > medians[1] > medians[2]
