import numpy as np
import pytest

from regrates.experiments import ExperimentPlan, run_bias_experiment
from regrates.kernels import EPANECHNIKOV, GAUSSIAN, UNIFORM
from regrates.models import (
    ConstantResponse,
    DiscreteAtoms,
    GaussianNoise,
    UniformQuadraticGauss,
    UniformRademacher,
    get_model,
)
from regrates.ratefn import CumulantContext
from regrates.schedules import ScheduleConfig


def test_truth_triples():
    def truth(model):
        x = 0.5
        return (model.density(x), model.regression(x), model.cond_var(x),
                model.curvature(x))

    assert truth(UniformQuadraticGauss(0.5)) == (1.0, 0.25, 0.25, 1.0)
    assert truth(UniformRademacher()) == (1.0, 0.0, 1.0, 0.0)
    assert truth(ConstantResponse(3.0)) == (1.0, 3.0, 0.0, 0.0)


def test_truth_outside_support():
    model = UniformRademacher()
    assert model.density(1.5) == model.density(0.0) == 0.0


def test_curvature_tracks_kernel_moment():
    # the model's part of m2 takes no kernel; the bias oracle applies int z^2 K
    model = UniformQuadraticGauss(0.1)
    assert model.curvature(0.4) == 1.0
    sched = ScheduleConfig(alpha=0.92, a=0.3, q=0.1, c=2.0, gamma0=5.0)
    for kernel in (EPANECHNIKOV, UNIFORM, GAUSSIAN):
        plan = ExperimentPlan(model=model, schedule=sched, kernel=kernel, x_points=(0.4,),
                              n_list=(10,), replicates=2, master_seed=0)
        row = run_bias_experiment(plan).rows[0]
        assert row["oracle_ratio"] == (1.0 - 0.1) / (1.0 - 0.1 - 2 * 0.3) * kernel.second_moment


def test_sample_supports():
    rng = np.random.default_rng(0)
    (x,), (y,) = ConstantResponse(3.0).sample_batch(rng, 1)
    assert 0.0 <= x <= 1.0 and y == 3.0

    xs, ys = UniformRademacher().sample_batch(np.random.default_rng(1), 1000)
    assert set(np.unique(ys)) == {-1.0, 1.0}

    xs, ys = UniformQuadraticGauss(0.0).sample_batch(np.random.default_rng(2), 100)
    np.testing.assert_array_equal(ys, xs * xs)


def test_cond_laws():
    assert UniformQuadraticGauss(0.5).cond_law(0.3) == GaussianNoise(0.3 * 0.3, 0.5)
    assert UniformRademacher().cond_law(0.3) == DiscreteAtoms((-1.0, 1.0), (0.5, 0.5))
    assert ConstantResponse(2.0).cond_law(0.3) == DiscreteAtoms((2.0,), (1.0,))
    # an array x gives the law at each x, as sample_batch reads it
    xs = np.array([0.1, 0.3, 0.8])
    law = UniformQuadraticGauss(0.5).cond_law(xs)
    np.testing.assert_array_equal(law.mean, xs * xs)
    assert law.sigma == 0.5
    assert UniformRademacher().cond_law(xs) == DiscreteAtoms((-1.0, 1.0), (0.5, 0.5))
    assert ConstantResponse(2.0).cond_law(xs) == DiscreteAtoms((2.0,), (1.0,))


# each model's draw rule, written out: X takes one uniform per value, then Y
_DRAW_RULES = [
    (UniformQuadraticGauss(0.5), lambda ref, x: x * x + 0.5 * ref.standard_normal(x.size)),
    (UniformQuadraticGauss(0.0), lambda ref, x: x * x + 0.0 * ref.standard_normal(x.size)),
    (UniformRademacher(), lambda ref, x: np.where(ref.random(x.size) < 0.5, -1.0, 1.0)),
    (ConstantResponse(3.0), lambda ref, x: np.full(x.size, 3.0)),
]


@pytest.mark.parametrize("size", [1, 4096, 4097])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("model, y_rule", _DRAW_RULES,
                         ids=["gauss", "gauss_sigma0", "rademacher", "constant"])
def test_sample_batch_follows_the_draw_rule(model, y_rule, seed, size):
    # bit for bit, and the generator ends where the rule leaves it, so a
    # point mass takes no randomness
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    xs, ys = model.sample_batch(rng, size)
    x_ref = ref.random(size)
    y_ref = y_rule(ref, x_ref)
    assert xs.tobytes() == x_ref.tobytes() and ys.tobytes() == y_ref.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("values, probs", [
    ((-0.0, 2.5), (0.3, 0.7)),
    ((2.5, -0.0), (0.7, 0.3)),
    ((0.0, -0.0), (0.5, 0.5)),
    ((np.inf, -np.inf), (0.2, 0.8)),
    ((np.nan, 1.0), (0.5, 0.5)),
])
def test_two_atom_map_picks_as_np_where(values, probs):
    # the map selects an atom's bits, on a strided 2-D view as on a row
    law = DiscreteAtoms(values, probs)
    u = np.random.default_rng(0).random((3, 50))
    y = np.array(u)
    law.map(y[:, :40])
    expected = np.where(u[:, :40] < probs[0], *values)
    assert y[:, :40].tobytes() == expected.tobytes()
    assert y[:, 40:].tobytes() == u[:, 40:].tobytes()


def test_o_minus_flags():
    # the flag is read off the conditional law: no mass strictly below r(x)
    def o_minus_null(model):
        return CumulantContext(model, EPANECHNIKOV, a=0.3, q=0.1, x=0.5)._moments.o_minus_null

    assert o_minus_null(ConstantResponse())
    assert o_minus_null(UniformQuadraticGauss(0.0))
    assert not o_minus_null(UniformRademacher())
    assert not o_minus_null(UniformQuadraticGauss())
    # (sigma/f)^2 underflows to 0 here, but the law has mass below r(x)
    assert not o_minus_null(UniformQuadraticGauss(1e-200))


def test_get_model():
    m = get_model("uniform_quadratic_gauss", sigma=0.25)
    assert isinstance(m, UniformQuadraticGauss) and m.sigma == 0.25
    assert isinstance(get_model("constant_response"), ConstantResponse)
    with pytest.raises(ValueError, match="unknown model"):
        get_model("cauchy")


def test_design_fraction_below_half():
    rng = np.random.default_rng(42)
    xs, _ = UniformRademacher().sample_batch(rng, 10**6)
    frac = np.mean(xs <= 0.5)
    se = 0.5 / 1000.0
    assert abs(frac - 0.5) < 3 * se


def test_noise_variance():
    rng = np.random.default_rng(7)
    xs, ys = UniformQuadraticGauss(0.5).sample_batch(rng, 10**6)
    var = np.var(ys - xs * xs)
    assert abs(var - 0.25) < 0.01 * 0.25


def test_local_conditional_mean():
    rng = np.random.default_rng(3)
    xs, ys = UniformQuadraticGauss(0.5).sample_batch(rng, 10**6)
    window = np.abs(xs - 0.5) < 0.01
    assert abs(ys[window].mean() - 0.25) < 4 * 0.5 / np.sqrt(window.sum())


def test_stream_determinism():
    model = UniformQuadraticGauss(0.5)

    def draw():
        rng = np.random.default_rng(np.random.SeedSequence(123, spawn_key=(5,)))
        return [model.sample_batch(rng, m) for m in (300, 500)]

    first, second = draw(), draw()
    for (a1, b1), (a2, b2) in zip(first, second):
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)


def test_spawn_key_separates_replicates():
    model = UniformRademacher()
    rng_a = np.random.default_rng(np.random.SeedSequence(123, spawn_key=(0,)))
    rng_b = np.random.default_rng(np.random.SeedSequence(123, spawn_key=(1,)))
    xa, _ = model.sample_batch(rng_a, 100)
    xb, _ = model.sample_batch(rng_b, 100)
    assert not np.array_equal(xa, xb)
