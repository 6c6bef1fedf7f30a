"""Synthetic data generators with closed-form ground truth.

Each model draws i.i.d. pairs (X, Y) with X uniform on (0, 1) and exposes the
quantities the rest of the library treats as oracles: the design density
f(x), the regression function r(x) = E[Y | X=x], the conditional variance,
and the curvature

    (1/(2 f)) * [ (r f)'' - r f'' ](x),

the model's part of the h^2 bias m2(x) of kernel smoothing, which is this
times int z^2 K(z) dz. The conditional law of Y given X = x is published as
either a finite set of atoms or a Gaussian law, so that integrals against it
can be evaluated exactly. A model states only that law: r(x) and the
conditional variance are its mean and variance, Y is drawn from it, and
``regrates.ratefn`` reads off it what the rate function needs of it.

A law draws Y in two steps. Its ``fill`` is the generator call alone: a
standard normal per value for the Gaussian law, a uniform per value for two
atoms, nothing for a point mass. The fill is the same at every x. Its ``map``
turns those base draws into Y in place, elementwise, on an array of any
shape, and carries all that x changes. ``Model.sample_batch`` draws X, then
the fill and the map of Y; the Monte Carlo engine makes the fills replicate
by replicate and maps several replicates' draws at once, to the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteAtoms",
    "GaussianNoise",
    "Model",
    "UniformQuadraticGauss",
    "UniformRademacher",
    "ConstantResponse",
    "MODEL_NAMES",
    "get_model",
]

# the default noise level, also read by the CLI's RunConfig
DEFAULT_SIGMA = 0.5


@dataclass(frozen=True)
class DiscreteAtoms:
    values: tuple[float, ...]
    probs: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(p * v for v, p in zip(self.values, self.probs))

    @property
    def variance(self) -> float:
        return sum(p * (v - self.mean) ** 2 for v, p in zip(self.values, self.probs))

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> None:
        # a point mass takes no randomness; two atoms take one uniform each
        if len(self.values) > 1:
            rng.random(out=out)

    def map(self, y: np.ndarray) -> None:
        if len(self.values) == 1:
            y.fill(self.values[0])
            return
        # the first atom where the uniform is below its probability, else the
        # second, as np.where picks them: the atoms' bit patterns are
        # selected, never added, so a signed zero or an inf stays as it is
        first, second = (int(np.float64(v).view(np.int64)) for v in self.values)
        bits = y.view(np.int64)
        np.multiply(y < self.probs[0], first ^ second, out=bits)
        bits ^= second


@dataclass(frozen=True)
class GaussianNoise:
    mean: float
    sigma: float

    @property
    def variance(self) -> float:
        return self.sigma**2

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> None:
        rng.standard_normal(out=out)

    def map(self, y: np.ndarray) -> None:
        y *= self.sigma
        y += self.mean


class Model:
    """Base: X ~ Uniform(0, 1); subclasses fix the conditional law of Y."""

    name: str

    def density(self, x: float) -> float:
        return 1.0 if 0.0 < x < 1.0 else 0.0

    def regression(self, x: float) -> float:  # r(x) = E[Y | X=x]
        return self.cond_law(x).mean

    def cond_var(self, x: float) -> float:  # Var[Y | X=x]
        return self.cond_law(x).variance

    def curvature(self, x: float) -> float:  # (1/(2f)) [(r f)'' - r f'']
        raise NotImplementedError

    def cond_law(self, x):  # x a float or an array of them
        raise NotImplementedError

    def sample_batch(self, rng: np.random.Generator, size: int):
        """``size`` pairs (X, Y): the fill of X, the law's fill of Y, its map."""
        x, y = np.empty((2, size))
        rng.random(out=x)
        law = self.cond_law(x)
        law.fill(rng, y)
        law.map(y)
        return x, y


class UniformQuadraticGauss(Model):
    """Y = X^2 + Gaussian noise; exercises both bias and variance."""

    name = "uniform_quadratic_gauss"

    def __init__(self, sigma: float = DEFAULT_SIGMA):
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        self.sigma = float(sigma)

    def curvature(self, x):
        # (r f)'' = 2 and f'' = 0 on the interior of the uniform design
        return 1.0

    def cond_law(self, x):
        return GaussianNoise(x * x, self.sigma)


class UniformRademacher(Model):
    """Y = +/-1 with equal probability, independent of X."""

    name = "uniform_rademacher"

    def curvature(self, x):
        return 0.0

    def cond_law(self, x):
        return DiscreteAtoms((-1.0, 1.0), (0.5, 0.5))


class ConstantResponse(Model):
    """Y is a constant; the degenerate fixed-point model."""

    name = "constant_response"

    def __init__(self, y_const: float = 3.0):
        self.y_const = float(y_const)

    def curvature(self, x):
        return 0.0

    def cond_law(self, x):
        return DiscreteAtoms((self.y_const,), (1.0,))


MODEL_NAMES = (
    UniformQuadraticGauss.name,
    UniformRademacher.name,
    ConstantResponse.name,
)


def get_model(name: str, sigma: float = DEFAULT_SIGMA) -> Model:
    key = name.lower()
    if key == UniformQuadraticGauss.name:
        return UniformQuadraticGauss(sigma=sigma)
    if key == UniformRademacher.name:
        return UniformRademacher()
    if key == ConstantResponse.name:
        return ConstantResponse()
    raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")

