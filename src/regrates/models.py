"""Synthetic data generators with closed-form ground truth.

Each model draws i.i.d. pairs (X, Y) with X uniform on (0, 1) and exposes the
quantities the rest of the library treats as oracles: the design density
f(x), the regression function r(x) = E[Y | X=x], the conditional variance,
and the curvature functional

    m2(x) = (1/(2 f)) * [ (r f)'' - r f'' ](x) * int z^2 K(z) dz

that drives the h^2 bias of kernel smoothing. The conditional law of Y given
X = x is published as either a finite set of atoms or a Gaussian density so
that integrals against it can be evaluated exactly or by quadrature.
``regrates.ratefn`` reads off that law what the deviation rate function
needs of it, such as whether it puts any mass strictly below r(x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Kernel

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

# the defaults of the models' parameters, also read by the CLI's RunConfig
DEFAULT_SIGMA = 0.5
DEFAULT_Y_CONST = 3.0


@dataclass(frozen=True)
class DiscreteAtoms:
    values: tuple[float, ...]
    probs: tuple[float, ...]


@dataclass(frozen=True)
class GaussianNoise:
    sigma: float


class Model:
    """Base: X ~ Uniform(0, 1); subclasses fix the conditional law of Y."""

    name: str
    support = (0.0, 1.0)

    def density(self, x: float) -> float:
        lo, hi = self.support
        return 1.0 if lo < x < hi else 0.0

    def regression(self, x: float) -> float:
        raise NotImplementedError

    def cond_var(self, x: float) -> float:
        raise NotImplementedError

    def curvature(self, x: float, kernel: Kernel) -> float:
        raise NotImplementedError

    def cond_law(self, x: float):
        raise NotImplementedError

    def sample_batch(self, rng: np.random.Generator, size: int):
        raise NotImplementedError


class UniformQuadraticGauss(Model):
    """Y = X^2 + Gaussian noise; exercises both bias and variance."""

    name = "uniform_quadratic_gauss"

    def __init__(self, sigma: float = DEFAULT_SIGMA):
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        self.sigma = float(sigma)

    def regression(self, x):
        return x * x

    def cond_var(self, x):
        return self.sigma**2

    def curvature(self, x, kernel):
        # (r f)'' = 2 and f'' = 0 on the interior of the uniform design
        return kernel.second_moment

    def cond_law(self, x):
        return GaussianNoise(self.sigma)

    def sample_batch(self, rng, size):
        x = rng.random(size)
        y = x * x + self.sigma * rng.standard_normal(size)
        return x, y


class UniformRademacher(Model):
    """Y = +/-1 with equal probability, independent of X."""

    name = "uniform_rademacher"

    def regression(self, x):
        return 0.0

    def cond_var(self, x):
        return 1.0

    def curvature(self, x, kernel):
        return 0.0

    def cond_law(self, x):
        return DiscreteAtoms((-1.0, 1.0), (0.5, 0.5))

    def sample_batch(self, rng, size):
        x = rng.random(size)
        y = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        return x, y


class ConstantResponse(Model):
    """Y is a constant; the degenerate fixed-point model."""

    name = "constant_response"

    def __init__(self, y_const: float = DEFAULT_Y_CONST):
        self.y_const = float(y_const)

    def regression(self, x):
        return self.y_const

    def cond_var(self, x):
        return 0.0

    def curvature(self, x, kernel):
        return 0.0

    def cond_law(self, x):
        return DiscreteAtoms((self.y_const,), (1.0,))

    def sample_batch(self, rng, size):
        x = rng.random(size)
        return x, np.full(size, self.y_const)


MODEL_NAMES = (
    UniformQuadraticGauss.name,
    UniformRademacher.name,
    ConstantResponse.name,
)


def get_model(name: str, sigma: float = DEFAULT_SIGMA,
              y_const: float = DEFAULT_Y_CONST) -> Model:
    key = name.lower()
    if key == UniformQuadraticGauss.name:
        return UniformQuadraticGauss(sigma=sigma)
    if key == UniformRademacher.name:
        return UniformRademacher()
    if key == ConstantResponse.name:
        return ConstantResponse(y_const=y_const)
    raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")

