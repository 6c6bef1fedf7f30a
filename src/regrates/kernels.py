"""Smoothing kernels with the analytic constants used throughout the library.

Conventions:
    squared_integral         = int K(z)^2 dz
    second_moment            = int z^2 K(z) dz
    support_radius           = half-width of {K > 0} (inf for the Gaussian)
    support_measure_positive = Lebesgue measure of {K > 0}, 2 * support_radius
    log_power_integral       = k -> log int K(z)^k dz for an array of k >= 1, in
                               closed form, or None where none is known (a
                               user-built kernel); the rate engine sums the
                               power series of psi with it

All built-ins are nonnegative, even, and integrate to one, and {K > 0} is an
interval centred at 0. The uniform kernel is taken as K = 1 on [-1/2, 1/2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Kernel",
    "EPANECHNIKOV",
    "UNIFORM",
    "GAUSSIAN",
    "KERNELS",
    "get_kernel",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _epanechnikov(z):
    return 0.75 * np.maximum(0.0, 1.0 - z * z)


def _uniform(z):
    return np.where(np.abs(z) <= 0.5, 1.0, 0.0)


def _gaussian(z):
    return np.exp(-0.5 * z * z) / _SQRT_2PI


_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _epanechnikov_log_power(k):
    # (3/4)^k int (1-z^2)^k dz, a Beta integral: 2 3^k (k!)^2 / (2k+1)!
    return (math.log(2.0) + k * math.log(3.0) + 2.0 * _lgamma(k + 1.0)
            - _lgamma(2.0 * k + 2.0))


def _uniform_log_power(k):
    # K^k = K on a support of measure 1
    return np.zeros(np.shape(k))


def _gaussian_log_power(k):
    # (2 pi)^(-(k-1)/2) k^(-1/2)
    return -0.5 * (k - 1.0) * math.log(2.0 * math.pi) - 0.5 * np.log(k)


@dataclass(frozen=True)
class Kernel:
    name: str
    fn: Callable = field(repr=False, compare=False)
    squared_integral: float
    second_moment: float
    support_radius: float
    log_power_integral: Callable | None = field(default=None, repr=False, compare=False)

    @property
    def support_measure_positive(self) -> float:
        return 2.0 * self.support_radius

    def __call__(self, z):
        """K(z) for a scalar or an array; ``fn`` maps a float array to one."""
        out = self.fn(np.asarray(z, dtype=float))
        return out if out.ndim else float(out)


EPANECHNIKOV = Kernel(
    name="epanechnikov",
    fn=_epanechnikov,
    squared_integral=0.6,
    second_moment=0.2,
    support_radius=1.0,
    log_power_integral=_epanechnikov_log_power,
)

UNIFORM = Kernel(
    name="uniform",
    fn=_uniform,
    squared_integral=1.0,
    second_moment=1.0 / 12.0,
    support_radius=0.5,
    log_power_integral=_uniform_log_power,
)

GAUSSIAN = Kernel(
    name="gaussian",
    fn=_gaussian,
    squared_integral=1.0 / (2.0 * math.sqrt(math.pi)),
    second_moment=1.0,
    support_radius=math.inf,
    log_power_integral=_gaussian_log_power,
)

KERNELS = {k.name: k for k in (EPANECHNIKOV, UNIFORM, GAUSSIAN)}


def get_kernel(name: str) -> Kernel:
    try:
        return KERNELS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {sorted(KERNELS)}"
        ) from None
