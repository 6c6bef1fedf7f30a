"""Power-law stepsizes, bandwidths and averaging weights.

``ScheduleConfig`` evaluates the three power laws
``constant * n**(-exponent)``: stepsizes ``gamma0 n^-alpha``, bandwidths
``c n^-a`` and weights ``n^-q``. Each is regularly varying with index
``-exponent`` in the sense ``n * (1 - value(n-1)/value(n)) -> -exponent``.
The weights enter the averaged estimator only as a ratio, so they carry no
constant.

It bundles the three decay exponents with their constants, and
``ScheduleConfig.validate()`` is the one check of the admissible region

    alpha in (3/4, 1]
    a     in (1 - alpha, (4*alpha - 3)/2)   (nonempty only for alpha > 5/6)
    q     <  min(1 - 2a, (1 + a)/2)

and of c, gamma0 > 0. It returns ``{constraint: message}`` in the order the
constraints are checked; ``ensure_valid`` raises ``ValidationError`` with the
messages joined.

The stepsize sum condition (n * gamma_n must dominate the log of the partial
sums) holds automatically for alpha < 1; at alpha = 1 it is a genuine limit
statement that cannot be checked at finite n and is taken as given here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ScheduleConfig", "ValidationError"]


class ValidationError(ValueError):
    """A configuration violates one of the admissibility constraints."""


def _power(constant: float, exponent: float, n):
    """``constant * n**(-exponent)`` for n >= 1, a float for scalar n."""
    if constant <= 0:
        raise ValueError("constant must be positive")
    if np.any(np.asarray(n) < 1):
        raise ValueError("n must be >= 1")
    out = constant * np.asarray(n, dtype=float) ** (-exponent)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ScheduleConfig:
    alpha: float = 0.92
    a: float = 0.3
    q: float = 0.1
    c: float = 1.0
    gamma0: float = 5.0

    def stepsize(self, n):
        return _power(self.gamma0, self.alpha, n)

    def bandwidth(self, n):
        return _power(self.c, self.a, n)

    def weight(self, n):
        return _power(1.0, self.q, n)

    def validate(self) -> dict[str, str]:
        """``{constraint: message}`` for each violated constraint, in the
        order they are checked; empty if the schedule is admissible."""
        problems = {}

        def fail(constraint, actual, bound):
            problems[constraint] = f"{constraint}: value {actual!r} violates {bound}"

        alpha, a, q = self.alpha, self.a, self.q
        if not (0.75 < alpha <= 1.0):
            fail("stepsize_exponent", alpha, "alpha in (3/4, 1]")
        else:
            lo, hi = 1.0 - alpha, (4.0 * alpha - 3.0) / 2.0
            if hi <= lo:
                fail("bandwidth_interval_empty", a,
                     f"(1-alpha, (4*alpha-3)/2) = ({lo:g}, {hi:g}) is empty; "
                     "need alpha > 5/6")
            elif not (lo < a < hi):
                fail("bandwidth_exponent", a, f"a in ({lo:g}, {hi:g})")
        q_bound = min(1.0 - 2.0 * a, (1.0 + a) / 2.0)
        if not q < q_bound:
            fail("weight_exponent", q, f"q < min(1-2a, (1+a)/2) = {q_bound:g}")
        for label, v in (("c", self.c), ("gamma0", self.gamma0)):
            if not v > 0:
                fail(f"positive_{label}", v, f"{label} > 0")
        return problems

    def ensure_valid(self) -> "ScheduleConfig":
        problems = self.validate()
        if problems:
            raise ValidationError("; ".join(problems.values()))
        return self
