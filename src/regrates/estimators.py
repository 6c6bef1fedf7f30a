"""Streaming regression estimators on a fixed grid of evaluation points.

``EstimatorState`` consumes observations in order and maintains, for every
grid point x:

  * the recursive estimate  r_n(x) = r_{n-1}(x) + w_n (Y_n - r_{n-1}(x))
    with gain w_n = (gamma_n / h_n) K((x - X_n) / h_n),
  * its weighted average  avg_n(x) = sum q_k r_k(x) / sum q_k, kept as an
    incremental mean so a constant stream is a floating-point fixed point,
  * semi-recursive ratio sums  sum (Y_i/h_i) K((x - X_i)/h_i)  and
    sum (1/h_i) K((x - X_i)/h_i), unless the state is built with
    ``semi_recursive=False``. ``r_n`` and ``avg_n`` do not read these sums,
    so a run that reports only the averaged estimate skips them and gets the
    same bits.

The gain w_n may exceed one for the first few observations when the
bandwidth constant is small; no clamping is applied, early iterates are
damped by the averaging.

States can carry a trailing lane axis so that many independent replicates
advance in lockstep: pass ``lanes=R`` and feed ``update`` length-R
observation vectors. Lane arithmetic is elementwise, so each lane matches a
scalar state driven by the same stream bit for bit.

``update`` takes a block of m consecutive observations with the step axis
leading: shape (m,) for a scalar state, (m, R) for a lane state; a single
observation is the block m = 1. Per block, the schedules gamma_n, h_n, q_n
are evaluated once on the array of step indices, and the kernel gains once
on an (m, grid[, R]) array. The running sums (sum q_k and, where kept, the
two semi-recursive sums) are carried across blocks by ``np.add.accumulate``
with the carried total prepended, which adds the terms one at a time in step
order exactly as m single steps would; ``np.sum`` would add them pairwise
and change the last bits. Only the two true recurrences, r_n and avg_n,
are stepped row by row. A block is therefore bit-identical to the same
observations fed one at a time. Its temporaries grow with m x grid x R, so
``update`` works through long blocks ``BLOCK_ROWS`` rows at a time. This is
the only row cut: a caller passes blocks of any length.
"""

from __future__ import annotations

import numpy as np

from .kernels import Kernel
from .schedules import ScheduleConfig

__all__ = ["BLOCK_ROWS", "EstimatorState", "nadaraya_watson"]

# Rows of a block worked on at once: about 1 MB of temporaries per grid point
# at 256 lanes.
BLOCK_ROWS = 128


def _carry_sum(total, terms):
    """total + terms[0] + terms[1] + ..., added one term at a time in order.

    ``terms`` is consumed as scratch space."""
    terms[0] += total
    return np.add.accumulate(terms, axis=0, out=terms)[-1].copy()


class EstimatorState:
    """The recursive, averaged and semi-recursive estimates on ``grid``.

    ``lanes=R`` adds a trailing axis of R independent replicates.
    ``semi_recursive=False`` drops the two semi-recursive sums: ``current()``
    and ``averaged()`` are unchanged to the bit, and ``semi_recursive()``
    raises ``ValueError``.
    """

    def __init__(self, grid, schedule: ScheduleConfig, kernel: Kernel,
                 r0: float = 0.0, lanes: int | None = None,
                 semi_recursive: bool = True):
        self.grid = np.atleast_1d(np.asarray(grid, dtype=float))
        self.schedule = schedule
        self.kernel = kernel
        self.r0 = float(r0)
        shape = (self.grid.size,) if lanes is None else (self.grid.size, lanes)
        self.lanes = lanes
        self.r_vals = np.full(shape, self.r0)
        self.avg_vals = np.full(shape, self.r0)
        # None: the semi-recursive sums are not kept
        self.sr_num = np.zeros(shape) if semi_recursive else None
        self.sr_den = np.zeros(shape) if semi_recursive else None
        self.n = 0
        self.qsum = 0.0

    def update(self, x_obs, y_obs) -> None:
        """Consume consecutive observations, the step axis leading.

        A scalar state takes a scalar or an (m,) block, a lane state an (R,)
        vector or an (m, R) block.
        """
        x_all = np.asarray(x_obs, dtype=float)
        y_all = np.asarray(y_obs, dtype=float)
        if x_all.ndim == self.r_vals.ndim - 1:  # one observation
            x_all, y_all = x_all[None], y_all[None]
        # block arrays are (m, grid) or (m, grid, R): broadcast the grid
        # along the lanes and per-step values along the state's axes
        grid = self.grid if self.lanes is None else self.grid[:, None]
        rows = (slice(None),) + (None,) * self.r_vals.ndim
        for lo in range(0, x_all.shape[0], BLOCK_ROWS):
            x = x_all[lo:lo + BLOCK_ROWS]
            y = y_all[lo:lo + BLOCK_ROWS]
            n = np.arange(self.n + 1, self.n + 1 + x.shape[0])
            h = self.schedule.bandwidth(n)[rows]
            with np.errstate(over="ignore"):  # K(z) = 0 where z * z overflows
                k = self.kernel.fn((grid - x[:, None]) / h)
            w = (self.schedule.stepsize(n)[rows] / h) * k
            qn = self.schedule.weight(n)
            qsum = np.cumsum(np.concatenate(([self.qsum], qn)))[1:]
            ratio = (qn / qsum).tolist()

            r, avg = self.r_vals, self.avg_vals
            diff = np.empty_like(r)
            first = 0
            if self.n == 0:
                r += w[0] * (y[0] - r)
                self.avg_vals = avg = r.copy()
                first = 1
            for i in range(first, x.shape[0]):
                np.subtract(y[i], r, out=diff)
                diff *= w[i]
                r += diff
                np.subtract(r, avg, out=diff)
                diff *= ratio[i]
                avg += diff

            if self.sr_num is not None:
                self.sr_num = _carry_sum(self.sr_num, (y[:, None] / h) * k)
                self.sr_den = _carry_sum(self.sr_den, k / h)
            self.qsum = float(qsum[-1])
            self.n = int(n[-1])

    def current(self) -> np.ndarray:
        return self.r_vals.copy()

    def averaged(self) -> np.ndarray:
        if self.n < 1:
            raise ValueError("no observations consumed yet")
        return self.avg_vals.copy()

    def semi_recursive(self) -> np.ndarray:
        """Ratio of the running sums; zero where the denominator is zero."""
        if self.sr_num is None:
            raise ValueError("this state does not keep the semi-recursive sums "
                             "(built with semi_recursive=False)")
        if self.n < 1:
            raise ValueError("no observations consumed yet")
        den = self.sr_den
        safe = np.where(den == 0.0, 1.0, den)
        return np.where(den == 0.0, 0.0, self.sr_num / safe)


def nadaraya_watson(x_data, y_data, h: float, grid, kernel: Kernel):
    """Batch kernel-ratio estimate at each grid point; zero where the
    denominator vanishes."""
    x_data = np.asarray(x_data, dtype=float)
    y_data = np.asarray(y_data, dtype=float)
    if x_data.size == 0:
        raise ValueError("need at least one observation")
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    grid_arr = np.atleast_1d(np.asarray(grid, dtype=float))
    num = np.zeros(grid_arr.size)
    den = np.zeros(grid_arr.size)
    step = 16384  # bound the (grid, data) work matrix
    for start in range(0, x_data.size, step):
        xs = x_data[start:start + step]
        ys = y_data[start:start + step]
        with np.errstate(over="ignore"):  # K(z) = 0 where z * z overflows
            k = kernel.fn((grid_arr[:, None] - xs[None, :]) / h)
        num += k @ ys
        den += k.sum(axis=1)
    safe = np.where(den == 0.0, 1.0, den)
    out = np.where(den == 0.0, 0.0, num / safe)
    return out if np.ndim(grid) else float(out[0])
