"""Quadrature of convolution integrals against a semigroup and the pathwise
energy-inequality checker.

Convention: on the uniform grid the left-point convolution sum

    X(t_j) = S_{t_j} X0 + sum_{i<j} S_{t_j - t_i} dZ_i

is evaluated through the exact recursion X_{j+1} = S_dt (X_j + dZ_j), so a
path costs one semigroup application per step. Jump events are binned into
the cell (t_j, t_{j+1}] and execute at its right endpoint, which keeps
integrands predictable at grid resolution. All functions accept a leading
batch axis on states and increments.

The energy checker does not rebuild X: it takes ||X_j||^2 and the per-cell
terms 2 <X_j, dZ_j> + d[Z]_j that the Euler solver computes on the path it
advances, and only forms the discounted right-hand side and the slack. It
runs cell by cell, so the solver can feed it while it steps and neither side
stores the terms.
"""

from __future__ import annotations

import numpy as np

from .noise import TimeGrid
from .semigroup import Semigroup

__all__ = [
    "ITO_TOL_COEFF",
    "stochastic_convolution",
    "ito_inequality_check",
    "ItoCheckReport",
]

# Coefficient c of the energy check's tolerance c * sqrt(dt).
ITO_TOL_COEFF = 2.0


def stochastic_convolution(
    semigroup: Semigroup, grid: TimeGrid, x0: np.ndarray, increments: np.ndarray
) -> np.ndarray:
    """Left-point quadrature of S_t X0 + integral of S_{t-s} dZ_s, driven by
    the raw per-cell ``increments`` dZ_j (..., m, dim); returns the values
    (..., m+1, dim), batched over leading axes.

    For diagonal semigroups the propagation factors are exact, so with zero
    increments the result is S_{t_j} X0 to floating point accuracy.
    """
    m, dt = grid.n_steps, grid.dt
    x0 = np.asarray(x0, dtype=float)
    batch = np.broadcast_shapes(x0.shape[:-1], increments.shape[:-2])
    values = np.zeros(batch + (m + 1, x0.shape[-1]))
    values[..., 0, :] = x0
    for j in range(m):
        values[..., j + 1, :] = semigroup.apply(dt, values[..., j, :] + increments[..., j, :])
    return values


class ItoCheckReport:
    """Pathwise slack of the energy inequality along the grid, checked cell
    by cell.

    ``slack[..., j] = RHS(t_j) - ||X(t_j)||^2`` where RHS carries the
    exp(2 alpha (t - s)) discounting; a path violates the inequality when any
    slack drops below -tolerance or is NaN. The report covers the first
    ``cells`` cells of the grid, and :meth:`add` checks the next one.
    ``slack`` (..., m+1) is kept only when asked for (None otherwise), and its
    entries past the cells checked are NaN; the violation flags are always
    kept. Shapes keep the batch axes of the initial norms.
    """

    def __init__(self, alpha: float, grid: TimeGrid, norm0_sq: np.ndarray,
                 tolerance: float, keep_slack: bool = True):
        self.tolerance = tolerance
        self.cells = 0
        self._m = grid.n_steps
        self._growth = np.exp(2.0 * alpha * grid.dt)
        self._discount = np.exp(2.0 * alpha * grid.times)
        self._norm0 = np.asarray(norm0_sq, dtype=float)
        self._run = np.zeros(self._norm0.shape)
        self._violated = np.zeros(self._norm0.shape, dtype=bool)
        self.slack = np.full(self._norm0.shape + (self._m + 1,), np.nan) if keep_slack else None
        self._point(self._norm0)

    def _point(self, norm_sq):
        # an overflowing norm gives a NaN slack, which the flags count as a
        # violation; numpy need not warn about it
        with np.errstate(all="ignore"):
            slack = self._discount[self.cells] * self._norm0 + self._run - norm_sq
        self._violated |= ~(slack >= -self.tolerance)
        if self.slack is not None:
            self.slack[..., self.cells] = slack

    def add(self, per_cell: np.ndarray, norm_sq: np.ndarray):
        """Check the next cell j from its term 2 <X_j, dZ_j> + d[Z]_j and
        ||X_{j+1}||^2, advancing the discounted running sum."""
        if self.cells == self._m:
            raise ValueError(f"all {self._m} cells of the grid are checked")
        self._run = self._growth * (self._run + per_cell)
        self.cells += 1
        self._point(norm_sq)

    def violation_mask(self) -> np.ndarray:
        """Per-path violation flags (any checked grid point below -tolerance)."""
        return self._violated


def ito_inequality_check(
    alpha: float,
    grid: TimeGrid,
    norms_sq: np.ndarray,
    per_cell: np.ndarray,
    tol_coeff: float = ITO_TOL_COEFF,
    keep_slack: bool = True,
) -> ItoCheckReport:
    """Check ||X_t||^2 against the discounted energy bound along the path.

    ``norms_sq`` (..., k+1) holds ||X_{t_j}||^2 and ``per_cell`` (..., k) the
    cell terms 2 <X_{t_i}, dZ_i> + d[Z]_i (mixed bracket estimator) of the
    first k <= m cells, taken from the path the Euler solver advances. The
    right-hand side is

        exp(2 alpha t) ||X0||^2 + sum_i exp(2 alpha (t - t_i)) per_cell_i

    accumulated by a discounted running sum. Discretization turns the exact
    inequality into an approximate one, so the tolerance scales like
    tol_coeff * sqrt(dt). ``grid`` must be the grid the terms were taken on.
    With k < m the report checks the path so far; given no cells
    (``per_cell`` of length 0), it is the running check that
    ``direct_solve_batch(..., energy=report)`` feeds while it steps.
    """
    m, dt = grid.n_steps, grid.dt
    cells = per_cell.shape[-1]
    if norms_sq.shape[-1] != cells + 1 or cells > m:
        raise ValueError(
            f"energy terms of {norms_sq.shape[-1]} points and {cells} "
            f"cells do not fit a grid of {m} steps"
        )
    report = ItoCheckReport(
        alpha, grid, norms_sq[..., 0], float(tol_coeff * np.sqrt(dt)), keep_slack
    )
    for j in range(cells):
        report.add(per_cell[..., j], norms_sq[..., j + 1])
    return report
