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
terms 2 <X_j, dZ_j> + d[Z]_j that the Euler solver accumulates on the path it
returns, and only forms the discounted right-hand side and the slack.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(eq=False)
class ItoCheckReport:
    """Pathwise slack of the energy inequality along the grid.

    ``slack[j] = RHS(t_j) - ||X(t_j)||^2`` where RHS carries the exp(2 alpha
    (t - s)) discounting; a path violates the inequality when any slack drops
    below -tolerance. Shapes keep the batch axis when the inputs carried one.
    """

    slack: np.ndarray
    tolerance: float

    def violation_mask(self) -> np.ndarray:
        """Per-path violation flags (any grid point below -tolerance)."""
        return np.any(self.slack < -self.tolerance, axis=-1)


def ito_inequality_check(
    alpha: float,
    grid: TimeGrid,
    norms_sq: np.ndarray,
    per_cell: np.ndarray,
    tol_coeff: float = ITO_TOL_COEFF,
) -> ItoCheckReport:
    """Check ||X_t||^2 against the discounted energy bound along the path.

    ``norms_sq`` (..., m+1) holds ||X_{t_j}||^2 and ``per_cell`` (..., m) the
    cell terms 2 <X_{t_i}, dZ_i> + d[Z]_i (mixed bracket estimator), both
    taken from the path the Euler solver returned
    (``direct_solve_batch(..., energy=True)``). The right-hand side is

        exp(2 alpha t) ||X0||^2 + sum_i exp(2 alpha (t - t_i)) per_cell_i

    accumulated by a discounted running sum. Discretization turns the exact
    inequality into an approximate one, so the tolerance scales like
    tol_coeff * sqrt(dt). ``grid`` must be the grid the terms were taken on.
    """
    m, dt = grid.n_steps, grid.dt
    if norms_sq.shape[-1] != m + 1 or per_cell.shape[-1] != m:
        raise ValueError(
            f"energy terms of {norms_sq.shape[-1]} points and {per_cell.shape[-1]} "
            f"cells do not fit a grid of {m} steps"
        )
    growth = np.exp(2.0 * alpha * dt)
    run = np.zeros(per_cell.shape[:-1] + (m + 1,))
    for j in range(m):
        run[..., j + 1] = growth * (run[..., j] + per_cell[..., j])

    rhs = np.exp(2.0 * alpha * grid.times) * norms_sq[..., :1]
    slack = rhs + run - norms_sq
    return ItoCheckReport(slack=slack, tolerance=float(tol_coeff * np.sqrt(dt)))
