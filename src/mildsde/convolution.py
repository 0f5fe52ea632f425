"""Quadrature of convolution integrals against a semigroup, quadratic
variation bookkeeping, and the pathwise energy-inequality checker.

Convention: on the uniform grid the left-point convolution sum

    X(t_j) = S_{t_j} X0 + sum_{i<j} S_{t_j - t_i} dZ_i

is evaluated through the exact recursion X_{j+1} = S_dt (X_j + dZ_j), so a
path costs one semigroup application per step. Jump events are binned into
the cell (t_j, t_{j+1}] and execute at its right endpoint, after the
left-limit snapshot, which keeps integrands predictable at grid resolution.
All functions accept a leading batch axis on states and increments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .noise import TimeGrid
from .semigroup import Semigroup
from .state_space import weighted_norm_sq

__all__ = [
    "CadlagPath",
    "SemimartingaleIncrements",
    "stochastic_convolution",
    "quadratic_variation",
    "ito_inequality_check",
    "ItoCheckReport",
]


@dataclass(eq=False)
class CadlagPath:
    """Right-continuous path on a grid with left-limit marks at jump points.

    ``values[j]`` is the (post-jump) state at t_j. ``pre_jump[j]`` stores the
    left limit at t_j for indices where a jump executed; elsewhere the path is
    treated as piecewise constant, so the left limit at t_j defaults to
    ``values[j-1]``.
    """

    grid: TimeGrid
    values: np.ndarray
    pre_jump: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[-2] != self.grid.n_steps + 1:
            raise ValueError(
                f"path has {self.values.shape[-2]} rows for a grid of "
                f"{self.grid.n_steps + 1} points"
            )

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def left_limit(self, j: int) -> np.ndarray:
        if j in self.pre_jump:
            return self.pre_jump[j]
        if j == 0:
            return self.values[0]
        return self.values[j - 1]

    def jump_at(self, j: int) -> np.ndarray:
        """Jump executed at t_j (zero vector when none is marked)."""
        if j in self.pre_jump:
            return self.values[j] - self.pre_jump[j]
        return np.zeros_like(self.values[j])


@dataclass(eq=False)
class SemimartingaleIncrements:
    """Per-cell decomposition of a cadlag semimartingale forcing.

    Shapes carry an optional leading batch axis P:

    * ``drift``      (P?, m, dim)  finite-variation part (includes compensators)
    * ``diffusion``  (P?, m, dim)  Wiener-martingale part g dW
    * ``jump_sums``  (P?, m, dim)  sum of realized jump vectors per cell
    * ``jump_sq``    (P?, m)       sum of squared weighted jump norms per cell
    * ``hs_sq``      (P?, m)       squared weighted Hilbert-Schmidt norm of the
                                   diffusion coefficient times dt

    ``jump_sq`` is exact pathwise; ``hs_sq`` is the expectation form of the
    Wiener quadratic variation, so the accumulated bracket below is the mixed
    estimator. ``weights`` records the inner product the scalars refer to.
    """

    grid: TimeGrid
    drift: np.ndarray
    diffusion: np.ndarray
    jump_sums: np.ndarray
    jump_sq: np.ndarray
    hs_sq: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        m = self.grid.n_steps
        for name in ("drift", "diffusion", "jump_sums", "jump_sq", "hs_sq"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.shape[-2 if name not in ("jump_sq", "hs_sq") else -1] != m:
                raise ValueError(f"{name} does not match the grid ({m} cells)")

    @classmethod
    def zeros(cls, grid: TimeGrid, dim: int, weights=None, batch: tuple = ()):
        m = grid.n_steps
        return cls(
            grid,
            drift=np.zeros(batch + (m, dim)),
            diffusion=np.zeros(batch + (m, dim)),
            jump_sums=np.zeros(batch + (m, dim)),
            jump_sq=np.zeros(batch + (m,)),
            hs_sq=np.zeros(batch + (m,)),
            weights=weights,
        )

    @classmethod
    def from_parts(
        cls,
        grid: TimeGrid,
        dim: int,
        drift: np.ndarray | None = None,
        diffusion: np.ndarray | None = None,
        jump_vectors: dict[int, Sequence[np.ndarray]] | None = None,
        hs_sq: np.ndarray | None = None,
        weights=None,
    ):
        """Single-path constructor; jump vectors are listed per cell index."""
        m = grid.n_steps
        out = cls.zeros(grid, dim, weights=weights)
        if drift is not None:
            out.drift = np.asarray(drift, dtype=float).reshape(m, dim)
        if diffusion is not None:
            out.diffusion = np.asarray(diffusion, dtype=float).reshape(m, dim)
        if hs_sq is not None:
            out.hs_sq = np.asarray(hs_sq, dtype=float).reshape(m)
        if jump_vectors:
            for cell, vecs in jump_vectors.items():
                for v in vecs:
                    v = np.asarray(v, dtype=float)
                    out.jump_sums[cell] += v
                    out.jump_sq[cell] += float(weighted_norm_sq(v, weights))
        return out

    def total(self) -> np.ndarray:
        """Raw increments dZ_i = drift + diffusion + jumps, per cell."""
        return self.drift + self.diffusion + self.jump_sums


def _convolve(
    semigroup: Semigroup,
    z: SemimartingaleIncrements,
    x0: np.ndarray,
    increments: np.ndarray,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Core recursion driven by ``increments`` (``z.total()``, which callers
    that also need it build once); returns values (..., m+1, dim) and
    per-index left limits for every index whose cell realized a jump
    (batched over leading axes)."""
    grid = z.grid
    m, dt = grid.n_steps, grid.dt
    x0 = np.asarray(x0, dtype=float)
    batch = np.broadcast_shapes(x0.shape[:-1], z.drift.shape[:-2])
    values = np.zeros(batch + (m + 1, x0.shape[-1]))
    values[..., 0, :] = x0
    jump_cells = np.nonzero(np.any(z.jump_sq > 0.0, axis=tuple(range(z.jump_sq.ndim - 1))))[0]
    jump_cells = set(int(c) for c in jump_cells)
    pre = {}
    for j in range(m):
        stepped = semigroup.apply(dt, values[..., j, :] + increments[..., j, :])
        values[..., j + 1, :] = stepped
        if j in jump_cells:
            pre[j + 1] = stepped - semigroup.apply(dt, z.jump_sums[..., j, :])
    return values, pre


def stochastic_convolution(
    semigroup: Semigroup, z: SemimartingaleIncrements, x0: np.ndarray
) -> CadlagPath:
    """Left-point quadrature of S_t X0 + integral of S_{t-s} dZ_s.

    For diagonal semigroups the propagation factors are exact, so with z = 0
    the result is S_{t_j} X0 to floating point accuracy.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape[-1] != z.drift.shape[-1]:
        raise ValueError("initial condition dimension does not match increments")
    values, pre = _convolve(semigroup, z, x0, z.total())
    return CadlagPath(z.grid, values, pre)


def quadratic_variation(z: SemimartingaleIncrements) -> np.ndarray:
    """Accumulated bracket path on grid points, [Z]_0 = 0, nondecreasing.

    Mixed estimator: realized squared jumps (exact pathwise) plus the
    expectation-form Wiener contribution ||g||_HS^2 dt per cell.
    """
    per_cell = z.hs_sq + z.jump_sq
    out = np.zeros(per_cell.shape[:-1] + (z.grid.n_steps + 1,))
    np.cumsum(per_cell, axis=-1, out=out[..., 1:])
    return out


@dataclass(eq=False)
class ItoCheckReport:
    """Pathwise slack of the energy inequality along the grid.

    ``slack[j] = RHS(t_j) - ||X(t_j)||^2`` where RHS carries the exp(2 alpha
    (t - s)) discounting; the violation flag fires when any slack drops below
    -tolerance. Shapes keep the batch axis when the inputs carried one.
    """

    times: np.ndarray
    slack: np.ndarray
    tolerance: float
    violation: bool

    @property
    def min_slack(self) -> float:
        return float(self.slack.min())

    def violation_mask(self) -> np.ndarray:
        """Per-path violation flags (any grid point below -tolerance)."""
        return np.any(self.slack < -self.tolerance, axis=-1)


def ito_inequality_check(
    semigroup: Semigroup,
    alpha: float,
    x0: np.ndarray,
    z: SemimartingaleIncrements,
    tol_coeff: float = 1.0,
    weights: np.ndarray | None = None,
) -> ItoCheckReport:
    """Check ||X_t||^2 against the discounted energy bound along the path.

    X is reconstructed from (semigroup, x0, z) by the same quadrature the
    solvers use; the right-hand side accumulates

        exp(2 alpha t) ||X0||^2
        + 2 sum_i exp(2 alpha (t - t_i)) <X_{t_i}, dZ_i>
        + sum_i exp(2 alpha (t - t_i)) d[Z]_i

    with the mixed bracket estimator. Discretization turns the exact
    inequality into an approximate one, so the tolerance scales like
    tol_coeff * sqrt(dt); the coefficient is calibrated per model.
    """
    w = weights if weights is not None else z.weights
    grid = z.grid
    m, dt = grid.n_steps, grid.dt
    increments = z.total()
    values, _ = _convolve(semigroup, z, np.asarray(x0, dtype=float), increments)
    lhs = weighted_norm_sq(values, w)

    bracket = z.hs_sq + z.jump_sq
    if w is None:
        pairing = 2.0 * np.einsum("...d,...d->...", values[..., :-1, :], increments)
    else:
        pairing = 2.0 * np.einsum(
            "...d,d,...d->...", values[..., :-1, :], np.asarray(w, dtype=float), increments
        )
    per_cell = pairing + bracket

    growth = np.exp(2.0 * alpha * dt)
    run = np.zeros(per_cell.shape[:-1] + (m + 1,))
    for j in range(m):
        run[..., j + 1] = growth * (run[..., j] + per_cell[..., j])

    x0_sq = np.asarray(weighted_norm_sq(np.asarray(x0, dtype=float), w))
    rhs = np.exp(2.0 * alpha * grid.times) * x0_sq[..., None]
    slack = (rhs + run - lhs).reshape(lhs.shape)
    tol = tol_coeff * np.sqrt(dt)
    return ItoCheckReport(
        times=grid.times,
        slack=slack,
        tolerance=float(tol),
        violation=bool(np.any(slack < -tol)),
    )
