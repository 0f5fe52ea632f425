"""Mild-solution machinery: contraction rescaling, the deterministic inner
solve with frozen forcing, the outer successive-approximation loop, and a
one-pass exponential Euler integrator for cross-validation.

The outer loop freezes one noise realization per path (same Wiener table,
same jump events) across all iterations: iterate n builds its forcing from the
left limits of iterate n-1 on that same realization, then solves the
deterministic equation

    X_t = S_t X0 + integral S_{t-s} f(s, X_s) ds + V_t

per time step with a semi-implicit rule: implicit in f (the per-step equation
x = b + dt f(t, x) is uniquely solvable for dt * M < 1 when f is
semimonotone), explicit in V. Everything is vectorized over a leading path
axis; the public single-path entry points wrap the batch cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .coefficients import (
    CoefficientSet,
    DiffusionSpec,
    DriftSpec,
    JumpCoeffSpec,
    check_lipschitz_growth,
    check_semimonotone,
)
from .convolution import CadlagPath, SemimartingaleIncrements, _convolve
from .noise import MarkSpaceSpec, NoiseRealization, TimeGrid, draw_noise
from .semigroup import Semigroup
from .state_space import hs_norm_sq, weighted_norm_sq

__all__ = [
    "SolverError",
    "InnerIterationError",
    "PicardDivergenceError",
    "AprioriBoundError",
    "ModelValidationError",
    "ModelSpec",
    "rescale_to_contraction",
    "unrescale_values",
    "solve_deterministic_mild",
    "PicardTrace",
    "BatchPicardResult",
    "picard_solve",
    "picard_solve_batch",
    "BatchDirectResult",
    "direct_solve",
    "direct_solve_batch",
]


class SolverError(RuntimeError):
    pass


class InnerIterationError(SolverError):
    """Inner fixed-point iteration failed after all damping and step halving."""


class PicardDivergenceError(SolverError):
    """Iteration distances failed to decrease; hypothesis violation or grid too coarse."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class AprioriBoundError(SolverError):
    """Solution exceeded the a-priori growth bound beyond the allowed slack."""


class ModelValidationError(SolverError):
    """A coefficient checker failed at model construction."""


@dataclass(eq=False)
class ModelSpec:
    """Complete problem description on the truncated space.

    ``weights`` fixes the inner product every norm below refers to;
    ``x0_sampler(rng)`` draws the initial state; ``ito_tol_coeff`` is the
    calibrated coefficient of the sqrt(dt) tolerance used by the energy
    inequality checker for this model.
    """

    name: str
    semigroup: Semigroup
    coeffs: CoefficientSet
    weights: np.ndarray | None
    marks: MarkSpaceSpec | None
    x0_sampler: Callable[[np.random.Generator], np.ndarray]
    horizon: float
    ito_tol_coeff: float = 1.0

    @property
    def dim(self) -> int:
        return self.semigroup.dim

    @property
    def wiener_modes(self) -> int:
        return self.coeffs.diffusion.modes

    def validate(self, samples: int = 10_000, radius: float = 3.0, seed: int = 0):
        """Run both coefficient checkers; raise on any failed contract."""
        mono = check_semimonotone(
            self.coeffs.drift, self.dim, self.weights,
            samples=samples, radius=radius, t_max=self.horizon, seed=seed,
        )
        growth = check_lipschitz_growth(
            self.coeffs, self.dim, self.weights, self.marks,
            samples=samples, radius=radius, t_max=self.horizon, seed=seed,
        )
        if not mono.passed:
            raise ModelValidationError(
                f"{self.name}: semimonotonicity failed, observed ratio "
                f"{mono.max_ratio:.6g} > declared {mono.declared_m:.6g}"
            )
        if not growth.passed:
            raise ModelValidationError(
                f"{self.name}: Lipschitz/growth failed "
                f"(C observed {growth.combined_lipschitz_max:.6g} vs "
                f"{growth.declared_c:.6g}, D observed {growth.growth_max:.6g} "
                f"vs {growth.declared_d:.6g})"
            )
        return mono, growth


# ---------------------------------------------------------------------------
# Contraction rescaling


def _exp_gauge(c: float, t):
    """exp(c t) by math.exp; for an array of event times, one factor per time
    with a trailing axis so it scales the matching rows of a state array."""
    if np.ndim(t) == 0:
        return math.exp(c * t)
    return np.vectorize(math.exp, otypes=[float])(c * np.asarray(t))[..., None]


def _conjugate(fn, alpha: float):
    """The coefficient exp(-alpha t) fn(t, ..., exp(alpha t) x) of the
    contraction gauge; the state x is fn's last argument."""

    def evaluate(t, *args):
        *head, x = args
        return _exp_gauge(-alpha, t) * fn(t, *head, _exp_gauge(alpha, t) * np.asarray(x))

    return evaluate


def rescale_to_contraction(model: ModelSpec) -> ModelSpec:
    """Equivalent model with growth bound zero.

    The semigroup is tilted by exp(-alpha t) and each coefficient is
    conjugated by the same exponential; a path of the original model equals
    exp(alpha t) times a path of the rescaled one on the same noise. With
    alpha already zero the model is returned unchanged.
    """
    alpha = model.semigroup.alpha
    if alpha == 0.0:
        return model
    c = model.coeffs

    def make_implicit(orig_step):
        if orig_step is None:
            return None

        # x = b + dt f~(t, x) maps to y = scale*b + dt f(t, y), y = scale*x.
        def step(t, b, dt, tol):
            scale = math.exp(alpha * t)
            y, ok = orig_step(t, scale * b, dt, tol * scale)
            return y / scale, ok

        return step

    # Conjugation preserves the semimonotonicity and Lipschitz constants
    # exactly; the growth constant picks up exp(2 |alpha| T) only when the
    # rescaling factor can exceed one on [0, T].
    growth_factor = math.exp(2.0 * max(0.0, -alpha) * model.horizon)
    drift = DriftSpec(
        evaluate=_conjugate(c.drift.evaluate, alpha),
        semimonotone_m=c.drift.semimonotone_m,
        growth_d=c.drift.growth_d * growth_factor,
        implicit_step=make_implicit(c.drift.implicit_step),
    )
    diffusion = DiffusionSpec(
        evaluate=_conjugate(c.diffusion.evaluate, alpha),
        modes=c.diffusion.modes,
        lipschitz_c=c.diffusion.lipschitz_c,
        growth_d=c.diffusion.growth_d * growth_factor,
    )
    jump = JumpCoeffSpec(
        evaluate=_conjugate(c.jump.evaluate, alpha),
        compensator=_conjugate(c.jump.compensator, alpha),
        lipschitz_c=c.jump.lipschitz_c,
        growth_d=c.jump.growth_d * growth_factor,
        is_zero=c.jump.is_zero,
    )
    return replace(
        model,
        name=model.name + ":contraction",
        semigroup=model.semigroup.shifted(-alpha),
        coeffs=CoefficientSet(drift, diffusion, jump),
    )


def unrescale_values(values: np.ndarray, times: np.ndarray, alpha: float) -> np.ndarray:
    """Map a rescaled-gauge path back: X = exp(alpha t) X-tilde."""
    if alpha == 0.0:
        return values
    return values * np.exp(alpha * times)[:, None]


# ---------------------------------------------------------------------------
# Deterministic mild solve


def _implicit_f_step(f, t_next, b, dt, w, tol, damping, max_inner):
    """Solve x = b + dt f(t_next, x), batched over rows of b.

    Damped fixed-point iteration accelerated by a secant step scale estimated
    from the previous accepted move (valid because the residual map is
    strongly monotone for dt * M < 1). Per-row damping halves whenever a
    proposal fails to reduce the residual; only still-active rows are
    iterated. Returns (x, converged mask).
    """
    p = b.shape[0]
    x = b + dt * f(t_next, b)
    r = b + dt * f(t_next, x) - x
    rn = np.sqrt(weighted_norm_sq(r, w))
    theta = np.full(p, damping)
    xp = np.zeros_like(x)
    rp = np.zeros_like(r)
    have_prev = np.zeros(p, dtype=bool)
    s_max = 10.0
    idx = np.nonzero(rn > tol)[0]
    for _ in range(max_inner):
        if idx.size == 0:
            break
        xs, rs = x[idx], r[idx]
        s = theta[idx].copy()
        prev = have_prev[idx]
        if np.any(prev):
            dx = xs - xp[idx]
            dr = rs - rp[idx]
            denom = -np.einsum("pd,pd->p", dx, dr) if w is None else -np.einsum(
                "pd,d,pd->p", dx, w, dr
            )
            num = weighted_norm_sq(dx, w)
            safe = prev & (denom > 1e-300)
            s_bb = np.where(safe, num / np.where(safe, denom, 1.0), s)
            s = np.where(safe & (s_bb > 0.0) & (s_bb < s_max), s_bb, s)
        x_new = xs + s[:, None] * rs
        r_new = b[idx] + dt * f(t_next, x_new) - x_new
        rn_new = np.sqrt(weighted_norm_sq(r_new, w))
        accept = rn_new <= rn[idx] * (1.0 + 1e-12)
        acc_idx = idx[accept]
        rej_idx = idx[~accept]
        xp[acc_idx] = x[acc_idx]
        rp[acc_idx] = r[acc_idx]
        have_prev[acc_idx] = True
        x[acc_idx] = x_new[accept]
        r[acc_idx] = r_new[accept]
        rn[acc_idx] = rn_new[accept]
        theta[rej_idx] *= 0.5
        have_prev[rej_idx] = False
        idx = idx[rn[idx] > tol]
    return x, rn <= tol


def _solve_step_equation(drift, t_right, b, dt, w, tol, damping, max_inner):
    """Solve x = b + dt f(t, x) on batched rows, preferring the drift's own
    solver and finishing stragglers with the damped/secant iteration."""
    if drift.implicit_step is not None:
        out, ok = drift.implicit_step(t_right, b, dt, tol)
        if ok.all():
            return out, ok
        rows = np.nonzero(~ok)[0]
        fixed, ok_rows = _implicit_f_step(
            drift.evaluate, t_right, b[rows], dt, w, tol, damping, max_inner
        )
        out[rows] = fixed
        ok = ok.copy()
        ok[rows] = ok_rows
        return out, ok
    return _implicit_f_step(drift.evaluate, t_right, b, dt, w, tol, damping, max_inner)


def _advance_step(seg, drift, x, v_left, v_right, t_right, dt, w, tol, damping,
                  max_inner, depth, max_halvings):
    """One implicit step; rows whose inner iteration fails are re-run on a
    bisected cell (the forcing is piecewise constant, so its increment lands
    on the second half)."""
    b = seg.apply(dt, x - v_left) + v_right
    out, ok = _solve_step_equation(drift, t_right, b, dt, w, tol, damping, max_inner)
    if ok.all():
        return out
    if depth >= max_halvings:
        res = b + dt * drift.evaluate(t_right, out) - out
        worst = float(np.max(np.sqrt(weighted_norm_sq(res, w))))
        raise InnerIterationError(
            f"inner iteration stalled at t={t_right:.6g} after {max_halvings} "
            f"halvings (worst residual {worst:.3g}, tol {tol:.3g})"
        )
    rows = np.nonzero(~ok)[0]
    half = 0.5 * dt
    mid = _advance_step(
        seg, drift, x[rows], v_left[rows], v_left[rows], t_right - half, half, w,
        tol, damping, max_inner, depth + 1, max_halvings,
    )
    out[rows] = _advance_step(
        seg, drift, mid, v_left[rows], v_right[rows], t_right, half, w,
        tol, damping, max_inner, depth + 1, max_halvings,
    )
    return out


def _mild_core(seg, drift, x0, v_values, grid, w, tol, damping, max_inner,
               max_halvings):
    """Batched deterministic mild solve; v_values broadcast to (P, m+1, dim)."""
    m, dt = grid.n_steps, grid.dt
    t = grid.times
    x0 = np.asarray(x0, dtype=float)
    batch = np.broadcast_shapes(x0.shape[:-1], v_values.shape[:-2])
    squeeze = batch == ()
    if squeeze:
        batch = (1,)
    dim = x0.shape[-1]
    v_b = np.broadcast_to(v_values, batch + (m + 1, dim))
    values = np.zeros(batch + (m + 1, dim))
    values[:, 0, :] = x0 + v_b[:, 0, :]
    for j in range(m):
        values[:, j + 1, :] = _advance_step(
            seg, drift, values[:, j, :], v_b[:, j, :], v_b[:, j + 1, :],
            float(t[j + 1]), dt, w, tol, damping, max_inner, 0, max_halvings,
        )
    return values[0] if squeeze else values


def _apriori_bound(seg, drift, x0, v_values, grid, w, alpha, m_const):
    """Growth bound ||X0|| + ||V(t)|| + int exp((alpha+M)(t-s)) ||f(s, S_s X0 + V_s)|| ds,
    accumulated by the left-point rule on the grid."""
    m, dt = grid.n_steps, grid.dt
    t = grid.times
    x0 = np.asarray(x0, dtype=float)
    x0n = np.sqrt(weighted_norm_sq(x0, w))
    free = np.zeros_like(v_values[..., 0, :]) + x0
    growth = math.exp((alpha + m_const) * dt)
    batch = np.broadcast_shapes(x0.shape[:-1], v_values.shape[:-2])
    bound = np.zeros(batch + (m + 1,))
    bound[..., 0] = x0n
    acc = np.zeros(batch)
    for j in range(m):
        fn = np.sqrt(weighted_norm_sq(drift.evaluate(float(t[j]), free + v_values[..., j, :]), w))
        acc = growth * (acc + fn * dt)
        bound[..., j + 1] = x0n + np.sqrt(weighted_norm_sq(v_values[..., j + 1, :], w)) + acc
        free = seg.apply(dt, free)
    return bound


def _check_apriori_bound(seg, drift, x0, v_values, values, grid, w, alpha, slack, label):
    """Raise :class:`AprioriBoundError` when ||X(t)|| exceeds the a-priori
    bound by more than the relative ``slack``, naming the earliest such t and
    the first path row that exceeds it there."""
    bound = _apriori_bound(seg, drift, x0, v_values, grid, w, alpha, drift.semimonotone_m)
    actual = np.atleast_2d(np.sqrt(weighted_norm_sq(values, w)))
    bound = np.broadcast_to(bound, actual.shape)
    over = actual > bound * (1.0 + slack) + 1e-9
    if not over.any():
        return
    j = int(np.argmax(over.any(axis=0)))
    row = int(np.argmax(over[:, j]))
    raise AprioriBoundError(
        f"{label} exceeded the a-priori bound at t={grid.times[j]:.6g}, path row "
        f"{row}: norm {actual[row, j]:.6g} vs bound {bound[row, j]:.6g} "
        f"(+{slack:.0%} slack)"
    )


def solve_deterministic_mild(
    semigroup: Semigroup,
    drift: DriftSpec,
    x0: np.ndarray,
    forcing: CadlagPath,
    weights: np.ndarray | None = None,
    inner_tol: float = 1e-8,
    damping: float = 1.0,
    max_inner: int = 200,
    max_halvings: int = 6,
    check_bound: bool = True,
    bound_slack: float = 0.05,
) -> CadlagPath:
    """Solve X_t = S_t X0 + integral S_{t-s} f(s, X_s) ds + V_t on V's grid.

    Each step solves its implicit equation to residual ``inner_tol`` with
    damped fixed-point iteration, halving the step when the iteration stalls;
    exhaustion raises :class:`InnerIterationError` with diagnostics. When
    ``check_bound`` is set, the a-priori growth bound is verified as a
    postcondition up to a relative ``bound_slack`` (covering quadrature
    error); violations raise :class:`AprioriBoundError`.

    The forcing's jump marks carry over: X and V share their discontinuities
    because X - V is continuous in time.
    """
    grid = forcing.grid
    x0 = np.asarray(x0, dtype=float)
    squeeze = x0.ndim == 1 and forcing.values.ndim == 2
    x0_b = x0[None] if squeeze else x0
    v_b = forcing.values[None] if squeeze else forcing.values
    values = _mild_core(
        semigroup, drift, x0_b, v_b, grid, weights,
        inner_tol, damping, max_inner, max_halvings,
    )
    if squeeze:
        values = values[0]
    if check_bound:
        _check_apriori_bound(
            semigroup, drift, x0, forcing.values, values, grid, weights,
            semigroup.alpha, bound_slack, "deterministic mild solve",
        )
    pre = {
        j: values[..., j, :] - (forcing.values[j] - forcing.pre_jump[j])
        for j in forcing.pre_jump
    }
    return CadlagPath(grid, values, pre)


# ---------------------------------------------------------------------------
# Noise increments, shared by both solvers


def _cell_assembler(model: ModelSpec, noise: NoiseRealization, z=None):
    """Per-cell noise increments g(s, X_{s-}) dW + k dN-tilde on one realization.

    ``assemble(j, xl)`` freezes every coefficient at the cell's left-point
    state ``xl`` (paths, dim) and returns (compensator drift -dt * comp,
    g dW, jump sums), each None when its channel is absent or, for the jump
    sums, when the cell holds no event. The jump coefficient is called once
    per event cell, on the vectors of the cell's event times and marks, and
    np.add.at sums each (row, cell) in event order. With ``z`` given, the
    cell is also recorded there together with its brackets (squared jump
    norms and ||g||_HS^2 dt), which are computed only then.
    """
    grid = noise.grid
    dt, times = grid.dt, grid.times.tolist()
    w = model.weights
    g, k = model.coeffs.diffusion, model.coeffs.jump
    diffuse = not g.is_zero
    jumps = model.marks is not None and model.marks.rate > 0.0 and not k.is_zero
    starts = np.searchsorted(noise.jump_cell, np.arange(grid.n_steps + 1)).tolist()

    def assemble(j, xl):
        t = times[j]
        comp = gdw = sums = None
        if diffuse:
            cols = g.evaluate(t, xl)
            gdw = np.einsum("pkd,pk->pd", cols, noise.dW[:, j])
            if z is not None:
                z.diffusion[:, j] = gdw
                z.hs_sq[:, j] = hs_norm_sq(cols, w) * dt
        if jumps:
            comp = -dt * k.compensator(t, xl)
            lo, hi = starts[j], starts[j + 1]
            if lo < hi:
                rows = noise.jump_row[lo:hi]
                vecs = k.evaluate(noise.jump_time[lo:hi], noise.jump_mark[lo:hi], xl[rows])
                sums = np.zeros_like(xl)
                np.add.at(sums, rows, vecs)
                if z is not None:
                    z.jump_sums[:, j] = sums
                    np.add.at(z.jump_sq[:, j], rows, weighted_norm_sq(vecs, w))
            if z is not None:
                z.drift[:, j] = comp
        return comp, gdw, sums

    return assemble


# ---------------------------------------------------------------------------
# Picard iteration


@dataclass(eq=False)
class PicardTrace:
    """Per-iteration record of one solve (or aggregated means over paths).

    ``distances[n]`` tracks sup_{t <= T} ||X^{n+1} - X^n||^2, so index 0 holds
    the seed distance whose mean is the C0 of the predicted bound
    C0 C1^n t^n / n!. ``x_sup_sq[n]`` holds sup ||X^n||^2 for n = 0..N;
    ``v_sup_sq[n-1]`` holds sup ||V^n||^2 for n = 1..N. Quantities are
    measured in the contraction gauge when the model was rescaled.
    """

    distances: np.ndarray
    x_sup_sq: np.ndarray
    v_sup_sq: np.ndarray
    converged: bool
    tol: float

    @property
    def n_iterations(self) -> int:
        return len(self.distances)

    @staticmethod
    def predicted_bound(c0: float, c1: float, horizon: float, n) -> np.ndarray:
        """C0 C1^n T^n / n!, the proven decay of the iteration distances."""
        return np.array(
            [c0 * (c1 * horizon) ** int(v) / math.factorial(int(v)) for v in np.atleast_1d(n)]
        )


@dataclass(eq=False)
class BatchPicardResult:
    """Batched outcome: final iterate values plus per-path trace arrays."""

    grid: TimeGrid
    values: np.ndarray                 # (paths, m+1, dim), original gauge
    pre_jump: dict[int, np.ndarray]    # left limits at jump indices
    distances: np.ndarray              # (iters, paths)
    x_sup_sq: np.ndarray               # (iters+1, paths)
    v_sup_sq: np.ndarray               # (iters, paths)
    converged: bool
    tol: float
    alpha: float

    def trace(self, row: int | None = None) -> PicardTrace:
        """Single-path trace, or the across-path mean trace when row is None."""
        if row is None:
            return PicardTrace(
                distances=self.distances.mean(axis=1),
                x_sup_sq=self.x_sup_sq.mean(axis=1),
                v_sup_sq=self.v_sup_sq.mean(axis=1),
                converged=self.converged,
                tol=self.tol,
            )
        return PicardTrace(
            distances=self.distances[:, row],
            x_sup_sq=self.x_sup_sq[:, row],
            v_sup_sq=self.v_sup_sq[:, row],
            converged=self.converged,
            tol=self.tol,
        )


def picard_solve_batch(
    model: ModelSpec,
    grid: TimeGrid,
    master_seed: int = 0,
    path_indices=None,
    noise: NoiseRealization | None = None,
    n_max: int = 10,
    tol: float = 1e-14,
    damping: float = 1.0,
    inner_tol: float = 1e-8,
    max_inner: int = 200,
    max_halvings: int = 6,
    check_bound: bool = True,
    bound_slack: float = 0.05,
    run_all: bool = False,
) -> BatchPicardResult:
    """Successive approximation on a batch of frozen noise realizations.

    The model is rescaled to a contraction internally when its growth bound is
    nonzero; returned values are mapped back to the original gauge while the
    trace stays in the contraction gauge (where the proven bounds live).
    Stops at ``n_max`` iterations or when the mean iteration distance falls
    below ``tol`` (never early when ``run_all`` is set); three consecutive
    non-decreasing distances raise :class:`PicardDivergenceError`.
    """
    if noise is None:
        if path_indices is None:
            path_indices = range(1)
        noise = draw_noise(model, grid, master_seed, path_indices)
    alpha = model.semigroup.alpha
    work = rescale_to_contraction(model)
    seg, w = work.semigroup, work.weights
    m, dt = grid.n_steps, grid.dt
    p = noise.n_paths

    # X^0 = S_t X0.
    x_prev = np.zeros((p, m + 1, model.dim))
    x_prev[:, 0] = noise.x0
    for j in range(m):
        x_prev[:, j + 1] = seg.apply(dt, x_prev[:, j])

    distances: list[np.ndarray] = []
    x_sup: list[np.ndarray] = [weighted_norm_sq(x_prev, w).max(axis=1)]
    v_sup: list[np.ndarray] = []
    converged = False
    values = x_prev
    pre: dict[int, np.ndarray] = {}
    for n in range(1, n_max + 1):
        # Noise increments along the frozen iterate's left-point values.
        z = SemimartingaleIncrements.zeros(grid, model.dim, weights=w, batch=(p,))
        assemble = _cell_assembler(work, noise, z)
        for j in range(m):
            assemble(j, x_prev[:, j])
        v_values, v_pre = _convolve(seg, z, np.zeros((p, model.dim)), z.total())
        x_next = _mild_core(
            seg, work.coeffs.drift, noise.x0, v_values, grid, w,
            inner_tol, damping, max_inner, max_halvings,
        )
        if check_bound:
            _check_apriori_bound(
                seg, work.coeffs.drift, noise.x0, v_values, x_next, grid, w,
                0.0, bound_slack, f"{model.name}: iterate {n}",
            )
        dist = weighted_norm_sq(x_next - x_prev, w).max(axis=1)
        distances.append(dist)
        v_sup.append(weighted_norm_sq(v_values, w).max(axis=1))
        x_sup.append(weighted_norm_sq(x_next, w).max(axis=1))
        # X inherits V's discontinuities: X - V is continuous in time.
        values = x_next
        pre = {j: x_next[:, j] - (v_values[:, j] - v_pre[j]) for j in v_pre}
        x_prev = x_next
        mean_dist = float(dist.mean())
        if mean_dist < tol and not run_all:
            converged = True
            break
        if len(distances) >= 3:
            d3 = [float(d.mean()) for d in distances[-3:]]
            # The growth factor guards against false positives when distances
            # plateau at the inner-solver floor.
            if d3[2] >= d3[1] >= d3[0] and d3[2] > tol and d3[2] > 1.5 * d3[0]:
                raise PicardDivergenceError(
                    f"{model.name}: iteration distances non-decreasing over three "
                    f"iterations ({d3[0]:.3g}, {d3[1]:.3g}, {d3[2]:.3g}); "
                    "hypothesis violation or grid too coarse",
                    trace=np.array([float(d.mean()) for d in distances]),
                )
    if not converged and distances and float(distances[-1].mean()) < tol:
        converged = True

    out_values = values
    out_pre = pre
    if alpha != 0.0:
        factor = np.exp(alpha * grid.times)[:, None]
        out_values = values * factor
        out_pre = {j: pre[j] * math.exp(alpha * grid.times[j]) for j in pre}
    return BatchPicardResult(
        grid=grid,
        values=out_values,
        pre_jump=out_pre,
        distances=np.array(distances) if distances else np.zeros((0, p)),
        x_sup_sq=np.array(x_sup),
        v_sup_sq=np.array(v_sup) if v_sup else np.zeros((0, p)),
        converged=converged,
        tol=tol,
        alpha=alpha,
    )


def picard_solve(
    model: ModelSpec,
    seed: int,
    grid: TimeGrid,
    n_max: int = 10,
    tol: float = 1e-14,
    damping: float = 1.0,
    **kwargs,
) -> tuple[CadlagPath, PicardTrace]:
    """Single-path successive approximation; see :func:`picard_solve_batch`."""
    res = picard_solve_batch(
        model, grid, master_seed=seed, path_indices=[0],
        n_max=n_max, tol=tol, damping=damping, **kwargs,
    )
    path = CadlagPath(grid, res.values[0], {j: v[0] for j, v in res.pre_jump.items()})
    return path, res.trace(0)


# ---------------------------------------------------------------------------
# Direct exponential Euler integrator (cross-validation route)


@dataclass(eq=False)
class BatchDirectResult:
    grid: TimeGrid
    values: np.ndarray
    pre_jump: dict[int, np.ndarray]
    increments: SemimartingaleIncrements | None


def direct_solve_batch(
    model: ModelSpec,
    grid: TimeGrid,
    master_seed: int = 0,
    path_indices=None,
    noise: NoiseRealization | None = None,
    record_increments: bool = False,
) -> BatchDirectResult:
    """One-pass exponential Euler scheme applied to the integral equation.

    Per cell: X_{j+1} = S_dt (X_j + f dt + g dW + jumps - compensator dt),
    with every coefficient frozen at the cell's left endpoint. On the same
    noise realization this is the cross-check for the iterated solver. With
    ``record_increments`` the realized semimartingale increments are returned
    for replay through the energy-inequality checker.
    """
    if noise is None:
        if path_indices is None:
            path_indices = range(1)
        noise = draw_noise(model, grid, master_seed, path_indices)
    seg, w = model.semigroup, model.weights
    f = model.coeffs.drift.evaluate
    m, dt = grid.n_steps, grid.dt
    t = grid.times
    p = noise.n_paths

    values = np.zeros((p, m + 1, model.dim))
    values[:, 0] = noise.x0
    pre: dict[int, np.ndarray] = {}
    z = SemimartingaleIncrements.zeros(grid, model.dim, weights=w, batch=(p,)) if record_increments else None
    assemble = _cell_assembler(model, noise, z)
    for j in range(m):
        xj = values[:, j]
        comp, gdw, jump_part = assemble(j, xj)
        drift_part = f(float(t[j]), xj) * dt
        if comp is not None:
            drift_part += comp
        incr = drift_part + (0.0 if gdw is None else gdw)
        if jump_part is not None:
            stepped = seg.apply(dt, xj + incr + jump_part)
            values[:, j + 1] = stepped
            pre[j + 1] = stepped - seg.apply(dt, jump_part)
        else:
            values[:, j + 1] = seg.apply(dt, xj + incr)
        if z is not None:
            z.drift[:, j] = drift_part  # f dt joins the recorded compensator drift
    return BatchDirectResult(grid, values, pre, z)


def direct_solve(
    model: ModelSpec,
    seed: int,
    grid: TimeGrid,
    noise: NoiseRealization | None = None,
    record_increments: bool = False,
):
    """Single-path exponential Euler run; see :func:`direct_solve_batch`."""
    res = direct_solve_batch(
        model, grid, master_seed=seed, path_indices=[0],
        noise=noise, record_increments=record_increments,
    )
    path = CadlagPath(grid, res.values[0], {j: v[0] for j, v in res.pre_jump.items()})
    if record_increments:
        return path, res.increments
    return path
