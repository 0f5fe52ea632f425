"""Mild-solution machinery: contraction rescaling, the deterministic inner
solve with frozen forcing, the outer successive-approximation loop, and a
one-pass exponential Euler integrator for cross-validation.

The outer loop freezes one noise realization per path (same Wiener table,
same jump events) across all iterations: iterate n builds its forcing from the
left-point values of iterate n-1 on that same realization, then solves the
deterministic equation

    X_t = S_t X0 + integral S_{t-s} f(s, X_s) ds + V_t

per time step with a semi-implicit rule: implicit in f (the per-step equation
x = b + dt f(t, x) is uniquely solvable for dt * M < 1 when f is
semimonotone), explicit in V. Everything is vectorized over a leading path
axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import (
    CoefficientSet,
    DiffusionSpec,
    DriftSpec,
    JumpCoeffSpec,
    check_lipschitz_growth,
    check_semimonotone,
)
from .convolution import ItoCheckReport, stochastic_convolution
from .noise import MarkSpaceSpec, NoiseRealization
from .semigroup import Semigroup
from .state_space import hs_norm_sq, weighted_inner, weighted_norm_sq

__all__ = [
    "SolverError",
    "InnerIterationError",
    "PicardDivergenceError",
    "AprioriBoundError",
    "ModelValidationError",
    "ModelSpec",
    "rescale_to_contraction",
    "unrescale_values",
    "predicted_bound",
    "BatchPicardResult",
    "picard_solve_batch",
    "BatchDirectResult",
    "direct_solve_batch",
]


class SolverError(RuntimeError):
    pass


class InnerIterationError(SolverError):
    """Inner fixed-point iteration failed after all damping and step halving."""


class PicardDivergenceError(SolverError):
    """Iteration distances failed to decrease; hypothesis violation or grid too coarse."""


class AprioriBoundError(SolverError):
    """Solution exceeded the a-priori growth bound beyond the allowed slack."""


class ModelValidationError(SolverError):
    """A coefficient checker failed at model construction."""


@dataclass(eq=False)
class ModelSpec:
    """Complete problem description on the truncated space.

    ``weights`` fixes the inner product every norm below refers to; ``x0``
    (dim,) is the initial state every path starts from.
    """

    name: str
    semigroup: Semigroup
    coeffs: CoefficientSet
    weights: np.ndarray | None
    marks: MarkSpaceSpec | None
    x0: np.ndarray
    horizon: float

    @property
    def dim(self) -> int:
        return self.semigroup.dim

    @property
    def wiener_modes(self) -> int:
        return self.coeffs.diffusion.modes

    def validate(self):
        """Run both coefficient checkers; raise on any failed contract."""
        mono = check_semimonotone(self.coeffs.drift, self.dim, self.weights, t_max=self.horizon)
        growth = check_lipschitz_growth(
            self.coeffs, self.dim, self.weights, self.marks, t_max=self.horizon
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

# Cap on the inner iterations of one step solve.
_MAX_INNER = 200
# Relative slack of the a-priori bound check.
_BOUND_SLACK = 0.05
# Mean iteration distance below which the divergence guard ignores
# non-decreasing distances: they then sit at the inner solver's float floor.
_DIVERGENCE_FLOOR = 1e-14


def _implicit_f_step(f, t_next, b, dt, w, tol, damping):
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
    for _ in range(_MAX_INNER):
        if idx.size == 0:
            break
        xs, rs = x[idx], r[idx]
        s = theta[idx].copy()
        prev = have_prev[idx]
        if np.any(prev):
            dx = xs - xp[idx]
            dr = rs - rp[idx]
            denom = -weighted_inner(dx, dr, w)
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


def _solve_step_equation(drift, t_right, b, dt, w, tol, damping):
    """Solve x = b + dt f(t, x) on batched rows, preferring the drift's own
    solver and finishing stragglers with the damped/secant iteration."""
    if drift.implicit_step is not None:
        out, ok = drift.implicit_step(t_right, b, dt, tol)
        if ok.all():
            return out, ok
        rows = np.nonzero(~ok)[0]
        fixed, ok_rows = _implicit_f_step(drift.evaluate, t_right, b[rows], dt, w, tol, damping)
        out[rows] = fixed
        ok = ok.copy()
        ok[rows] = ok_rows
        return out, ok
    return _implicit_f_step(drift.evaluate, t_right, b, dt, w, tol, damping)


def _advance_step(seg, drift, x, v_left, v_right, t_right, dt, w, tol, damping,
                  depth, max_halvings, label=None, path_index=None):
    """One implicit step; rows whose inner iteration fails are re-run on a
    bisected cell (the forcing is piecewise constant, so its increment lands
    on the second half). A failure after ``max_halvings`` bisections names
    the stalled row with the largest residual by its entry of ``path_index``
    (the global path indices of the rows) and is prefixed with ``label``,
    each when given."""
    b = seg.apply(dt, x - v_left) + v_right
    out, ok = _solve_step_equation(drift, t_right, b, dt, w, tol, damping)
    if ok.all():
        return out
    rows = np.nonzero(~ok)[0]
    if depth >= max_halvings:
        out = out[rows]
        res = np.sqrt(weighted_norm_sq(b[rows] + dt * drift.evaluate(t_right, out) - out, w))
        worst = int(np.argmax(res))
        where = "" if label is None else f"{label}: "
        path = "" if path_index is None else f", path row {int(path_index[rows[worst]])}"
        raise InnerIterationError(
            f"{where}inner iteration stalled at t={t_right:.6g}{path} after {max_halvings} "
            f"halvings (worst residual {float(res[worst]):.3g}, tol {tol:.3g})"
        )
    sub_index = None if path_index is None else path_index[rows]
    half = 0.5 * dt
    mid = _advance_step(
        seg, drift, x[rows], v_left[rows], v_left[rows], t_right - half, half, w,
        tol, damping, depth + 1, max_halvings, label, sub_index,
    )
    out[rows] = _advance_step(
        seg, drift, mid, v_left[rows], v_right[rows], t_right, half, w,
        tol, damping, depth + 1, max_halvings, label, sub_index,
    )
    return out


def _mild_core(seg, drift, x0, v_values, grid, w, tol, damping, max_halvings,
               label=None, path_index=None):
    """Batched deterministic mild solve; v_values broadcast to (P, m+1, dim).
    ``label`` and ``path_index`` locate an inner-iteration failure (see
    :func:`_advance_step`)."""
    m, dt = grid.n_steps, grid.dt
    t = grid.times
    x0 = np.asarray(x0, dtype=float)
    batch = np.broadcast_shapes(x0.shape[:-1], v_values.shape[:-2])
    dim = x0.shape[-1]
    v_b = np.broadcast_to(v_values, batch + (m + 1, dim))
    values = np.zeros(batch + (m + 1, dim))
    values[:, 0, :] = x0 + v_b[:, 0, :]
    for j in range(m):
        values[:, j + 1, :] = _advance_step(
            seg, drift, values[:, j, :], v_b[:, j, :], v_b[:, j + 1, :],
            float(t[j + 1]), dt, w, tol, damping, 0, max_halvings, label, path_index,
        )
    return values


def _apriori_bound(drift, free, v_values, grid, w):
    """Growth bound ||X0|| + ||V(t)|| + int exp(M (t-s)) ||f(s, S_s X0 + V_s)|| ds
    of a contraction semigroup, accumulated by the left-point rule on the
    grid; ``free`` is the free path S_t X0."""
    m, dt = grid.n_steps, grid.dt
    t = grid.times
    x0n = np.sqrt(weighted_norm_sq(free[..., 0, :], w))
    growth = math.exp(drift.semimonotone_m * dt)
    batch = np.broadcast_shapes(free.shape[:-2], v_values.shape[:-2])
    bound = np.zeros(batch + (m + 1,))
    bound[..., 0] = x0n
    acc = np.zeros(batch)
    for j in range(m):
        fn = np.sqrt(weighted_norm_sq(drift.evaluate(float(t[j]), free[..., j, :] + v_values[..., j, :]), w))
        acc = growth * (acc + fn * dt)
        bound[..., j + 1] = x0n + np.sqrt(weighted_norm_sq(v_values[..., j + 1, :], w)) + acc
    return bound


def _check_apriori_bound(drift, free, v_values, values, grid, w, label, path_index=None):
    """Raise :class:`AprioriBoundError` when ||X(t)|| exceeds the a-priori
    bound by more than the relative ``_BOUND_SLACK``, naming the earliest
    such t and the first path row that exceeds it there, by its entry of
    ``path_index`` (the global path indices of the rows) when given."""
    bound = _apriori_bound(drift, free, v_values, grid, w)
    actual = np.atleast_2d(np.sqrt(weighted_norm_sq(values, w)))
    bound = np.broadcast_to(bound, actual.shape)
    over = actual > bound * (1.0 + _BOUND_SLACK) + 1e-9
    if not over.any():
        return
    j = int(np.argmax(over.any(axis=0)))
    row = int(np.argmax(over[:, j]))
    path = row if path_index is None else int(path_index[row])
    raise AprioriBoundError(
        f"{label} exceeded the a-priori bound at t={grid.times[j]:.6g}, path row "
        f"{path}: norm {actual[row, j]:.6g} vs bound {bound[row, j]:.6g} "
        f"(+{_BOUND_SLACK:.0%} slack)"
    )


# ---------------------------------------------------------------------------
# Noise increments, shared by both solvers


def _cell_assembler(model: ModelSpec, noise: NoiseRealization, brackets: bool = False):
    """Per-cell noise increments g(s, X_{s-}) dW + k dN-tilde on one realization.

    ``assemble(j, xl)`` freezes every coefficient at the cell's left-point
    state ``xl`` (..., dim), whose leading axes run over the paths in row
    order, and returns (compensator drift -dt * comp, g dW, jump sums,
    bracket), each None when its channel is absent or, for the jump sums,
    when the cell holds no event. The jump coefficient is called once per
    event cell, on the vectors of the cell's event times and marks and the
    flat rows they hit, and np.add.at sums each (row, cell) in event order.
    The bracket ||g||_HS^2 dt + sum of squared jump norms, shaped like xl
    without its last axis, is computed only with ``brackets`` set and is
    None otherwise.

    Cells are assembled in step order, j = 0, 1, ..; each pass from j = 0 on
    regenerates the Wiener increments from the noise's streams, one block of
    steps at a time.
    """
    grid = noise.grid
    dt, times = grid.dt, grid.times.tolist()
    w = model.weights
    g, k = model.coeffs.diffusion, model.coeffs.jump
    diffuse = not g.is_zero
    jumps = not (model.marks is None or model.marks.rate == 0.0)
    starts = np.searchsorted(noise.jump_cell, np.arange(grid.n_steps + 1)).tolist()
    blocks = block = None
    first = end = 0

    def wiener_increments(j):
        """dW of cell j, (paths, modes), from the block that holds it."""
        nonlocal blocks, block, first, end
        if j == 0:
            blocks, end = noise.wiener_blocks(), 0
        if j == end:
            block = next(blocks)
            first, end = j, j + block.shape[1]
        elif not first <= j < end:
            raise ValueError(f"cell {j} assembled out of step order")
        return block[:, j - first]

    def assemble(j, xl):
        t = times[j]
        comp = gdw = sums = None
        hs_sq = jump_sq = 0.0
        if diffuse:
            cols = g.evaluate(t, xl)
            dw = wiener_increments(j).reshape(xl.shape[:-1] + (-1,))
            gdw = np.einsum("...kd,...k->...d", cols, dw)
            if brackets:
                hs_sq = hs_norm_sq(cols, w) * dt
        if jumps:
            comp = -dt * k.compensator(t, xl)
            lo, hi = starts[j], starts[j + 1]
            if lo < hi:
                flat = xl.reshape(-1, xl.shape[-1])
                rows = noise.jump_row[lo:hi]
                vecs = k.evaluate(noise.jump_time[lo:hi], noise.jump_mark[lo:hi], flat[rows])
                sums = np.zeros_like(flat)
                np.add.at(sums, rows, vecs)
                sums = sums.reshape(xl.shape)
                if brackets:
                    jump_sq = np.zeros(len(flat))
                    np.add.at(jump_sq, rows, weighted_norm_sq(vecs, w))
                    jump_sq = jump_sq.reshape(xl.shape[:-1])
        bracket = None
        if brackets:
            bracket = np.zeros(xl.shape[:-1]) + hs_sq + jump_sq
        return comp, gdw, sums, bracket

    return assemble


# ---------------------------------------------------------------------------
# Picard iteration


def predicted_bound(c0: float, c1: float, horizon: float, n) -> np.ndarray:
    """C0 C1^n T^n / n!, the proven decay of the iteration distances."""
    return np.array(
        [c0 * (c1 * horizon) ** int(v) / math.factorial(int(v)) for v in np.atleast_1d(n)]
    )


@dataclass(eq=False)
class BatchPicardResult:
    """Final iterate values plus per-path records of the iteration.

    ``distances[n]`` holds sup_{t <= T} ||X^{n+1} - X^n||^2, so index 0 holds
    the seed distance whose mean is the C0 of :func:`predicted_bound`;
    ``x_sup_sq[n]`` holds sup ||X^n||^2 for n = 0..N and ``v_sup_sq[n-1]``
    holds sup ||V^n||^2 for n = 1..N. These records are measured in the
    contraction gauge when the model was rescaled; ``values`` are mapped back
    to the original gauge.
    """

    values: np.ndarray                 # (paths, m+1, dim)
    distances: np.ndarray              # (iters, paths)
    x_sup_sq: np.ndarray               # (iters+1, paths)
    v_sup_sq: np.ndarray               # (iters, paths)


def picard_solve_batch(
    model: ModelSpec,
    noise: NoiseRealization,
    n_max: int = 10,
    damping: float = 1.0,
    inner_tol: float = 1e-8,
    max_halvings: int = 6,
) -> BatchPicardResult:
    """Successive approximation on a batch of frozen noise realizations, on
    the noise's grid.

    The model is rescaled to a contraction internally when its growth bound is
    nonzero. All ``n_max`` iterates are run. Every iterate must stay inside
    its a-priori bound (:class:`AprioriBoundError`), and three consecutive
    non-decreasing distances raise :class:`PicardDivergenceError`.
    """
    alpha = model.semigroup.alpha
    work = rescale_to_contraction(model)
    seg, w = work.semigroup, work.weights
    grid = noise.grid
    m, p, dim = grid.n_steps, noise.n_paths, model.dim

    # X^0 = S_t X0, also the free path of every iterate's a-priori bound.
    free = x_prev = stochastic_convolution(
        seg, grid, noise.x0, np.broadcast_to(0.0, (p, m, dim))
    )

    distances: list[np.ndarray] = []
    x_sup: list[np.ndarray] = [weighted_norm_sq(x_prev, w).max(axis=1)]
    v_sup: list[np.ndarray] = []
    assemble = _cell_assembler(work, noise)
    for n in range(1, n_max + 1):
        # Noise increments along the frozen iterate's left-point values,
        # summed as drift + diffusion + jumps.
        dz = np.zeros((p, m, dim))
        for j in range(m):
            comp, gdw, sums, _ = assemble(j, x_prev[:, j])
            if comp is not None:
                dz[:, j] = comp
            if gdw is not None:
                dz[:, j] += gdw
            if sums is not None:
                dz[:, j] += sums
        v_values = stochastic_convolution(seg, grid, np.zeros((p, dim)), dz)
        label = f"{model.name}: iterate {n}"
        x_next = _mild_core(
            seg, work.coeffs.drift, noise.x0, v_values, grid, w,
            inner_tol, damping, max_halvings, label, noise.path_index,
        )
        _check_apriori_bound(
            work.coeffs.drift, free, v_values, x_next, grid, w, label, noise.path_index,
        )
        dist = weighted_norm_sq(x_next - x_prev, w).max(axis=1)
        distances.append(dist)
        v_sup.append(weighted_norm_sq(v_values, w).max(axis=1))
        x_sup.append(weighted_norm_sq(x_next, w).max(axis=1))
        x_prev = x_next
        if len(distances) >= 3:
            d3 = [float(d.mean()) for d in distances[-3:]]
            # The growth factor guards against false positives when distances
            # plateau at the inner-solver floor.
            if d3[2] >= d3[1] >= d3[0] and d3[2] > _DIVERGENCE_FLOOR and d3[2] > 1.5 * d3[0]:
                raise PicardDivergenceError(
                    f"{model.name}: iteration distances non-decreasing over three "
                    f"iterations ({d3[0]:.3g}, {d3[1]:.3g}, {d3[2]:.3g}); "
                    "hypothesis violation or grid too coarse"
                )

    return BatchPicardResult(
        values=unrescale_values(x_prev, grid.times, alpha),
        distances=np.array(distances),
        x_sup_sq=np.array(x_sup),
        v_sup_sq=np.array(v_sup),
    )


# ---------------------------------------------------------------------------
# Direct exponential Euler integrator (cross-validation route)


@dataclass(eq=False)
class BatchDirectResult:
    """Euler path values (rows, m+1, dim) of the rows whose path was kept, or
    only the terminal state (paths, 1, dim) when no path was kept, and the
    terminal states (paths, dim); with the energy terms recorded
    (``energy=True``), also ``norms_sq`` (paths, m+1) = ||X_j||^2 and
    ``per_cell`` (paths, m) = 2 <X_j, dZ_j> + d[Z]_j, both read off the states
    the step loop advanced."""

    values: np.ndarray
    terminal: np.ndarray
    norms_sq: np.ndarray | None = None
    per_cell: np.ndarray | None = None


def direct_solve_batch(
    model: ModelSpec,
    noise: NoiseRealization,
    energy: bool | ItoCheckReport = False,
    path: bool = True,
    path_rows: int | None = None,
    chunk_size: int | None = None,
) -> BatchDirectResult:
    """One-pass exponential Euler scheme applied to the integral equation.

    Per cell: X_{j+1} = S_dt (X_j + f dt + g dW + jumps - compensator dt),
    with every coefficient frozen at the cell's left endpoint, on the noise's
    grid. On the same noise realization this is the cross-check for the
    iterated solver. The step loop keeps the path of the first ``path_rows``
    rows (all by default) only with ``path`` set and no ``energy``, and
    otherwise only the terminal states.

    With ``energy`` the loop pairs each cell's raw increment
    dZ_j = (f dt - compensator dt + g dW) + jumps with its left-point state,
    2 <X_j, dZ_j> plus the cell's bracket (see ``_cell_assembler``), and takes
    ||X_{j+1}||^2. ``energy=True`` records both terms in the result; an
    :class:`ItoCheckReport` of no cells yet is fed them cell by cell
    instead, so nothing of length m per row is stored.

    The rows are stepped as a (paths / chunk_size, chunk_size, dim) array
    (one chunk of all rows by default), so every matrix product inside the
    semigroup and the coefficients runs on blocks of ``chunk_size`` rows and
    a row's bits do not depend on how many chunks are stacked.
    """
    seg = model.semigroup
    f = model.coeffs.drift.evaluate
    w = model.weights
    grid = noise.grid
    m, dt = grid.n_steps, grid.dt
    t = grid.times
    p, dim = noise.n_paths, model.dim
    chunk = p if chunk_size is None else chunk_size
    if chunk < 1 or p % chunk:
        raise ValueError(f"{p} rows do not split into chunks of {chunk}")

    x = noise.x0.reshape(p // chunk, chunk, dim)
    keep = path and energy is False
    rows = p if path_rows is None else max(0, min(path_rows, p))
    values = norms_sq = per_cell = None
    if energy is True:
        norms_sq = np.zeros((p, m + 1))
        norms_sq[:, 0] = weighted_norm_sq(x, w).reshape(p)
        per_cell = np.zeros((p, m))
    if keep:
        values = np.zeros((rows, m + 1, dim))
        values[:, 0] = noise.x0[:rows]
    assemble = _cell_assembler(model, noise, brackets=energy is not False)
    for j in range(m):
        comp, gdw, jump_part, bracket = assemble(j, x)
        drift_part = f(float(t[j]), x) * dt
        if comp is not None:
            drift_part += comp
        incr = drift_part + (0.0 if gdw is None else gdw)
        y = x + incr
        if jump_part is not None:
            y += jump_part  # (X_j + incr) + jumps: the CSV digests pin this order
        x_next = seg.apply(dt, y)
        if energy is not False:
            dz = incr if jump_part is None else incr + jump_part
            cell = (2.0 * weighted_inner(x, dz, w) + bracket).reshape(p)
            norm_next = weighted_norm_sq(x_next, w).reshape(p)
            if energy is True:
                per_cell[:, j] = cell
                norms_sq[:, j + 1] = norm_next
            else:
                energy.add(cell, norm_next)
        if keep and rows:
            values[:, j + 1] = x_next.reshape(p, dim)[:rows]
        x = x_next
    terminal = x.reshape(p, dim)
    if not keep:
        values = terminal[:, None, :]
    return BatchDirectResult(values, terminal, norms_sq, per_cell)
