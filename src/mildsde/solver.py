"""Mild-solution machinery: contraction rescaling, the deterministic inner
solve with frozen forcing, the outer successive-approximation loop, and a
one-pass exponential Euler integrator for cross-validation.

The outer loop freezes one noise realization per path (same Wiener streams,
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
    WHOLE,
    CoefficientSet,
    DriftSpec,
    check_lipschitz_growth,
    check_semimonotone,
    on_support,
    widen,
)
from .convolution import ItoCheckReport
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
    "require_solvable_step",
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
        mono = check_semimonotone(
            self.coeffs.drift, self.dim, self.weights, t_max=self.horizon,
            support=self.coeffs.support,
        )
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

    def conjugated(spec, **fields):
        # every other field, the constants included, is carried over as is
        return replace(
            spec, evaluate=_conjugate(spec.evaluate, alpha),
            growth_d=spec.growth_d * growth_factor, **fields,
        )

    coeffs = replace(
        c,
        drift=conjugated(c.drift, implicit_step=make_implicit(c.drift.implicit_step)),
        diffusion=conjugated(c.diffusion),
        jump=conjugated(c.jump, compensator=_conjugate(c.jump.compensator, alpha)),
    )
    return replace(
        model,
        name=model.name + ":contraction",
        semigroup=model.semigroup.shifted(-alpha),
        coeffs=coeffs,
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


def _implicit_f_step(f, t_next, b, dt, w, tol, damping, todo):
    """Solve x = b + dt f(t_next, x) on the rows of b (..., rows, dim) that
    ``todo`` (..., rows) marks.

    Damped fixed-point iteration accelerated by a secant step scale estimated
    from the previous accepted move (valid because the residual map is
    strongly monotone for dt * M < 1). Per-row damping halves whenever a
    proposal fails to reduce the residual. Every iteration runs on the whole
    stack at its full height and masks the update to the rows still active,
    so a row's bits do not depend on the other rows, and each block gets the
    bits it gets alone. Returns (x, converged mask).
    """
    x = b + dt * f(t_next, b)
    r = b + dt * f(t_next, x) - x
    rn = np.sqrt(weighted_norm_sq(r, w))
    theta = np.full(rn.shape, damping)
    xp, rp = x, r
    have_prev = np.zeros(rn.shape, dtype=bool)
    s_max = 10.0
    active = todo & (rn > tol)
    for _ in range(_MAX_INNER):
        if not active.any():
            break
        s = theta
        if have_prev.any():
            dx = x - xp
            dr = r - rp
            denom = -weighted_inner(dx, dr, w)
            num = weighted_norm_sq(dx, w)
            safe = have_prev & (denom > 1e-300)
            s_bb = np.where(safe, num / np.where(safe, denom, 1.0), s)
            s = np.where(safe & (s_bb > 0.0) & (s_bb < s_max), s_bb, s)
        x_new = x + s[..., None] * r
        r_new = b + dt * f(t_next, x_new) - x_new
        rn_new = np.sqrt(weighted_norm_sq(r_new, w))
        accept = active & (rn_new <= rn * (1.0 + 1e-12))
        reject = active & ~accept
        keep = accept[..., None]
        xp, rp = np.where(keep, x, xp), np.where(keep, r, rp)
        x, r = np.where(keep, x_new, x), np.where(keep, r_new, r)
        rn = np.where(accept, rn_new, rn)
        have_prev = (have_prev | accept) & ~reject
        theta = np.where(reject, 0.5 * theta, theta)
        active &= rn > tol
    return x, rn <= tol


def _whole_state_drift(coeffs: CoefficientSet, dim: int) -> DriftSpec:
    """The drift of ``coeffs`` with its evaluator widened to the whole state
    (see :func:`widen`), for the generic step and the stall report, which
    iterate on whole states; the drift itself when its support is the whole
    state."""
    drift, support = coeffs.drift, coeffs.support
    if support == WHOLE:
        return drift
    return replace(drift, evaluate=lambda t, x: widen(drift.evaluate(t, x), support, dim))


def _solve_step_equation(drift, t_right, b, dt, w, tol, damping):
    """Solve x = b + dt f(t, x) on the rows of b (..., rows, dim): the drift's
    own solver runs once on the whole stack, and one damped/secant iteration
    over the whole stack finishes the rows it left unsolved (every row when
    the drift has no solver of its own)."""
    if drift.implicit_step is None:
        todo = np.ones(b.shape[:-1], dtype=bool)
        return _implicit_f_step(drift.evaluate, t_right, b, dt, w, tol, damping, todo)
    out, ok = drift.implicit_step(t_right, b, dt, tol)
    if ok.all():
        return out, ok
    x, done = _implicit_f_step(drift.evaluate, t_right, b, dt, w, tol, damping, ~ok)
    return np.where(ok[..., None], out, x), ok | done


def _path_row(row, path_index):
    """", path row i" for the row index i, or for its global path index
    ``path_index[i]`` when given."""
    return f", path row {int(row if path_index is None else path_index[row])}"


def _non_finite_error(b, t_right, label=None, path_index=None):
    """The :class:`InnerIterationError` for the first row of b (rows, dim)
    that is not finite, or None when every row is: such a row has no step
    to solve and no bisection can mend it."""
    bad = ~np.isfinite(b).all(axis=-1)
    if not bad.any():
        return None
    where = "" if label is None else f"{label}: "
    return InnerIterationError(
        f"{where}non-finite state at t={t_right:.6g}{_path_row(int(np.argmax(bad)), path_index)}"
    )


def _advance_step(seg, drift, x, v_left, v_right, t_right, dt, w, tol, damping,
                  depth, max_halvings, label=None, path_index=None):
    """One implicit step of the rows x (rows, dim); rows whose inner
    iteration fails are re-run on a bisected cell (see :func:`_retry_rows`).
    A row whose step input is not finite fails at once. Failures name the
    row by its entry of ``path_index`` (the global path indices of the rows)
    and are prefixed with ``label``, each when given."""
    b = seg.apply(dt, x - v_left) + v_right
    err = _non_finite_error(b, t_right, label, path_index)
    if err is not None:
        raise err
    out, ok = _solve_step_equation(drift, t_right, b, dt, w, tol, damping)
    return _retry_rows(seg, drift, x, v_left, v_right, t_right, dt, w, tol, damping,
                       depth, max_halvings, label, path_index, b, out, ok)


def _retry_rows(seg, drift, x, v_left, v_right, t_right, dt, w, tol, damping,
                depth, max_halvings, label, path_index, b, out, ok):
    """Finish the step whose solve of x = b + dt f gave (out, ok): the rows
    not ok are re-run on a bisected cell (the forcing is piecewise constant,
    so its increment lands on the second half). A failure after
    ``max_halvings`` bisections names the stalled row with the largest
    residual."""
    if ok.all():
        return out
    rows = np.nonzero(~ok)[0]
    if depth >= max_halvings:
        out = out[rows]
        res = np.sqrt(weighted_norm_sq(b[rows] + dt * drift.evaluate(t_right, out) - out, w))
        worst = int(np.argmax(res))
        where = "" if label is None else f"{label}: "
        path = "" if path_index is None else _path_row(rows[worst], path_index)
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


def _bound_error(label, t, row, norm, bound, path_index=None):
    """The :class:`AprioriBoundError` of a path norm ||X(t)|| that exceeds its
    a-priori bound by more than the relative ``_BOUND_SLACK`` (or is not
    finite) at the earliest such t, on the first such row, named by its
    entry of ``path_index`` (the global path indices of the rows) when
    given."""
    return AprioriBoundError(
        f"{label} exceeded the a-priori bound at t={t:.6g}{_path_row(row, path_index)}: "
        f"norm {norm:.6g} vs bound {bound:.6g} (+{_BOUND_SLACK:.0%} slack)"
    )


# ---------------------------------------------------------------------------
# Noise increments, shared by both solvers


def _cell_assembler(model: ModelSpec, noise: NoiseRealization, brackets: bool = False):
    """Per-cell noise increments g(s, X_{s-}) dW + k dN-tilde on one realization.

    ``assemble(j, xl)`` freezes every coefficient at the cell's left-point
    state ``xl`` (..., dim) and returns (compensator drift -dt * comp, g dW,
    jump sums, bracket), each None when its channel is absent or, for the
    jump sums, when the cell holds no event. The increments hold only the
    components on the coefficients' support; the caller widens them into
    the state. The flattened rows of ``xl`` are k whole copies of
    the realization's paths in row order (k = 1 for the Euler route's chunk
    stack, one copy per iterate for the Picard wavefront), and every copy
    reads the same noise: the Wiener increments (paths, modes) broadcast
    over the copy axis, and the jump coefficient is called once per event
    cell, on the cell's event times and marks tiled k times and the flat
    rows they hit, copy n's rows offset by n * paths, so np.add.at still
    sums each (row, cell) in event order. The bracket ||g||_HS^2 dt + sum of
    squared jump norms, shaped like xl without its last axis, is computed
    only with ``brackets`` set and is None otherwise; its sums run over the
    support with the weights there, which the coefficients' zeros outside
    it leave unchanged.

    Cells are assembled in step order, j = 0, 1, ..; each pass from j = 0 on
    regenerates the Wiener increments from the noise's streams, one block of
    steps at a time.
    """
    grid = noise.grid
    dt, times = grid.dt, grid.times.tolist()
    w = on_support(model.weights, model.coeffs.support)
    g, k = model.coeffs.diffusion, model.coeffs.jump
    diffuse = not g.is_zero
    jumps = not (model.marks is None or model.marks.rate == 0.0)
    starts = np.searchsorted(noise.jump_cell, np.arange(grid.n_steps + 1)).tolist()
    paths = noise.n_paths
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
        flat = xl.reshape(-1, xl.shape[-1])
        copies = len(flat) // paths
        if diffuse:
            cols = g.evaluate(t, xl)
            dw = wiener_increments(j)
            if copies > 1:
                dw = np.broadcast_to(dw, (copies,) + dw.shape)
            gdw = np.einsum("...kd,...k->...d", cols, dw.reshape(xl.shape[:-1] + (-1,)))
            if brackets:
                hs_sq = hs_norm_sq(cols, w) * dt
        if jumps:
            comp = -dt * k.compensator(t, xl)
            lo, hi = starts[j], starts[j + 1]
            if lo < hi:
                rows = noise.jump_row[lo:hi]
                at, marks = noise.jump_time[lo:hi], noise.jump_mark[lo:hi]
                if copies > 1:
                    rows = (rows + paths * np.arange(copies)[:, None]).ravel()
                    at, marks = np.tile(at, copies), np.tile(marks, copies)
                vecs = k.evaluate(at, marks, flat[rows])
                sums = np.zeros((len(flat), vecs.shape[-1]))
                np.add.at(sums, rows, vecs)
                sums = sums.reshape(xl.shape[:-1] + sums.shape[-1:])
                if brackets:
                    jump_sq = np.zeros(len(flat))
                    np.add.at(jump_sq, rows, weighted_norm_sq(vecs, w))
                    jump_sq = jump_sq.reshape(xl.shape[:-1])
        bracket = None
        if brackets:
            # hs_sq, a sum of squares, is never -0.0, so 0.0 + hs_sq == hs_sq
            bracket = hs_sq + jump_sq if diffuse else np.zeros(xl.shape[:-1]) + jump_sq
        return comp, gdw, sums, bracket

    return assemble


# ---------------------------------------------------------------------------
# Picard iteration


def require_solvable_step(model: ModelSpec, dt: float) -> None:
    """Raise :class:`SolverError` unless M dt < 1, where M is the drift's
    semimonotonicity constant: only then is the per-step equation x = b +
    dt f(t, x) uniquely solvable."""
    m = model.coeffs.semimonotone_m
    if not m * dt < 1.0:
        raise SolverError(
            f"{model.name}: the implicit step needs M dt < 1 (M = {m:.6g}, dt = {dt:.6g})"
        )


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

    values: np.ndarray                 # (rows, m+1, dim), the kept rows
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
    path_rows: int | None = None,
) -> BatchPicardResult:
    """Successive approximation on a batch of frozen noise realizations, on
    the noise's grid.

    The model is rescaled to a contraction internally when its growth bound is
    nonzero. A grid with M dt >= 1 is refused at once
    (:func:`require_solvable_step`). All ``n_max`` iterates are run. Every
    iterate must stay inside its a-priori bound (:class:`AprioriBoundError`),
    and three consecutive non-decreasing distances raise
    :class:`PicardDivergenceError`. The last iterate's path is kept for the
    first ``path_rows`` rows (all by default); the per-path records cover
    every row.

    Iterate n at step j reads only its own state and iterate n-1's
    left-point state at j, so the iterates advance together as a wavefront:
    one loop over j steps every iterate as a block of a (iterates, paths, dim)
    stack. Each iterate's first inner-iteration failure and first bound
    excess are recorded as they happen; a failure stops the iterate and
    every iterate above it, an excess every iterate above it. The errors
    are then raised in the order the iterates would raise them one after
    the other: for n = 1, 2, .. the inner failure, the bound excess, then
    the divergence guard over the distances up to n.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    require_solvable_step(model, noise.grid.dt)
    alpha = model.semigroup.alpha
    work = rescale_to_contraction(model)
    seg, w, drift = work.semigroup, work.weights, work.coeffs.drift
    support = work.coeffs.support
    grid = noise.grid
    m, dt, t = grid.n_steps, grid.dt, grid.times
    p, dim = noise.n_paths, model.dim
    width = len(range(dim)[support])
    w_on = on_support(w, support)
    step_drift = _whole_state_drift(work.coeffs, dim)
    labels = [f"{model.name}: iterate {n}" for n in range(1, n_max + 1)]
    failed: list = [None] * n_max     # first inner-iteration failure per iterate
    over: list = [None] * n_max       # first a-priori bound excess per iterate
    live = n_max                      # iterates 1..live still advance

    # states[0] is X^0 = S_t X0, the free path of every iterate's a-priori
    # bound, and states[n] is X^n, all at the current grid point; V^n is
    # v[n - 1]. The bound is ||X0|| + ||V(t_j)|| + acc_j. With y = S_t X0 +
    # V^n and u = X^n - y, the implicit step gives u_{j+1} = S_dt u_j + dt
    # f(t_{j+1}, y_{j+1} + u_{j+1}); semimonotonicity and ||S_dt|| <= 1 then
    # give (1 - M dt) ||u_{j+1}|| <= ||u_j|| + dt ||f(t_{j+1}, y_{j+1})||,
    # which acc accumulates with the right-point f.
    states = np.empty((n_max + 1, p, dim))
    states[0] = noise.x0
    states[1:] = noise.x0 + np.zeros((p, dim))
    v = np.zeros((n_max, p, dim))
    acc = np.zeros((n_max, p))
    x0n = np.sqrt(weighted_norm_sq(states[0], w))
    growth = 1.0 / (1.0 - drift.semimonotone_m * dt)
    rows = p if path_rows is None else max(0, min(path_rows, p))
    values = np.zeros((rows, m + 1, dim))  # the last iterate's path of the kept rows
    values[:, 0] = states[n_max, :rows]
    sq = weighted_norm_sq(states, w)
    x_max_sq = sq.copy()                  # running sup ||X^n||^2, n = 0..N
    v_max_sq = np.zeros((n_max, p))       # running sup ||V^n||^2
    dist_max = weighted_norm_sq(states[1:] - states[:-1], w)

    def check_bound(j, norm_sq, bound):
        """Record the lowest live iterate's first excess at t_j, if it has
        one there; stop the iterates above it."""
        nonlocal live
        norm = np.sqrt(norm_sq)
        excess = ~(norm <= bound * (1.0 + _BOUND_SLACK) + 1e-9) | ~np.isfinite(norm)
        if excess.any():
            n = int(np.argmax(excess.any(axis=1)))
            if over[n] is None:
                row = int(np.argmax(excess[n]))
                over[n] = _bound_error(labels[n], t[j], row, norm[n, row], bound[n, row],
                                       noise.path_index)
            live = n + 1

    def fail(n, err):
        """Record iterate n + 1's inner failure; stop it and those above."""
        nonlocal live
        failed[n] = err
        live = n

    check_bound(0, sq[1:], np.broadcast_to(x0n, (n_max, p)))
    assemble = _cell_assembler(work, noise)
    with np.errstate(all="ignore"):
        for j in range(m):
            if not live:  # iterate 1 failed: nothing is left to advance
                break
            a = live
            t_right = float(t[j + 1])
            free = states[0]
            x = states[1 : a + 1]
            # Per cell, for every live iterate: the noise increment along the
            # previous iterate's left-point value (summed as drift + diffusion
            # + jumps), the convolution V^n one step on, the implicit step of
            # X^n driven by V^n, and X^n's a-priori bound.
            comp, gdw, sums, _ = assemble(j, states[:a])
            # v + (comp + gdw + sums), summed in place in the freshly built comp
            # (in zeros without jumps) and widened into the state
            dz = np.zeros((a, p, width)) if comp is None else comp
            if gdw is not None:
                dz += gdw
            if sums is not None:
                dz += sums
            dz = widen(dz, support, dim)
            dz += v[:a]
            v_next = seg.apply(dt, dz)
            b = seg.apply(dt, x - v[:a])
            b += v_next
            if not np.isfinite(b).all():
                n = int(np.argmax(~np.isfinite(b).all(axis=(1, 2))))
                fail(n, _non_finite_error(b[n], t_right, labels[n], noise.path_index))
            out, ok = _solve_step_equation(step_drift, t_right, b[:live], dt, w, inner_tol, damping)
            if not ok.all():  # scan the iterates only when some row failed
                for n in np.flatnonzero(~ok.all(axis=1)).tolist():
                    if n >= live:
                        break
                    try:
                        out[n] = _retry_rows(
                            seg, step_drift, x[n], v[n], v_next[n], t_right, dt, w, inner_tol,
                            damping, 0, max_halvings, labels[n], noise.path_index,
                            b[n], out[n], ok[n],
                        )
                    except InnerIterationError as err:
                        fail(n, err)
            a = live
            free_next = seg.apply(dt, free + 0.0)
            fn = np.sqrt(weighted_norm_sq(drift.evaluate(t_right, free_next + v_next[:a]), w_on))
            acc[:a] = growth * (acc[:a] + fn * dt)
            v_next_sq = weighted_norm_sq(v_next[:a], w)
            np.maximum(v_max_sq[:a], v_next_sq, out=v_max_sq[:a])
            v[:a] = v_next[:a]
            states[0] = free_next
            states[1 : a + 1] = out[:a]
            sq = weighted_norm_sq(states[: a + 1], w)
            np.maximum(x_max_sq[: a + 1], sq, out=x_max_sq[: a + 1])
            diff_sq = weighted_norm_sq(states[1 : a + 1] - states[:a], w)
            np.maximum(dist_max[:a], diff_sq, out=dist_max[:a])
            check_bound(j + 1, sq[1:], x0n + np.sqrt(v_next_sq) + acc[:a])
            values[:, j + 1] = states[n_max, :rows]

    distances: list[np.ndarray] = []
    for n in range(n_max):
        if failed[n] is not None:
            raise failed[n]
        if over[n] is not None:
            raise over[n]
        distances.append(dist_max[n])
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
        values=unrescale_values(values, grid.times, alpha),
        distances=np.array(distances),
        x_sup_sq=x_max_sq,
        v_sup_sq=v_max_sq,
    )


# ---------------------------------------------------------------------------
# Direct exponential Euler integrator (cross-validation route)


@dataclass(eq=False)
class BatchDirectResult:
    """Euler path values (rows, m+1, dim) of the rows whose path was kept and
    the terminal states (paths, dim) of all rows."""

    values: np.ndarray
    terminal: np.ndarray


def direct_solve_batch(
    model: ModelSpec,
    noise: NoiseRealization,
    energy: ItoCheckReport | None = None,
    path_rows: int | None = None,
    chunk_size: int | None = None,
) -> BatchDirectResult:
    """One-pass exponential Euler scheme applied to the integral equation.

    Per cell: X_{j+1} = S_dt (X_j + f dt + g dW + jumps - compensator dt),
    with every coefficient frozen at the cell's left endpoint, on the noise's
    grid. On the same noise realization this is the cross-check for the
    iterated solver. The step loop keeps the path of the first ``path_rows``
    rows (all by default, none with ``energy``) and the terminal states.

    With ``energy``, an :class:`ItoCheckReport` of no cells yet, the loop
    pairs each cell's raw increment dZ_j = (f dt - compensator dt + g dW) +
    jumps with its left-point state, 2 <X_j, dZ_j> plus the cell's bracket
    (see ``_cell_assembler``), takes ||X_{j+1}||^2 and feeds both terms to
    the report cell by cell, so nothing of length m per row is stored.

    The rows are stepped as a (paths / chunk_size, chunk_size, dim) array
    (one chunk of all rows by default), so every matrix product inside the
    semigroup and the coefficients runs on blocks of ``chunk_size`` rows and
    a row's bits do not depend on how many chunks are stacked.

    Without ``energy``, a state that is not finite fails the run
    (:class:`InnerIterationError`) at the first step where it appears,
    naming t and the global path row. A row that stops being finite stays
    so, since each step adds to the state and the semigroups are linear, so
    the loop looks only at the terminal states and, when one is not finite,
    steps the rows again, checking each step. With ``energy``, such a row's
    slack is NaN, which the report counts as a violation. The loop runs
    under ``np.errstate(all="ignore")``.
    """
    p = noise.n_paths
    chunk = p if chunk_size is None else chunk_size
    if chunk < 1 or p % chunk:
        raise ValueError(f"{p} rows do not split into chunks of {chunk}")
    with np.errstate(all="ignore"):
        res = _euler_steps(model, noise, energy, path_rows, chunk)
        if energy is None and not np.isfinite(res.terminal).all():
            _euler_steps(model, noise, None, 0, chunk, check=True)
    return res


def _euler_steps(model, noise, energy, path_rows, chunk, check=False):
    """The step loop of :func:`direct_solve_batch` on chunks of ``chunk``
    rows; with ``check``, the first step whose state is not finite raises.
    Each cell's increment is formed on the coefficients' support and added
    into the state once, with +0.0 outside it."""
    seg = model.semigroup
    f = model.coeffs.drift.evaluate
    support = model.coeffs.support
    w = model.weights
    w_on = on_support(w, support)
    grid = noise.grid
    m, dt = grid.n_steps, grid.dt
    t = grid.times
    p, dim = noise.n_paths, model.dim

    x = noise.x0.reshape(p // chunk, chunk, dim)
    rows = p if path_rows is None else max(0, min(path_rows, p))
    if energy is not None:
        rows = 0
    values = np.zeros((rows, m + 1, dim))
    values[:, 0] = noise.x0[:rows]
    assemble = _cell_assembler(model, noise, brackets=energy is not None)
    for j in range(m):
        comp, gdw, jump_part, bracket = assemble(j, x)
        drift_part = f(float(t[j]), x) * dt
        if comp is not None:
            drift_part += comp
        incr = drift_part + (0.0 if gdw is None else gdw)
        if support == WHOLE:
            y = x + incr
        else:
            # x + widen(incr): +0.0 outside the support, x + incr on it
            y = x + 0.0
            np.add(on_support(x, support), incr, out=on_support(y, support))
        if jump_part is not None:
            # (X_j + incr) + jumps: the CSV digests pin this order; outside
            # the support, y already holds X_j + 0.0. The view adds into y.
            y_on = on_support(y, support)
            y_on += jump_part
        x_next = seg.apply(dt, y)
        if check:
            err = _non_finite_error(x_next.reshape(p, dim), float(t[j + 1]), model.name,
                                    noise.path_index)
            if err is not None:
                raise err
        if energy is not None:
            dz = incr if jump_part is None else incr + jump_part
            energy.add(
                (2.0 * weighted_inner(on_support(x, support), dz, w_on) + bracket).reshape(p),
                weighted_norm_sq(x_next, w).reshape(p),
            )
        if rows:
            values[:, j + 1] = x_next.reshape(p, dim)[:rows]
        x = x_next
    return BatchDirectResult(values, x.reshape(p, dim))
