"""Coefficient triples (drift, diffusion, jump) with declared constants and
statistical checkers for the contracts the solver relies on.

Evaluator conventions (all batch-friendly along leading axes). Every
evaluator reads the whole state x (..., dim) and returns only the k
components of its set's ``support`` (:class:`CoefficientSet`), a slice of the
state that is the whole state (k = dim) by default:

* drift:      ``f(t, x)``        with x of shape (..., dim) -> (..., k)
* diffusion:  ``g(t, x)``        -> (..., modes, k), one column per Wiener mode
* jump:       ``k(t, xi, x)``    x (..., dim) -> (..., k); the mark xi and
  the time t are scalars or arrays that broadcast against x's leading axes
  (the solvers pass one (time, mark) pair per row of x; the jump quadrature
  of :func:`check_lipschitz_growth` passes a (nodes, 1) column of marks
  against (pairs, dim) states, in node blocks whose results are capped at
  ``_JUMP_BLOCK`` = 2^15 values)
* jump compensator: ``(t, x) -> (..., k)``, the intensity integral of k

The coefficients are exactly zero outside the support, so a consumer forms
its increments on the support, takes weighted sums there with the weights
``w[support]`` (:func:`on_support`), and widens into the state once
(:func:`widen`), which adds +0.0 outside the support as a zero-filled
evaluator would. A weighted sum over a support of one column, or over a
trailing block of columns, has the bits of the zero-padded sum; an
unweighted sum over several columns need not, since numpy's two-operand
einsum accumulates it in partial sums whose grouping the padding shifts.
The shipped models with a narrower support (delay and hyperbolic) are
weighted.

Constants are declared by the builder and verified by sampling, never
estimated: the predicted iteration bounds need them as inputs. The checkers
evaluate the drift, the diffusion columns and the pair distances in blocks
of at most ``_ROW_BLOCK`` sample pairs, so their memory does not grow with
the sample beyond the pairs themselves and a few values per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .noise import MarkSpaceSpec
from .state_space import hs_norm_sq, weighted_inner, weighted_norm_sq

__all__ = [
    "AliasingError",
    "DriftSpec",
    "DiffusionSpec",
    "JumpCoeffSpec",
    "CoefficientSet",
    "WHOLE",
    "RESIDUAL_FLOOR",
    "residual_floor",
    "on_support",
    "widen",
    "zero_diffusion",
    "nemitsky_sine",
    "nemitsky_implicit_solver",
    "SemimonotoneReport",
    "GrowthReport",
    "check_semimonotone",
    "check_lipschitz_growth",
]


class AliasingError(ValueError):
    """Quadrature grid too coarse to resolve the retained modes."""


# Rounding floor of a step residual b + dt f(x) - x per unit of ||b||: b, dt f(x)
# and x round at eps times their norms, at most 1, 3 and 2 ||b|| for M dt <= 1/2
# and f(0) = 0 (||x|| <= ||b|| / (1 - M dt)); 16 > 6 covers f's products too.
RESIDUAL_FLOOR = 2.0 ** -48  # 16 eps, a power of two


def residual_floor(b: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """``RESIDUAL_FLOOR * ||b||_w`` per row of b (..., dim), squared after the
    exact scaling by RESIDUAL_FLOOR: a square overflows only where the floor
    tops 1.3e154, the largest norm a sum of squares holds, and the floor is
    held there, so only a residual whose norm is finite passes it."""
    q = weighted_norm_sq(RESIDUAL_FLOOR * b, w)
    return np.sqrt(np.minimum(q, np.finfo(float).max, out=q), out=q)


@dataclass(eq=False)
class DriftSpec:
    """Drift evaluator with declared semimonotonicity and growth constants.

    The contract is ``<f(t,x)-f(t,y), x-y> <= semimonotone_m * ||x-y||^2`` and
    ``||f(t,x)||^2 <= growth_d * (1 + ||x||^2)`` in the model's weighted norm.

    ``implicit_step(t, b, dt, tol)`` optionally solves the per-step equation
    x = b + dt f(t, x) exactly for drifts that know their own structure
    (pointwise compositions reduce to a closed-form scalar root per point,
    which is immune to unbounded local slopes); it returns
    ``(x, converged_mask)``. The solvers call it only with M dt < 1, M =
    ``semimonotone_m``, where that equation has one root (see
    :func:`~mildsde.solver.require_solvable_step`), so it need not handle a
    larger dt. ``b`` is (..., rows, dim) and each leading index
    is a block: the Picard solver stacks one block per iterate. Each row is
    an equation of its own, so a row's x and mask must not depend on the
    rows solved with it beyond the rounding of matrix products, which
    depends on their height. Rows it fails go to step halving; the generic
    damped iteration solves only drifts without a step. Both also accept a
    row whose residual is at most ``RESIDUAL_FLOOR * ||b||``
    (:func:`residual_floor`).
    """

    evaluate: Callable[[float, np.ndarray], np.ndarray]
    semimonotone_m: float
    growth_d: float
    implicit_step: Callable | None = None


@dataclass(eq=False)
class DiffusionSpec:
    """Hilbert-Schmidt diffusion stored as a family of mode columns."""

    evaluate: Callable[[float, np.ndarray], np.ndarray]
    modes: int
    lipschitz_c: float
    growth_d: float

    @property
    def is_zero(self) -> bool:
        return self.modes == 0


@dataclass(eq=False)
class JumpCoeffSpec:
    """Jump coefficient with its intensity-integral compensator.

    ``lipschitz_c`` bounds the intensity integral of ||k(t,xi,x)-k(t,xi,y)||^2
    by lipschitz_c * ||x-y||^2; ``growth_d`` bounds the intensity integral of
    ||k(t,xi,x)||^2 by growth_d * (1 + ||x||^2). It acts only when the
    model's mark space has a positive rate.
    """

    evaluate: Callable[..., np.ndarray]  # k(t, xi, x); see the module docstring
    compensator: Callable[[float, np.ndarray], np.ndarray]
    lipschitz_c: float
    growth_d: float


# The support of coefficients that act on every component of the state.
WHOLE = slice(None)


@dataclass(eq=False)
class CoefficientSet:
    """The full triple; aggregate constants are sums of the parts.

    ``support`` is the slice of state components the three coefficients act
    on, fixed by the model's builder: each evaluator returns only those
    components, and the others are exactly zero (see the module docstring).
    """

    drift: DriftSpec
    diffusion: DiffusionSpec
    jump: JumpCoeffSpec
    support: slice = field(default_factory=lambda: WHOLE)

    @property
    def semimonotone_m(self) -> float:
        return self.drift.semimonotone_m

    @property
    def lipschitz_c(self) -> float:
        return self.diffusion.lipschitz_c + self.jump.lipschitz_c

    @property
    def growth_d(self) -> float:
        return self.drift.growth_d + self.diffusion.growth_d + self.jump.growth_d


def on_support(a: np.ndarray | None, support: slice) -> np.ndarray | None:
    """The components of ``a`` (..., dim) on ``support``: ``a`` itself for
    the whole state, and None (unit weights) stays None."""
    if a is None or support == WHOLE:
        return a
    return a[..., support]


def widen(part: np.ndarray, support: slice, dim: int) -> np.ndarray:
    """``part`` (..., k), the components on ``support``, as a (..., dim)
    array that is +0.0 outside the support; ``part`` itself, with no numpy
    call, for the whole state."""
    if support == WHOLE:
        return part
    out = np.zeros(part.shape[:-1] + (dim,))
    out[..., support] = part
    return out


def zero_diffusion(width: int) -> DiffusionSpec:
    """No Wiener term on a support of ``width`` components."""

    def evaluate(t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (0, width))

    return DiffusionSpec(evaluate=evaluate, modes=0, lipschitz_c=0.0, growth_d=0.0)


def sine_quadrature(n_modes: int, n_quad: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes on (0,1) and the synthesis matrix of the sine basis.

    With n_quad midpoints the discrete sine modes are exactly orthonormal
    under the midpoint rule as long as every retained mode index stays below
    n_quad, so synthesis followed by projection is the exact identity.
    """
    nodes = (np.arange(n_quad) + 0.5) / n_quad
    ks = np.arange(1, n_modes + 1)
    synthesis = np.sqrt(2.0) * np.sin(np.pi * np.outer(nodes, ks))
    return nodes, synthesis


def _unaliased_synthesis(n_modes: int, n_quad: int | None) -> tuple[int, np.ndarray]:
    """The quadrature size (2 * n_modes when None) and the synthesis matrix
    of a Nemitsky lift; a grid coarser than twice the mode count aliases and
    raises :class:`AliasingError`."""
    if n_quad is None:
        n_quad = 2 * n_modes
    if n_quad < 2 * n_modes:
        raise AliasingError(
            f"{n_quad} quadrature points cannot resolve {n_modes} sine modes; "
            f"need at least {2 * n_modes}"
        )
    return n_quad, sine_quadrature(n_modes, n_quad)[1]


def nemitsky_sine(
    scalar_fn: Callable[[np.ndarray], np.ndarray],
    n_modes: int,
    n_quad: int | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Pointwise composition operator lifted to sine coefficients on (0,1).

    Synthesizes the function on a midpoint quadrature grid, applies
    ``scalar_fn`` pointwise, and projects back. Grids coarser than twice the
    mode count alias and are rejected. The returned callable maps coefficient
    arrays of shape (..., n_modes) to the same shape and has no explicit time
    argument (compose into a DriftSpec evaluator as needed).
    """
    n_quad, synthesis = _unaliased_synthesis(n_modes, n_quad)
    projection = synthesis / n_quad

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pointwise = scalar_fn(x @ synthesis.T)
        return pointwise @ projection

    return evaluate


# Outer sweeps of the Nemitsky implicit step before it returns its rows.
_MAX_OUTER = 60


def nemitsky_implicit_solver(
    scalar_fn: Callable[[np.ndarray], np.ndarray],
    prox: Callable[[np.ndarray, float], np.ndarray],
    n_modes: int,
    n_quad: int | None = None,
    linear_shift: float = 0.0,
):
    """Implicit-step solver for drifts of the form P phi(E x) + shift * x.

    Works in the quadrature domain: with the projection correction frozen the
    equation decouples into scalar monotone roots u = v + dt * phi(u), which
    ``prox(v, dt)`` solves exactly; it returns -phi(u) at the root, the only
    value of u the step reads (for phi = -cbrt, the cube root w = cbrt(u)
    that the prox solves for). The outer loop updates the correction, which
    the projection contracts. Returns a callable
    ``(t, b, dt, tol) -> (x, converged_mask)`` over the blocks of batched
    rows b (..., rows, dim) (see :class:`DriftSpec`); each row retires on the
    first sweep that accepts it.
    """
    n_quad, synthesis = _unaliased_synthesis(n_modes, n_quad)

    dust_cache: dict[float, float] = {}

    def dust_scale(dt):
        """Scale s solving s = dt * |phi(s) - phi(0)|: states below it are
        inside the implicit step's own attraction basin, where the decreasing
        drift self-limits perturbations (finite-time extinction), so residuals
        that are a small fraction of this scale cannot move any statistic
        above the scheme's strong error."""
        s = dust_cache.get(dt)
        if s is None:
            p0 = float(scalar_fn(np.zeros(1))[0])
            s = 2.0 * dt
            for _ in range(60):
                varn = max(
                    abs(float(scalar_fn(np.array([s]))[0]) - p0),
                    abs(float(scalar_fn(np.array([-s]))[0]) - p0),
                )
                s_new = dt * varn
                if s_new <= 0.0 or abs(s_new - s) <= 1e-3 * s:
                    s = s_new
                    break
                s = s_new
            dust_cache[dt] = s
        return s

    def step(t, b, dt, tol):
        den = 1.0 - dt * linear_shift
        # The blocks of b are flattened into rows. A row retires on the first
        # sweep that accepts it, with that sweep's x and ok, and its Anderson
        # state leaves the live rows with it; later sweeps run on the rows
        # not yet accepted.
        shape = b.shape
        b = b.reshape(-1, shape[-1])
        x_out = np.empty_like(b)
        ok_out = np.zeros(len(b), dtype=bool)
        live = np.arange(len(b))
        bt = b / den
        dte = dt / den
        v = bt @ synthesis.T
        accept = np.maximum(max(tol, dust_scale(dt) / 32.0), residual_floor(b))
        # The correction c starts at zero, held as the scalar 0.0: v + dte *
        # 0.0 and f_prev + 0.0 have the bits of the same sums with an array of
        # zeros, and g - 0.0 is g. The sweep is bound by its count of numpy
        # calls on small arrays, so each value is formed in place, in the
        # order of the formula in its comment.
        c = 0.0
        c_prev = f_prev = None
        for sweep in range(_MAX_OUTER):
            # a = -phi(u) at the root u; the signs of phi are folded into the
            # subtractions below
            a = prox(v + dte * c, dte)
            a_synth = a @ synthesis
            # x = bt - dte * a_synth / n_quad
            x = dte * a_synth
            x /= n_quad
            np.subtract(bt, x, out=x)
            # r = b + dt * (phi(x S^T) S / n_quad + linear_shift * x) - x. r
            # only feeds ok, which the 0 * x term of a zero shift cannot move
            # (it changes at most the sign of a zero, or a non-finite r to
            # NaN), so that term is left out.
            r = scalar_fn(x @ synthesis.T) @ synthesis
            r /= n_quad
            if linear_shift:
                r += linear_shift * x
            r *= dt
            r += b
            r -= x
            rn = np.sqrt(np.einsum("...d,...d->...", r, r))
            ok = rn <= accept
            n_ok = np.count_nonzero(ok)
            if n_ok == len(ok) or sweep == _MAX_OUTER - 1:
                x_out[live], ok_out[live] = x, ok
                break
            if n_ok:
                x_out[live[ok]], ok_out[live[ok]] = x[ok], True
                keep = np.flatnonzero(~ok)
                live, b, bt, v, a, a_synth, accept = (
                    arr[keep] for arr in (live, b, bt, v, a, a_synth, accept)
                )
                c, c_prev, f_prev = (
                    arr[keep] if isinstance(arr, np.ndarray) else arr
                    for arr in (c, c_prev, f_prev)
                )
            # g = (phi(u) S / n_quad) @ S^T - phi(u) = a - (a_synth / n_quad) @ S^T
            a_synth /= n_quad
            g = a_synth @ synthesis.T
            np.subtract(a, g, out=g)
            if c_prev is None:
                f_cur = c_next = g
            else:
                f_cur = g - c
                # The correction map is nearly affine, so one-step Anderson
                # extrapolation collapses its slow dominant mode:
                # c_next = (1 - theta) * g + theta * (f_prev + c_prev), with
                # theta = <f_cur, df> / <df, df> (0 where <df, df> <= 1e-300)
                # clipped to [-5, 5].
                df = f_cur - f_prev
                denom = np.einsum("...q,...q->...", df, df)
                theta = np.divide(
                    np.einsum("...q,...q->...", f_cur, df), denom,
                    out=np.zeros(denom.shape), where=denom > 1e-300,
                )
                np.maximum(theta, -5.0, out=theta)
                np.minimum(theta, 5.0, out=theta)
                theta = theta[..., None]
                g *= 1.0 - theta
                np.add(f_prev, c_prev, out=df)
                df *= theta
                g += df
                c_next = g
            c_prev, f_prev = c, f_cur
            c = c_next
        return x_out.reshape(shape), ok_out.reshape(shape[:-1])

    return step


@dataclass(frozen=True)
class SemimonotoneReport:
    declared_m: float
    max_ratio: float
    passed: bool


# Sampling radius of the checkers' state pairs.
_RADIUS = 3.0
# Pairs on which the jump intensity integrals are taken.
_JUMP_PAIRS = 256
# Values per (nodes, pairs, width) block of the jump quadrature. The node
# sums add in node order, so the reports do not depend on it; 2^15 was the
# fastest of 2^12 .. 2^16 on the benchmark's models.
_JUMP_BLOCK = 2 ** 15
# Pairs per block of the checkers' drift, diffusion and distance evaluations.
# A matrix product may round a row according to the product's height, and
# heights that are multiples of 16 round as the whole default sample of
# 10,000 pairs does; the blocks of that sample are 9 * 1024 + 784 pairs, all
# such heights, so every report has the bits of unblocked evaluation.
_ROW_BLOCK = 1024


def _row_blocks(n):
    """Slices of at most ``_ROW_BLOCK`` consecutive rows covering n rows."""
    return [slice(start, start + _ROW_BLOCK) for start in range(0, n, _ROW_BLOCK)]


def _sample_pairs(rng, samples, dim):
    """Half independent wide pairs, half tight perturbation pairs, at scale
    ``_RADIUS``; the tight pairs probe local slopes that wide sampling
    misses."""
    n_wide = samples // 2
    scale = _RADIUS / np.sqrt(dim)
    xs = np.empty((samples, dim))
    ys = np.empty((samples, dim))
    wide, tight = slice(None, n_wide), slice(n_wide, None)
    for out in (xs[wide], ys[wide], xs[tight], ys[tight]):
        rng.standard_normal(out=out)
    xs *= scale
    ys[wide] *= scale
    ys[tight] *= 1e-3 * scale
    ys[tight] += xs[tight]
    return xs, ys


def check_semimonotone(
    drift: DriftSpec,
    dim: int,
    weights: np.ndarray | None = None,
    samples: int = 10_000,
    t_max: float = 1.0,
    seed: int = 0,
    support: slice = WHOLE,
) -> SemimonotoneReport:
    """Sample pairs and compare <f(t,x)-f(t,y), x-y> / ||x-y||^2 to declared
    M; ``support`` is that of the drift's coefficient set. The drift and the
    pair distances are evaluated in blocks of ``_ROW_BLOCK`` pairs."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    xs, ys = _sample_pairs(rng, samples, dim)
    ts = rng.uniform(0.0, t_max, size=4)
    w_on = on_support(weights, support)
    den = np.empty(samples)
    num = np.empty((len(ts), samples))
    for rows in _row_blocks(samples):
        x, y = xs[rows], ys[rows]
        dx = x - y
        den[rows] = weighted_norm_sq(dx, weights)
        dx_on = on_support(dx, support)
        for i, t in enumerate(ts):
            df = drift.evaluate(float(t), x) - drift.evaluate(float(t), y)
            num[i, rows] = weighted_inner(df, dx_on, w_on)
    ok = den > 0
    den_ok = den[ok]
    max_ratio = -np.inf
    for num_t in num:
        if den_ok.size:
            max_ratio = max(max_ratio, float(np.max(num_t[ok] / den_ok)))
    m = drift.semimonotone_m
    return SemimonotoneReport(
        declared_m=m,
        max_ratio=max_ratio,
        passed=bool(max_ratio <= m + 1e-9 * max(1.0, abs(m))),
    )


@dataclass(frozen=True)
class GrowthReport:
    diffusion_lipschitz_max: float
    jump_lipschitz_max: float
    combined_lipschitz_max: float
    growth_max: float
    declared_c: float
    declared_d: float
    passed_lipschitz: bool
    passed_growth: bool

    @property
    def passed(self) -> bool:
        return self.passed_lipschitz and self.passed_growth


def _jump_node_sums(jump, t, nodes, xs, ys, w, width, scale=1.0):
    """Per pair, the sums over the mark nodes of ||k(t,xi,x) - k(t,xi,y)||^2
    and of ||k(t,xi,x)||^2, each term times ``scale``, a power of two, so
    that the scaling is exact.

    The evaluator takes a block of nodes at a time as a (nodes, 1) column of
    marks against the (pairs, dim) states, so that each of its (nodes, pairs,
    width) results holds at most ``_JUMP_BLOCK`` values (``width`` is that of
    the support). Each pair's terms are added in node order, as one node at a
    time would add them: ``np.add.accumulate`` adds in order, where
    ``np.add.reduce`` sums a single pair's column pairwise.
    """
    diff = np.zeros(len(xs))
    growth = np.zeros(len(xs))
    step = max(1, _JUMP_BLOCK // (len(xs) * width))
    for start in range(0, len(nodes), step):
        xi = nodes[start : start + step, None]
        kx = jump.evaluate(t, xi, xs)
        d_sq = weighted_norm_sq(kx - jump.evaluate(t, xi, ys), w)
        g_sq = weighted_norm_sq(kx, w)
        for total, terms in ((diff, d_sq), (growth, g_sq)):
            if scale != 1.0:
                terms *= scale
            terms[0] += total
            total[:] = np.add.accumulate(terms, axis=0)[-1]
    return diff, growth


def check_lipschitz_growth(
    coeffs: CoefficientSet,
    dim: int,
    weights: np.ndarray | None = None,
    marks: MarkSpaceSpec | None = None,
    samples: int = 10_000,
    t_max: float = 1.0,
    seed: int = 0,
    jump_nodes: int = 4096,
) -> GrowthReport:
    """Empirical maxima of the Lipschitz and growth ratios versus declared C, D.

    The diffusion and growth ratios use the full pair sample, evaluated in
    blocks of ``_ROW_BLOCK`` pairs; intensity integrals over the mark space
    use ``jump_nodes`` Monte Carlo nodes on a subsample of ``_JUMP_PAIRS``
    pairs to keep the cost bounded. The quadrature runs in blocks of nodes,
    calling the jump evaluator with a (nodes, 1) column of marks, each
    result capped at ``_JUMP_BLOCK`` = 2^15 values; it adds each pair's
    terms in node order. A node sum that overflows is taken again on terms
    scaled by 2^-e, with 2^e at least the node count, so a sum of finite
    terms whose mean is finite reads finite; a sum with a term that is not
    finite stays so. For the quadrature's error, the growth ratio may exceed D
    by 5% of the jump's D, as the jump Lipschitz ratio may exceed its C by 5%.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if jump_nodes < 1:
        raise ValueError("jump_nodes must be >= 1")
    rng = np.random.default_rng(seed)
    xs, ys = _sample_pairs(rng, samples, dim)
    t = float(rng.uniform(0.0, t_max))
    w_on = on_support(weights, coeffs.support)

    # Jump Lipschitz and growth via mark-node quadrature on a subsample.
    k_growth = np.zeros(samples)
    if marks is None or marks.rate == 0.0:
        k_ratio = k_slack = 0.0
    else:
        k_slack = 0.05 * coeffs.jump.growth_d
        n_pairs = min(_JUMP_PAIRS, samples)
        rng_nodes = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(1,))
        )
        nodes = np.asarray(marks.sample_marks(rng_nodes, jump_nodes))
        n_nodes = len(nodes)
        xsub, ysub = xs[:n_pairs], ys[:n_pairs]
        width = len(range(dim)[coeffs.support])
        mean = marks.rate / n_nodes
        with np.errstate(over="ignore"):
            xi_diff, xi_growth = _jump_node_sums(
                coeffs.jump, t, nodes, xsub, ysub, w_on, width
            )
            xi_diff *= mean
            xi_growth *= mean
            over = np.flatnonzero(np.isinf(xi_diff) | np.isinf(xi_growth))
            if over.size:
                e = n_nodes.bit_length()
                redo = _jump_node_sums(
                    coeffs.jump, t, nodes, xsub[over], ysub[over], w_on, width, 2.0 ** -e
                )
                for total, scaled in zip((xi_diff, xi_growth), redo):
                    hit = np.isinf(total[over])
                    total[over[hit]] = scaled[hit] * mean * 2.0 ** e
        dx_sub = weighted_norm_sq(xsub - ysub, weights)
        ok_sub = dx_sub > 0
        k_ratio = float(np.max(xi_diff[ok_sub] / dx_sub[ok_sub]))
        k_growth[:n_pairs] = xi_growth

    # Diffusion Lipschitz ratio and combined growth ratio over all pairs, in
    # row blocks, after the quadrature so that its blocks and these arrays
    # are not held at once.
    diffuse = not coeffs.diffusion.is_zero
    dx_sq, g_diff, growth = np.empty(samples), np.zeros(samples), np.empty(samples)
    for rows in _row_blocks(samples):
        x, y = xs[rows], ys[rows]
        dx_sq[rows] = weighted_norm_sq(x - y, weights)
        num = weighted_norm_sq(coeffs.drift.evaluate(t, x), w_on)
        if diffuse:
            gx = coeffs.diffusion.evaluate(t, x)
            g_diff[rows] = hs_norm_sq(gx - coeffs.diffusion.evaluate(t, y), w_on)
            num += hs_norm_sq(gx, w_on)
        num += k_growth[rows]
        growth[rows] = num / (1.0 + weighted_norm_sq(x, weights))
    ok = dx_sq > 0
    g_ratio = float(np.max(g_diff[ok] / dx_sq[ok])) if diffuse else 0.0
    growth_max = float(np.max(growth))

    combined = g_ratio + k_ratio
    return GrowthReport(
        diffusion_lipschitz_max=g_ratio,
        jump_lipschitz_max=k_ratio,
        combined_lipschitz_max=combined,
        growth_max=growth_max,
        declared_c=coeffs.lipschitz_c,
        declared_d=coeffs.growth_d,
        passed_lipschitz=bool(
            g_ratio <= coeffs.diffusion.lipschitz_c * (1 + 1e-9) + 1e-12
            and k_ratio <= coeffs.jump.lipschitz_c * (1 + 0.05) + 1e-12
            and combined <= coeffs.lipschitz_c * (1 + 0.05) + 1e-12
        ),
        passed_growth=bool(growth_max <= coeffs.growth_d * (1 + 1e-9) + 1e-12 + k_slack),
    )
