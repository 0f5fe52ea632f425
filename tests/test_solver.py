import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mildsde import coefficients, solver
from mildsde.coefficients import (
    CoefficientSet,
    DriftSpec,
    JumpCoeffSpec,
    nemitsky_implicit_solver,
    nemitsky_sine,
    widen,
    zero_diffusion,
)
from mildsde.models import (
    build_delay,
    build_linear_scalar,
    build_reaction_diffusion,
    stochastic_exponential,
)
from mildsde.convolution import ito_inequality_check
from mildsde.noise import TimeGrid, coarsen_noise, draw_noise
from mildsde.semigroup import DiagonalSemigroup
from mildsde.solver import (
    AprioriBoundError,
    InnerIterationError,
    ModelSpec,
    PicardDivergenceError,
    SolverError,
    _advance_step,
    _cell_assembler,
    _solve_step_equation,
    direct_solve_batch,
    picard_solve_batch,
    predicted_bound,
    rescale_to_contraction,
    unrescale_values,
)
from mildsde.state_space import hs_norm_sq, weighted_norm_sq
from tests.test_models import with_drift


def rd_model(dim=6, rate=2.0, std=0.5, mean=0.1, **kw):
    return build_reaction_diffusion(
        dim=dim, jump_rate=rate, mark_std=std, mark_mean=mean,
        validate=False, **kw,
    )


# ---------------------------------------------------------------------------
# rescaling


def test_rescale_identity_when_contraction():
    model = rd_model()
    assert rescale_to_contraction(model) is model


def test_rescale_shifts_diagonal_spectrum():
    seg = DiagonalSemigroup([1.0], alpha=1.0)
    model = ModelSpec(
        name="toy", semigroup=seg,
        coeffs=CoefficientSet(
            DriftSpec(evaluate=lambda t, x: 0.0 * x, semimonotone_m=0.0, growth_d=0.0),
            zero_diffusion(1), JumpCoeffSpec(None, None, 0.0, 0.0),
        ),
        weights=None, marks=None,
        x0=np.array([1.0]), horizon=1.0,
    )
    tilde = rescale_to_contraction(model)
    assert tilde.semigroup.alpha == 0.0
    assert tilde.semigroup.eigenvalues[0] == pytest.approx(0.0, abs=0)


def test_rescale_solution_equivalence_shared_noise():
    model = build_delay(history_cells=16, jump_rate=1.0, mark_std=0.3, validate=False)
    grid = TimeGrid(1.0, 400)
    noise = draw_noise(model, grid, 11, range(8))
    orig = direct_solve_batch(model, noise)
    tilde = rescale_to_contraction(model)
    resc = direct_solve_batch(tilde, noise)
    mapped = unrescale_values(resc.values, grid.times, model.semigroup.alpha)
    diff = np.sqrt(weighted_norm_sq(orig.values - mapped, model.weights)).max()
    scale = np.sqrt(weighted_norm_sq(orig.values, model.weights)).max()
    # the conjugation commutes with the scheme, so agreement is far inside
    # any quadrature-error budget
    assert diff <= 1e-9 * (1.0 + scale)


# ---------------------------------------------------------------------------
# deterministic mild solve (the generic inner solver and its a-priori check)


def mild_solve(seg, drift, x0, v_values):
    """One path stepped through the implicit step on the grid of the forcing
    ``v_values`` (m+1, dim), at the default tolerances."""
    grid = TimeGrid(1.0, v_values.shape[0] - 1)
    v = v_values[None]
    values = np.zeros(v.shape)
    values[:, 0] = x0 + v[:, 0]
    for j in range(grid.n_steps):
        values[:, j + 1] = _advance_step(
            seg, drift, values[:, j], v[:, j], v[:, j + 1], float(grid.times[j + 1]),
            grid.dt, None, 1e-8, 1.0, 0, 6,
        )
    return values[0]


def test_mild_solve_no_drift_is_orbit_plus_forcing():
    grid = TimeGrid(1.0, 120)
    seg = DiagonalSemigroup([-1.0, -2.0], alpha=0.0)
    rng = np.random.default_rng(0)
    v = np.cumsum(rng.standard_normal((121, 2)), axis=0) * 0.01
    v[0] = 0.0
    drift = DriftSpec(evaluate=lambda t, x: 0.0 * x, semimonotone_m=0.0, growth_d=0.0)
    x0 = np.array([1.0, -1.0])
    values = mild_solve(seg, drift, x0, v)
    orbit = np.exp(np.outer(grid.times, seg.eigenvalues)) * x0
    assert np.allclose(values, orbit + v, rtol=0, atol=1e-10)


def linear_decay_error(n_steps):
    grid = TimeGrid(1.0, n_steps)
    seg = DiagonalSemigroup([0.0], alpha=0.0)
    drift = DriftSpec(evaluate=lambda t, x: -x, semimonotone_m=-1.0, growth_d=1.0)
    values = mild_solve(seg, drift, np.array([1.0]), np.zeros((n_steps + 1, 1)))
    return np.abs(values[:, 0] - np.exp(-grid.times)).max()


def test_mild_solve_linear_ode_first_order():
    e1 = linear_decay_error(100)
    e2 = linear_decay_error(200)
    assert e1 <= 0.01
    assert e1 / e2 == pytest.approx(2.0, rel=0.2)


def test_mild_solve_apriori_bound_postcondition(monkeypatch):
    # cube-root drift driven by Wiener and jump forcing: every iterate stays
    # inside its a-priori growth bound, here even without the check's slack
    model = rd_model(dim=6)
    noise = draw_noise(model, TimeGrid(1.0, 300), 1, range(8))
    monkeypatch.setattr(solver, "_BOUND_SLACK", 0.0)
    res = picard_solve_batch(model, noise, n_max=4)
    assert res.values.shape == (8, 301, 6)
    assert np.isfinite(res.values).all()


def tanh_prox(v, dt):
    """-phi(u) = tanh(4 u) at the root of u = v + dt * phi(u) for phi(u) =
    -tanh(4 u), found by 72 bisections: u + dt tanh(4 u) - v increases in u,
    and |u| <= |v| + dt as |phi| <= 1."""
    bound = np.abs(v) + dt + 1e-12
    lo, hi = -bound, bound.copy()
    for _ in range(72):
        mid = 0.5 * (lo + hi)
        negative = mid + dt * np.tanh(4.0 * mid) - v < 0.0
        lo = np.where(negative, mid, lo)
        hi = np.where(negative, hi, mid)
    return np.tanh(2.0 * (lo + hi))


def test_nemitsky_fallback_rows_reach_tolerance(monkeypatch):
    # one outer sweep of the Nemitsky step leaves the unit-scale rows of a
    # smooth decreasing drift above tolerance; the damped iteration must
    # finish exactly those rows and leave the accepted ones untouched
    dim, dt, tol = 8, 1e-3, 1e-8
    phi = lambda u: -np.tanh(4.0 * u)
    monkeypatch.setattr(coefficients, "_MAX_OUTER", 1)
    nem = nemitsky_sine(phi, dim)
    step = nemitsky_implicit_solver(phi, tanh_prox, dim)
    drift = DriftSpec(lambda t, x: nem(x), 0.0, 4.0, implicit_step=step)
    rng = np.random.default_rng(31)
    b = rng.standard_normal((8, dim)) * np.repeat([1.0, 1e-9], 4)[:, None]
    first, first_ok = step(1.0, b, dt, tol)
    assert not first_ok.all() and first_ok.any()
    out, ok = _solve_step_equation(drift, 1.0, b, dt, None, tol, 1.0)
    assert ok.all()
    assert np.array_equal(out[first_ok], first[first_ok])
    res = b + dt * drift.evaluate(1.0, out) - out
    assert np.linalg.norm(res[~first_ok], axis=1).max() <= tol


def test_fallback_rows_do_not_depend_on_the_rows_solved_with_them(monkeypatch):
    # the generic iteration alone (no own step) on 20 blocks of 8 rows of
    # the tanh lift at scales 1e-3, 1 and 10: scaling row 0 of every block
    # by 50 leaves the other rows' bits as they are, a stack of two blocks
    # gets each block's bits alone, and a step calls the iteration once,
    # over the whole stack, and only when the drift's own step rejects rows
    dim, dt, tol = 8, 0.05, 1e-10
    phi = lambda u: -np.tanh(4.0 * u)
    nem = nemitsky_sine(phi, dim)
    drift = DriftSpec(lambda t, x: nem(x), 0.0, 4.0)
    rng = np.random.default_rng(5)
    scale = np.array([1e-3, 1.0, 10.0])[rng.integers(0, 3, size=(20, 8))]
    b = rng.standard_normal((20, 8, dim)) * scale[..., None]
    out, ok = _solve_step_equation(drift, 1.0, b, dt, None, tol, 1.0)
    assert ok.all()
    scaled = b.copy()
    scaled[:, 0] *= 50.0
    out_scaled, _ = _solve_step_equation(drift, 1.0, scaled, dt, None, tol, 1.0)
    assert np.array_equal(out_scaled[:, 1:], out[:, 1:])
    pair, _ = _solve_step_equation(drift, 1.0, b[:2], dt, None, tol, 1.0)
    for k in range(2):
        alone, _ = _solve_step_equation(drift, 1.0, b[k], dt, None, tol, 1.0)
        assert np.array_equal(pair[k], alone)

    calls = []
    generic = solver._implicit_f_step

    def counted(*args):
        calls.append(args[-1].sum())
        return generic(*args)

    monkeypatch.setattr(solver, "_implicit_f_step", counted)
    monkeypatch.setattr(coefficients, "_MAX_OUTER", 1)
    stepped = replace(drift, implicit_step=nemitsky_implicit_solver(phi, tanh_prox, dim))
    _, own_ok = stepped.implicit_step(1.0, b, 1e-3, 1e-8)
    assert (~own_ok).any(axis=1).sum() > 1
    _, ok = _solve_step_equation(stepped, 1.0, b, 1e-3, None, 1e-8, 1.0)
    assert ok.all() and calls == [(~own_ok).sum()]
    calls.clear()
    _solve_step_equation(stepped, 1.0, b[:, 1:] * 1e-9, 1e-3, None, 1e-8, 1.0)
    assert calls == []


def test_stalled_rows_are_bisected_until_they_reach_tolerance():
    # the generic iteration for x = b + dt f(x) with f(x) = 1.5 x contracts
    # only for dt * 1.5 < 1: at dt = 1 every row with b != 0 stalls, and one
    # halving (dt * 1.5 = 0.75) solves it
    grid, tol = TimeGrid(1.0, 1), 1e-8
    seg = DiagonalSemigroup([0.0], alpha=0.0)
    drift = DriftSpec(evaluate=lambda t, x: 1.5 * x, semimonotone_m=1.5, growth_d=2.25)
    x0 = np.array([[0.0], [1.0], [-0.3]])
    _, ok = _solve_step_equation(drift, 1.0, x0, grid.dt, None, tol, 1.0)
    assert ok.tolist() == [True, False, False]
    v = np.zeros_like(x0)
    out = _advance_step(seg, drift, x0, v, v, 1.0, grid.dt, None, tol, 1.0, 0, 1)
    # two half steps x -> x / (1 - 0.75), each to tol, so within 4 tol + 16 tol
    assert out[0, 0] == 0.0
    assert np.abs(out[1:] - 16.0 * x0[1:]).max() <= 20.0 * tol
    with pytest.raises(InnerIterationError) as err:
        _advance_step(seg, drift, x0, v, v, 1.0, grid.dt, None, tol, 1.0, 0, 0)
    match = re.fullmatch(
        r"inner iteration stalled at t=1 after 0 halvings "
        r"\(worst residual (\S+), tol 1e-08\)",
        str(err.value),
    )
    assert match and float(match.group(1)) > tol


def test_inner_iteration_error_names_the_global_path_and_iterate():
    # the paths of chunk 1 of 64, under the drift f(x) = 8 x at dt = 1/4:
    # its own step solves x = b + 2 x exactly, but in the blocks of iterate
    # 2 on (the solver steps one block of rows per iterate) it rejects the
    # row with the largest state (path 65), and the generic iteration
    # diverges for dt * 8 > 1
    model = build_linear_scalar(sigma=0.0, jump_rate=0.0, validate=False)
    grid = TimeGrid(1.0, 4)

    def step(t, b, dt, tol):
        ok = np.ones(b.shape[:-1], dtype=bool)
        ok[1:] = b[1:, :, 0] < b[1:, :, 0].max(axis=-1, keepdims=True)
        return b / (1.0 - dt * 8.0), ok

    model.coeffs.drift = DriftSpec(
        evaluate=lambda t, x: 8.0 * x, semimonotone_m=0.0, growth_d=64.0, implicit_step=step
    )
    noise = draw_noise(model, grid, 0, range(64, 68))
    noise.x0[1] = 3.0
    with pytest.raises(InnerIterationError) as err:
        picard_solve_batch(model, noise, max_halvings=0)
    assert re.fullmatch(
        r"linear_scalar: iterate 2: inner iteration stalled at t=0\.25, path row 65 "
        r"after 0 halvings \(worst residual \S+, tol 1e-08\)",
        str(err.value),
    )


def feedback_model(gain, fails=(), inflates=()):
    """A dim-1 model whose iterates differ by their values alone: no
    semigroup motion, no Wiener term, jumps of size zero and the compensator
    -gain * x, so V^n gains gain * X^{n-1}_j dt per cell and, from x0 = 1,
    X^n_j = sum_{k <= n} C(j, k) (gain dt)^k, which grows with n once j > n.
    The drift is zero and its own step returns b, except that at a time t
    of ``fails`` it rejects the rows with b above the threshold given for t,
    and at a time of ``inflates``, given (threshold, factor), it returns
    factor * b on such rows."""
    model = build_linear_scalar(sigma=0.0, jump_rate=1.0, mark_std=0.0, validate=False)
    fails, inflates = dict(fails), dict(inflates)

    def step(t, b, dt, tol):
        x, ok = b.copy(), np.ones(b.shape[:-1], dtype=bool)
        t = round(t, 9)
        if t in fails:
            ok = ~(b[..., 0] > fails[t])
        if t in inflates:
            threshold, factor = inflates[t]
            x = np.where(b > threshold, factor * b, b)
        return x, ok

    model.coeffs.drift = DriftSpec(
        evaluate=lambda t, x: 0.0 * x, semimonotone_m=0.0, growth_d=0.0, implicit_step=step
    )
    model.coeffs.jump = JumpCoeffSpec(
        evaluate=lambda t, xi, x: np.zeros_like(x),
        compensator=lambda t, x: -gain * np.asarray(x),
        lipschitz_c=0.0, growth_d=0.0,
    )
    return model


def fail_fallback(monkeypatch):
    """Make the generic iteration give up on every row it is handed, so a
    row the drift's step rejects fails its step."""
    monkeypatch.setattr(
        solver, "_implicit_f_step",
        lambda f, t, b, dt, w, tol, damping, todo: (b.copy(), np.zeros(b.shape[:-1], dtype=bool)),
    )


def test_inner_iteration_errors_are_raised_in_iterate_order(monkeypatch):
    # at dt = 1/8 and x0 = 3 on path 65: iterate 3 is the first whose state
    # passes 4.268 at t = 0.375 (X^2 = 4.2656, X^3 = 4.2715), and iterate 1
    # passes 5 only at t = 1 (X^1 = 6); iterate 1's later failure is raised
    fail_fallback(monkeypatch)
    model = feedback_model(1.0, fails={0.375: 4.268, 1.0: 5.0})
    noise = draw_noise(model, TimeGrid(1.0, 8), 0, range(64, 68))
    noise.x0[1] = 3.0
    with pytest.raises(InnerIterationError) as err:
        picard_solve_batch(model, noise, n_max=4, max_halvings=0)
    assert re.fullmatch(
        r"linear_scalar: iterate 1: inner iteration stalled at t=1, path row 65 "
        r"after 0 halvings \(worst residual \S+, tol 1e-08\)",
        str(err.value),
    )


def test_bound_error_of_an_iterate_precedes_later_iterates_failures(monkeypatch):
    # iterate 3 fails its step at t = 0.375 as above; iterate 2 leaves its
    # a-priori bound at t = 0.5, where its state 4.78 (iterate 1's: 4.5) is
    # inflated by 20%; iterate 2's bound error is raised
    fail_fallback(monkeypatch)
    model = feedback_model(1.0, fails={0.375: 4.268}, inflates={0.5: (4.6, 1.2)})
    noise = draw_noise(model, TimeGrid(1.0, 8), 0, range(64, 68))
    noise.x0[1] = 3.0
    with pytest.raises(AprioriBoundError) as err:
        picard_solve_batch(model, noise, n_max=4, max_halvings=0)
    assert re.fullmatch(
        r"linear_scalar: iterate 2 exceeded the a-priori bound at t=0\.5, path row 65: "
        r"norm \S+ vs bound \S+ \(\+5% slack\)",
        str(err.value),
    )


def test_a_non_finite_state_fails_its_step_at_once():
    # the drift's step sends path 65 (x0 = 3) to inf at t = 0.25 in every
    # iterate: the bound check flags the inf norm there, and at t = 0.375
    # iterate 1's inf step input fails at once, without bisection; that
    # inner failure is raised before iterate 1's bound excess
    model = feedback_model(1.0, inflates={0.25: (2.0, np.inf)})
    noise = draw_noise(model, TimeGrid(1.0, 8), 0, range(64, 68))
    noise.x0[1] = 3.0
    with pytest.raises(InnerIterationError) as err:
        picard_solve_batch(model, noise, n_max=4)
    assert str(err.value) == (
        "linear_scalar: iterate 1: non-finite state at t=0.375, path row 65"
    )
    seg, drift = model.semigroup, model.coeffs.drift
    x = np.array([[1.0], [np.nan]])
    with pytest.raises(InnerIterationError, match=r"^non-finite state at t=1, path row 1$"):
        _advance_step(seg, drift, x, 0 * x, 0 * x, 1.0, 1.0, None, 1e-8, 1.0, 0, 6)


def test_divergence_after_an_iterate_precedes_later_iterates_failures(monkeypatch):
    # at gain dt = 1 the distances C(8, n)^2 = 64, 784, 3136 grow, so the
    # guard fires after iterate 3; iterate 4 is the first whose state passes
    # 15.5 at t = 0.5 (X^3 = 15, X^4 = 16); the guard is raised
    fail_fallback(monkeypatch)
    model = feedback_model(8.0, fails={0.5: 15.5})
    noise = draw_noise(model, TimeGrid(1.0, 8), 0, range(4))
    with pytest.raises(PicardDivergenceError) as err:
        picard_solve_batch(model, noise, n_max=4, max_halvings=0)
    assert re.fullmatch(
        r"linear_scalar: iteration distances non-decreasing over three iterations "
        r"\(64, 784, 3\.14e\+03\); hypothesis violation or grid too coarse",
        str(err.value),
    )


# ---------------------------------------------------------------------------
# iteration


def test_picard_deterministic_settles_immediately():
    # no noise channels: the first iterate is already the fixed point
    model = build_reaction_diffusion(
        dim=6, jump_rate=0.0, mark_std=0.0, validate=False
    )
    grid = TimeGrid(1.0, 200)
    res = picard_solve_batch(model, draw_noise(model, grid, 0, [0]), n_max=4)
    assert res.distances[0, 0] > 0.0
    assert np.all(res.distances[1:, 0] == 0.0)


def test_picard_divergence_detected():
    # jump feedback strong enough to out-run the heat dissipation
    model = rd_model(dim=4, rate=20.0, std=8.0, mean=0.0)
    grid = TimeGrid(1.0, 100)
    with pytest.raises(PicardDivergenceError):
        picard_solve_batch(model, draw_noise(model, grid, 1, range(8)), n_max=10)


UNSOLVABLE_STEP = {
    "linear_scalar": lambda m: build_linear_scalar(a=m, validate=False),
    "delay": lambda m: build_delay(history_cells=4, levy_drift=m, validate=False),
    "reaction_diffusion": lambda m: build_reaction_diffusion(dim=4, eta=m, validate=False),
}


@pytest.mark.parametrize("m", [100.0, 250.0])
@pytest.mark.parametrize("case", sorted(UNSOLVABLE_STEP))
def test_picard_refuses_unsolvable_step_before_any_step(case, m):
    # M dt >= 1 (at dt = 1/100, equality for M = 100): the step equation may
    # have no unique root, so the solver refuses the grid before it calls
    # the drift's own step even once
    model = UNSOLVABLE_STEP[case](m)
    drift = model.coeffs.drift
    assert drift.semimonotone_m == m
    own_step, calls = drift.implicit_step, []

    def counted(*args):
        calls.append(args)
        return own_step(*args)

    drift.implicit_step = counted
    noise = draw_noise(model, TimeGrid(1.0, 100), 0, range(2))
    message = f"{model.name}: the implicit step needs M dt < 1 (M = {m:.6g}, dt = 0.01)"
    with pytest.raises(SolverError, match=re.escape(message)):
        picard_solve_batch(model, noise, n_max=2)
    assert calls == []


def test_picard_trace_shapes_and_moments():
    model = rd_model()
    grid = TimeGrid(1.0, 200)
    res = picard_solve_batch(model, draw_noise(model, grid, 2, range(4)), n_max=5)
    assert res.distances.shape == (5, 4)
    assert res.x_sup_sq.shape == (6, 4)
    assert res.v_sup_sq.shape == (5, 4)
    assert np.all(res.x_sup_sq >= 0.0)
    bound = predicted_bound(1.0, 2.0, 1.0, np.arange(3))
    assert bound == pytest.approx([1.0, 2.0, 2.0])


def test_picard_same_seed_reproducible():
    model = rd_model()
    grid = TimeGrid(1.0, 150)
    r1, r2 = (
        picard_solve_batch(model, draw_noise(model, grid, 5, [0]), n_max=4)
        for _ in range(2)
    )
    assert np.array_equal(r1.values, r2.values)
    assert np.array_equal(r1.distances, r2.distances)


def test_uniqueness_under_damping_variants():
    model = rd_model()
    grid = TimeGrid(1.0, 250)
    noise = draw_noise(model, grid, 3, range(32))
    res_a = picard_solve_batch(model, noise, n_max=6, damping=1.0)
    res_b = picard_solve_batch(model, noise, n_max=6, damping=0.5)
    num = weighted_norm_sq(res_a.values - res_b.values, model.weights).max(axis=1).mean()
    den = weighted_norm_sq(res_a.values, model.weights).max(axis=1).mean()
    assert num <= 1e-6 * den


# ---------------------------------------------------------------------------
# the one-pass integrator


def test_direct_free_flow_is_orbit():
    model = with_drift(build_reaction_diffusion(
        dim=5, jump_rate=0.0, mark_std=0.0, validate=False,
    ))
    grid = TimeGrid(1.0, 100)
    res = direct_solve_batch(model, draw_noise(model, grid, 0, [0]))
    mu = model.semigroup.eigenvalues
    x0 = model.x0
    exact = np.exp(np.outer(grid.times, mu)) * x0
    assert np.allclose(res.values[0], exact, rtol=1e-12, atol=1e-13)


def test_direct_matches_stochastic_exponential():
    model = build_linear_scalar(
        a=-1.0, sigma=0.5, jump_rate=2.0, mark_std=0.2, validate=False
    )
    grid = TimeGrid(1.0, 1024)
    noise = draw_noise(model, grid, 17, range(64))
    res = direct_solve_batch(model, noise)
    w_paths = np.concatenate([np.zeros((64, 1)), np.cumsum(noise.dW[:, :, 0], axis=1)], axis=1)
    exact = stochastic_exponential(
        1.0, -1.0, 0.5, 0.0, grid.times, w_paths,
        noise.jump_row, noise.jump_time, noise.jump_mark,
    )
    errs = np.abs(res.values[:, -1, 0] - exact[:, -1])
    rms = np.sqrt(np.mean(np.square(errs)))
    # strong order 1/2: at dt = 2^-10 the error sits well under c sqrt(dt)
    assert rms <= 0.5 * np.sqrt(grid.dt)


def delay_model(rate=20.0):
    return rescale_to_contraction(build_delay(
        history_cells=8, jump_rate=rate, mark_std=0.5, levy_gaussian_variance=0.04,
        validate=False,
    ))


class EnergyTerms:
    """Records the terms the solver feeds an energy check, cell by cell, in
    the shape of ``ItoCheckReport.add``."""

    def __init__(self):
        self.per_cell, self.norms_sq = [], []

    def add(self, per_cell, norm_sq):
        self.per_cell.append(per_cell)
        self.norms_sq.append(norm_sq)


@pytest.mark.parametrize("which", ["reaction_diffusion", "delay"])
def test_direct_energy_terms_read_the_returned_path(which):
    model = rd_model(dim=5) if which == "reaction_diffusion" else delay_model(rate=2.0)
    grid = TimeGrid(1.0, 100)
    noise = draw_noise(model, grid, 23, range(3))
    terms = EnergyTerms()
    res = direct_solve_batch(model, noise, energy=terms)
    plain = direct_solve_batch(model, noise)
    # the energy pass keeps no path, only the terminal state it advanced to
    assert res.values.shape == (0, grid.n_steps + 1, model.dim)
    assert np.array_equal(res.terminal, plain.values[:, -1])
    # and the norms it feeds are those of the kept path, bit for bit
    norms_sq = np.column_stack(terms.norms_sq)
    assert np.array_equal(norms_sq, weighted_norm_sq(plain.values, model.weights)[:, 1:])
    # per cell: 2 <X_j, dZ_j> + bracket, dZ_j summed from the assembler's parts
    # (each part widened from the coefficients' support into the state)
    w = np.ones(model.dim) if model.weights is None else model.weights
    f = model.coeffs.drift.evaluate

    def wide(part):
        return widen(part, model.coeffs.support, model.dim)

    assemble = _cell_assembler(model, noise, brackets=True)
    expected = np.zeros((3, grid.n_steps))
    for j in range(grid.n_steps):
        xj = plain.values[:, j]
        *parts, bracket = assemble(j, xj)
        dz = wide(f(float(grid.times[j]), xj) * grid.dt)
        for part in parts:
            if part is not None:
                dz = dz + wide(part)
        expected[:, j] = 2.0 * np.einsum("pd,d,pd->p", xj, w, dz) + bracket
    assert np.allclose(np.column_stack(terms.per_cell), expected, rtol=1e-12, atol=0.0)


def test_direct_without_path_keeps_the_terminal_state():
    model = delay_model(rate=2.0)
    noise = draw_noise(model, TimeGrid(1.0, 50), 29, range(3))
    full = direct_solve_batch(model, noise)
    last = direct_solve_batch(model, noise, path_rows=0)
    assert last.values.shape == (0, 51, model.dim)
    assert np.array_equal(last.terminal, full.terminal)
    assert np.array_equal(last.terminal, full.values[:, -1])


def test_jump_increments_match_per_event_loop():
    # the per-cell assembly (one vectorized jump-coefficient call, np.add.at)
    # reproduces a per-event loop bit for bit, also through the array event
    # times of the contraction rescaling; so does the bracket's jump part.
    # Both hold the head, the delay coefficients' support, alone.
    model = delay_model()
    grid = TimeGrid(1.0, 50)
    noise = draw_noise(model, grid, 19, range(6))
    res = direct_solve_batch(model, noise)
    k, g = model.coeffs.jump, model.coeffs.diffusion
    w_head = model.weights[model.coeffs.support]
    sums = np.zeros(res.values[:, :-1].shape[:-1] + (1,))
    sq = np.zeros(sums.shape[:-1])
    events = zip(noise.jump_row, noise.jump_cell, noise.jump_time, noise.jump_mark)
    for row, cell, t, xi in events:
        vec = k.evaluate(float(t), float(xi), res.values[row, cell])
        sums[row, cell] += vec
        sq[row, cell] += float(weighted_norm_sq(vec, w_head))
    assemble = _cell_assembler(model, noise, brackets=True)
    for j in range(grid.n_steps):
        xj = res.values[:, j]
        _, _, cell_sums, bracket = assemble(j, xj)
        if cell_sums is None:
            assert not sums[:, j].any()
        else:
            assert np.array_equal(cell_sums, sums[:, j])
        hs = hs_norm_sq(g.evaluate(float(grid.times[j]), xj), w_head) * grid.dt
        assert np.array_equal(bracket, hs + sq[:, j])
    # several events share a (row, cell) pair
    pairs = set(zip(noise.jump_row.tolist(), noise.jump_cell.tolist()))
    assert len(pairs) < noise.jump_row.size


def test_cross_integrator_agreement():
    model = build_linear_scalar(
        a=-1.0, sigma=0.5, jump_rate=2.0, mark_std=0.2, validate=False
    )

    def distance(n_steps):
        grid = TimeGrid(1.0, n_steps)
        noise = draw_noise(model, grid, 29, range(64))
        pic = picard_solve_batch(model, noise, n_max=8)
        direct = direct_solve_batch(model, noise)
        return np.sqrt(
            weighted_norm_sq(pic.values - direct.values, None).max(axis=1).mean()
        )

    d_coarse = distance(256)
    d_fine = distance(1024)
    assert d_coarse <= 0.1
    # consistency under refinement at order >= 1/2: quartering dt should
    # shrink the gap by at least ~1.6
    assert d_coarse / d_fine >= 1.6


# ---------------------------------------------------------------------------
# noise plumbing


def test_draw_noise_deterministic_per_index():
    model = rd_model()
    grid = TimeGrid(1.0, 50)
    a = draw_noise(model, grid, 7, [0, 1])
    b = draw_noise(model, grid, 7, [1])
    assert np.array_equal(a.dW[1], b.dW[0])
    assert a.events_by_path[1] == b.events_by_path[0]
    assert np.array_equal(a.x0[1], b.x0[0])


def test_coarsen_noise_aggregates():
    model = rd_model()
    grid = TimeGrid(1.0, 100)
    fine = draw_noise(model, grid, 13, range(2))
    coarse = coarsen_noise(fine, 4)
    assert coarse.grid.n_steps == 25
    assert np.allclose(
        coarse.dW[0, 0], fine.dW[0, :4].sum(axis=0), rtol=0, atol=1e-15
    )
    # same events, re-binned cells, still sorted by (cell, row, time)
    assert fine.jump_time.size > 0
    assert coarse.events_by_path == fine.events_by_path
    assert np.array_equal(coarse.jump_cell, coarse.grid.cell_of(coarse.jump_time))
    keys = list(zip(coarse.jump_cell.tolist(), coarse.jump_row.tolist(),
                    coarse.jump_time.tolist()))
    assert keys == sorted(keys)


def test_apriori_bound_error_locates_violation():
    # a drift growing like exp(5 t) against a declared constant M = 0
    model = build_linear_scalar(a=5.0, validate=False)
    model.coeffs.drift.semimonotone_m = 0.0
    with pytest.raises(AprioriBoundError) as err:
        picard_solve_batch(model, draw_noise(model, TimeGrid(1.0, 100), 0, range(3)))
    # the message names the iterate, the earliest t and the path row
    assert re.fullmatch(
        r"linear_scalar: iterate 1 exceeded the a-priori bound at t=0\.07, path row 2: "
        r"norm \S+ vs bound \S+ \(\+5% slack\)",
        str(err.value),
    )


def test_apriori_bound_error_names_the_global_path():
    # the paths of chunk 3 of 64: the message names the failing row by its
    # global path index, the row's index within the batch plus 192
    model = build_linear_scalar(a=5.0, validate=False)
    model.coeffs.drift.semimonotone_m = 0.0
    noise = draw_noise(model, TimeGrid(1.0, 100), 0, range(192, 196))
    assert noise.path_index.tolist() == [192, 193, 194, 195]
    messages = []
    for nz in (noise, replace(noise, path_index=None)):
        with pytest.raises(AprioriBoundError) as err:
            picard_solve_batch(model, nz)
        messages.append(str(err.value))
    row = int(re.search(r"path row (\d+):", messages[1]).group(1))
    assert messages[0] == messages[1].replace(f"path row {row}:", f"path row {192 + row}:")


@pytest.mark.parametrize("eta, n_steps", [(15.0, 20), (20.0, 25), (30.0, 50)])
def test_apriori_bound_holds_on_stiff_implicit_steps(eta, n_steps):
    # M dt = 0.75, 0.8 and 0.6: the implicit step's growth 1 / (1 - M dt)
    # with f at the right point bounds these runs, which the continuous
    # factor exp(M dt) with a left-point f rejected at iterate 1
    model = build_reaction_diffusion(dim=4, eta=eta, validate=False)
    noise = draw_noise(model, TimeGrid(1.0, n_steps), 0, range(4))
    res = picard_solve_batch(model, noise)
    assert np.isfinite(res.distances).all()


def test_picard_peak_memory_is_a_few_paths():
    # the iterates advance together, so only the last iterate's path is
    # held, with per-step (iterates, paths, dim) stacks: no free path, no
    # earlier iterate's path, no increment or convolution path arrays
    model = rd_model(dim=8)
    noise = draw_noise(model, TimeGrid(1.0, 400), 37, range(64))
    tracemalloc.start()
    try:
        res = picard_solve_batch(model, noise, n_max=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * res.values.nbytes


def euler_route_peak_bytes(n_steps):
    """Peak traced allocation while 256 rows in chunks of 64 are drawn and
    solved on the Euler route as the stacked campaigns solve them: terminal
    states and W(T) (benchmark), then running energy checks without slack on
    the realization and its coarsening (ito-check at dt/2 and dt)."""
    model = build_linear_scalar(validate=False)
    grid = TimeGrid(1.0, n_steps)
    tracemalloc.start()
    try:
        noise = draw_noise(model, grid, 3, range(256))
        direct_solve_batch(model, noise, path_rows=0, chunk_size=64)
        noise.wiener_at_horizon()
        for nz in (noise, coarsen_noise(noise, 2)):
            norm0_sq = weighted_norm_sq(nz.x0, None)[:, None]
            check = ito_inequality_check(
                0.0, nz.grid, norm0_sq, np.zeros((256, 0)), keep_slack=False
            )
            direct_solve_batch(model, nz, energy=check, chunk_size=64)
            assert check.cells == nz.grid.n_steps
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_euler_route_memory_is_flat_in_steps():
    # a (rows, steps) table of one float per row and step would add
    # 256 * (4096 - 512) * 8 bytes, 7 MB; what grows is the grid itself
    growth = euler_route_peak_bytes(4096) - euler_route_peak_bytes(512)
    assert growth < 2**20


def test_stacked_chunks_step_like_separate_chunks():
    # a flat product over 128 rows of the 33 x 33 delay semigroup matrix does
    # not round like 16-row products; the stacked batch keeps the 16-row
    # blocks, so each chunk's rows come out bit for bit as when solved alone
    model = rescale_to_contraction(build_delay(
        history_cells=32, jump_rate=2.0, mark_std=0.5, levy_gaussian_variance=0.25,
        validate=False,
    ))
    grid = TimeGrid(1.0, 50)
    stacked = direct_solve_batch(
        model, draw_noise(model, grid, 9, range(128)), path_rows=20, chunk_size=16
    )
    alone = [
        direct_solve_batch(model, draw_noise(model, grid, 9, range(s, s + 16)))
        for s in range(0, 128, 16)
    ]
    assert np.array_equal(stacked.terminal, np.concatenate([r.terminal for r in alone]))
    assert np.array_equal(stacked.values, np.concatenate([r.values for r in alone])[:20])
