import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mildsde.coefficients import (
    CoefficientSet,
    DriftSpec,
    JumpCoeffSpec,
    nemitsky_implicit_solver,
    zero_diffusion,
)
from mildsde.models import (
    build_delay,
    build_linear_scalar,
    build_reaction_diffusion,
    stochastic_exponential,
)
from mildsde.convolution import ito_inequality_check, stochastic_convolution
from mildsde.noise import TimeGrid, coarsen_noise, draw_noise
from mildsde.semigroup import DiagonalSemigroup
from mildsde.solver import (
    AprioriBoundError,
    InnerIterationError,
    ModelSpec,
    PicardDivergenceError,
    _cell_assembler,
    _check_apriori_bound,
    _mild_core,
    _solve_step_equation,
    direct_solve_batch,
    picard_solve_batch,
    predicted_bound,
    rescale_to_contraction,
    unrescale_values,
)
from mildsde.state_space import hs_norm_sq, weighted_norm_sq


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
    """One path through the batched core at the default tolerances."""
    grid = TimeGrid(1.0, v_values.shape[0] - 1)
    return _mild_core(seg, drift, x0[None], v_values[None], grid, None, 1e-8, 1.0, 6)[0]


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


def test_mild_solve_apriori_bound_postcondition():
    # cube-root drift with forcing stays inside the a-priori growth bound
    grid = TimeGrid(1.0, 300)
    model = rd_model(dim=6)
    rng = np.random.default_rng(1)
    forcing = np.cumsum(rng.standard_normal((301, 6)), axis=0) * 0.02
    forcing[0] = 0.0
    x0 = np.full(6, 0.3)
    drift = model.coeffs.drift
    values = mild_solve(model.semigroup, drift, x0, forcing)
    assert values.shape == (301, 6)
    free = stochastic_convolution(model.semigroup, grid, x0[None], np.zeros((1, 300, 6)))
    _check_apriori_bound(drift, free, forcing[None], values[None], grid, None, "mild solve")


def test_nemitsky_fallback_rows_reach_tolerance():
    # one outer sweep of the Nemitsky step leaves the unit-scale rows of a
    # smooth decreasing drift above tolerance; the damped iteration must
    # finish exactly those rows and leave the accepted ones untouched
    dim, dt, tol = 8, 1e-3, 1e-8
    phi = lambda u: -np.tanh(4.0 * u)
    drift = build_reaction_diffusion(
        dim=dim, f_scalar=phi, f_growth=(1.0, 0.0), validate=False
    ).coeffs.drift
    drift.implicit_step = step = nemitsky_implicit_solver(
        phi, dim, growth=(1.0, 0.0), max_outer=1
    )
    rng = np.random.default_rng(31)
    b = rng.standard_normal((8, dim)) * np.repeat([1.0, 1e-9], 4)[:, None]
    first, first_ok = step(1.0, b, dt, tol)
    assert not first_ok.all() and first_ok.any()
    out, ok = _solve_step_equation(drift, 1.0, b, dt, None, tol, 1.0)
    assert ok.all()
    assert np.array_equal(out[first_ok], first[first_ok])
    res = b + dt * drift.evaluate(1.0, out) - out
    assert np.linalg.norm(res[~first_ok], axis=1).max() <= tol


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
    v = np.zeros((1, 2, 1))
    values = _mild_core(seg, drift, x0, v, grid, None, tol, 1.0, 1)
    # two half steps x -> x / (1 - 0.75), each to tol, so within 4 tol + 16 tol
    assert values[0, -1, 0] == 0.0
    assert np.abs(values[1:, -1] - 16.0 * x0[1:]).max() <= 20.0 * tol
    with pytest.raises(InnerIterationError) as err:
        _mild_core(seg, drift, x0, v, grid, None, tol, 1.0, 0)
    match = re.fullmatch(
        r"inner iteration stalled at t=1 after 0 halvings "
        r"\(worst residual (\S+), tol 1e-08\)",
        str(err.value),
    )
    assert match and float(match.group(1)) > tol


def test_inner_iteration_error_names_the_global_path_and_iterate():
    # the paths of chunk 1 of 64, under the drift f(x) = 8 x at dt = 1/4:
    # its own step solves x = b + 2 x exactly, but from iterate 2 on it
    # rejects the row with the largest state (path 65), and the generic
    # iteration diverges for dt * 8 > 1
    model = build_linear_scalar(sigma=0.0, jump_rate=0.0, validate=False)
    grid = TimeGrid(1.0, 4)
    calls = []

    def step(t, b, dt, tol):
        calls.append(t)
        ok = np.ones(b.shape[:-1], dtype=bool)
        if len(calls) > grid.n_steps:
            ok = b[:, 0] < b[:, 0].max()
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
    model = build_reaction_diffusion(
        dim=5, jump_rate=0.0, mark_std=0.0,
        f_scalar=lambda u: 0.0 * u, f_growth=(0.0, 0.0), validate=False,
    )
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
    errs = []
    for p in range(64):
        w_path = np.concatenate([[0.0], np.cumsum(noise.dW[p, :, 0])])
        exact = stochastic_exponential(
            1.0, -1.0, 0.5, 0.0, grid.times, w_path, noise.events_by_path[p]
        )
        errs.append(abs(res.values[p, -1, 0] - exact[-1]))
    rms = np.sqrt(np.mean(np.square(errs)))
    # strong order 1/2: at dt = 2^-10 the error sits well under c sqrt(dt)
    assert rms <= 0.5 * np.sqrt(grid.dt)


def delay_model(rate=20.0):
    return rescale_to_contraction(build_delay(
        history_cells=8, jump_rate=rate, mark_std=0.5, levy_gaussian_variance=0.04,
        validate=False,
    ))


@pytest.mark.parametrize("which", ["reaction_diffusion", "delay"])
def test_direct_energy_terms_read_the_returned_path(which):
    model = rd_model(dim=5) if which == "reaction_diffusion" else delay_model(rate=2.0)
    grid = TimeGrid(1.0, 100)
    noise = draw_noise(model, grid, 23, range(3))
    res = direct_solve_batch(model, noise, energy=True)
    plain = direct_solve_batch(model, noise)
    assert plain.norms_sq is None and plain.per_cell is None
    # the energy pass keeps only the terminal state of the path it advanced
    assert np.array_equal(res.values, plain.values[:, -1:])
    # and its norms are those of the kept path, bit for bit
    assert np.array_equal(res.norms_sq, weighted_norm_sq(plain.values, model.weights))
    # per cell: 2 <X_j, dZ_j> + bracket, dZ_j summed from the assembler's parts
    w = np.ones(model.dim) if model.weights is None else model.weights
    f = model.coeffs.drift.evaluate
    assemble = _cell_assembler(model, noise, brackets=True)
    expected = np.zeros((3, grid.n_steps))
    for j in range(grid.n_steps):
        xj = plain.values[:, j]
        *parts, bracket = assemble(j, xj)
        dz = f(float(grid.times[j]), xj) * grid.dt
        for part in parts:
            if part is not None:
                dz = dz + part
        expected[:, j] = 2.0 * np.einsum("pd,d,pd->p", xj, w, dz) + bracket
    assert np.allclose(res.per_cell, expected, rtol=1e-12, atol=0.0)


def test_direct_without_path_keeps_the_terminal_state():
    model = delay_model(rate=2.0)
    noise = draw_noise(model, TimeGrid(1.0, 50), 29, range(3))
    full = direct_solve_batch(model, noise)
    last = direct_solve_batch(model, noise, path=False)
    assert last.values.shape == (3, 1, model.dim)
    assert np.array_equal(last.values, full.values[:, -1:])


def test_jump_increments_match_per_event_loop():
    # the per-cell assembly (one vectorized jump-coefficient call, np.add.at)
    # reproduces a per-event loop bit for bit, also through the array event
    # times of the contraction rescaling; so does the bracket's jump part
    model = delay_model()
    grid = TimeGrid(1.0, 50)
    noise = draw_noise(model, grid, 19, range(6))
    res = direct_solve_batch(model, noise)
    k, g = model.coeffs.jump, model.coeffs.diffusion
    sums = np.zeros_like(res.values[:, :-1])
    sq = np.zeros(sums.shape[:-1])
    events = zip(noise.jump_row, noise.jump_cell, noise.jump_time, noise.jump_mark)
    for row, cell, t, xi in events:
        vec = k.evaluate(float(t), float(xi), res.values[row, cell])
        sums[row, cell] += vec
        sq[row, cell] += float(weighted_norm_sq(vec, model.weights))
    assemble = _cell_assembler(model, noise, brackets=True)
    for j in range(grid.n_steps):
        xj = res.values[:, j]
        _, _, cell_sums, bracket = assemble(j, xj)
        if cell_sums is None:
            assert not sums[:, j].any()
        else:
            assert np.array_equal(cell_sums, sums[:, j])
        hs = hs_norm_sq(g.evaluate(float(grid.times[j]), xj), model.weights) * grid.dt
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
        direct_solve_batch(model, noise, path=False, chunk_size=64)
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
