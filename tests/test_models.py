import numpy as np
import pytest

from mildsde.coefficients import check_lipschitz_growth, check_semimonotone
from mildsde.models import (
    EXAMPLE_BUILDERS,
    build_delay,
    build_hyperbolic,
    build_linear_scalar,
    build_reaction_diffusion,
    stochastic_exponential,
)
from mildsde.noise import NoiseRealization, TimeGrid, draw_noise
from mildsde.solver import ModelValidationError, direct_solve_batch
from mildsde.state_space import weighted_norm_sq
from tests.test_semigroup import delay_head_oracle


def test_all_builders_pass_checkers_at_full_samples():
    # the construction invariant: checkers at 10^4 samples before returning
    build_reaction_diffusion(dim=12)
    build_hyperbolic(n_modes=8)
    build_delay(history_cells=16)
    build_linear_scalar()


def test_reaction_diffusion_pure_heat_mode():
    model = build_reaction_diffusion(
        dim=6, jump_rate=0.0, mark_std=0.0,
        f_scalar=lambda u: 0.0 * u, f_growth=(0.0, 0.0),
        x0=np.eye(6)[0], validate=False,
    )
    grid = TimeGrid(1.0, 200)
    values = direct_solve_batch(model, draw_noise(model, grid, 0, [0])).values[0]
    exact = np.exp(-np.pi**2 * grid.times)
    assert np.allclose(values[:, 0], exact, rtol=1e-12, atol=1e-13)
    assert np.abs(values[:, 1:]).max() == 0.0


def test_reaction_diffusion_eta_shifts_declared_constant():
    model = build_reaction_diffusion(dim=8, eta=0.5)
    assert model.coeffs.semimonotone_m == 0.5
    rep = check_semimonotone(model.coeffs.drift, 8, samples=10_000, seed=1)
    assert rep.passed
    assert rep.max_ratio <= 0.5 + 1e-9
    assert rep.max_ratio > 0.2  # the shift is actually attained


def test_reaction_diffusion_misdeclared_constant_rejected():
    with pytest.raises(ModelValidationError):
        build_reaction_diffusion(dim=8, eta=0.5, f_scalar=lambda u: u, f_growth=(0.0, 1.0))


def test_hyperbolic_free_single_mode_energy():
    model = build_hyperbolic(
        n_modes=4, jump_rate=0.0, mark_std=0.0,
        f_scalar=lambda u: 0.0 * u, f_growth=(0.0, 0.0),
        x0_position=np.eye(4)[0], validate=False,
    )
    grid = TimeGrid(1.0, 500)
    values = direct_solve_batch(model, draw_noise(model, grid, 0, [0])).values[0]
    energy = weighted_norm_sq(values, model.weights)
    assert np.abs(energy / energy[0] - 1.0).max() <= 1e-10


def test_hyperbolic_friction_dissipates_energy():
    # cube-root velocity friction, no noise: energy non-increasing pathwise
    model = build_hyperbolic(n_modes=6, jump_rate=0.0, mark_std=0.0, validate=False)
    grid = TimeGrid(1.0, 400)
    rng = np.random.default_rng(2)
    paths = 64
    x0 = np.zeros((paths, model.dim))
    x0[:, :6] = rng.standard_normal((paths, 6)) * 0.5
    noise = draw_noise(model, grid, 3, range(paths))
    noise.x0[:] = x0
    res = direct_solve_batch(model, noise)
    energy = weighted_norm_sq(res.values, model.weights)
    assert np.all(np.diff(energy, axis=1) <= 1e-9 * (1 + energy[:, :1]))
    assert energy[:, -1].mean() < energy[:, 0].mean()


def test_hyperbolic_jump_lipschitz_constant_value():
    # linear jump coefficient through the position block: the intensity ratio
    # peaks at rate * E[xi^2] / lam_min, attained along the lowest position
    # mode; random pairs stay below it
    model = build_hyperbolic(n_modes=6, jump_rate=2.0, mark_std=0.3, validate=False)
    rep = check_lipschitz_growth(
        model.coeffs, model.dim, model.weights, model.marks,
        samples=2000, seed=4, jump_nodes=20_000,
    )
    expected = 2.0 * 0.09 / np.pi**2
    assert rep.passed
    assert 0.0 < rep.jump_lipschitz_max <= expected * 1.05
    # extremal direction: difference concentrated on position mode 1
    dx = np.zeros(model.dim)
    dx[0] = 1.0
    nodes = model.marks.sample_marks(np.random.default_rng(0), 50_000)
    diff_sq = np.array(
        [
            weighted_norm_sq(model.coeffs.jump.evaluate(0.0, xi, dx), model.weights)
            for xi in nodes[:2000]
        ]
    )
    ratio = model.marks.rate * diff_sq.mean() / weighted_norm_sq(dx, model.weights)
    assert ratio == pytest.approx(expected, rel=0.08)


def test_delay_initial_history_head_value():
    model = build_delay(history_cells=16, validate=False)
    x0 = model.x0
    assert x0[0] == pytest.approx(0.0, abs=1e-15)  # sin(pi * 0)
    assert x0[-1] == pytest.approx(np.sin(np.pi * 0.0), abs=1e-15)


def test_delay_free_flow_matches_method_of_steps():
    horizon = 1.0
    oracle = delay_head_oracle(lambda th: np.sin(np.pi * th), horizon, n_fine=4096)

    def run(cells, n_steps):
        model = build_delay(
            history_cells=cells, jump_rate=0.0, mark_std=0.0,
            f_scalar=lambda u: 0.0 * u, f_growth=(0.0, 0.0), validate=False,
        )
        grid = TimeGrid(horizon, n_steps)
        return direct_solve_batch(model, draw_noise(model, grid, 0, [0])).values[0, :, 0]

    heads = run(64, 256)
    ref = oracle[:: 4096 // 256]
    err64 = np.abs(heads - ref).max()
    err128 = np.abs(run(128, 256) - ref).max()
    assert err64 < 0.02
    assert err64 / err128 == pytest.approx(2.0, rel=0.5)


def test_delay_checkers_pass_zero_constant():
    model = build_delay(history_cells=16, validate=False)
    rep = check_semimonotone(
        model.coeffs.drift, model.dim, model.weights, samples=10_000, seed=5
    )
    assert rep.passed
    assert model.coeffs.semimonotone_m == 0.0


def test_linear_scalar_drift_constant_attained():
    model = build_linear_scalar(a=-1.0, validate=False)
    rep = check_semimonotone(model.coeffs.drift, 1, samples=1000, seed=6)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(-1.0, abs=1e-12)


def test_stochastic_exponential_deterministic_limit():
    times = np.linspace(0.0, 1.0, 11)
    vals = stochastic_exponential(1.0, -1.0, 0.0, 0.0, times, np.zeros(11), [])
    assert np.allclose(vals, np.exp(-times), rtol=1e-14)


def test_stochastic_exponential_single_jump():
    # one event at t = 0.5 with mark 0.5, read through the per-path view
    grid = TimeGrid(1.0, 100)
    noise = NoiseRealization(
        grid, None, np.ones((1, 1)), jump_row=np.array([0]),
        jump_cell=grid.cell_of(np.array([0.5])), jump_time=np.array([0.5]),
        jump_mark=np.array([0.5]),
    )
    assert noise.events_by_path == [((0.5, 0.5),)]
    vals = stochastic_exponential(
        2.0, 0.0, 0.0, 0.0, grid.times, np.zeros(101), noise.events_by_path[0]
    )
    assert vals[0] == 2.0
    assert vals[49] == pytest.approx(2.0)
    assert vals[-1] == pytest.approx(3.0)


def test_builder_registry():
    model = EXAMPLE_BUILDERS["delay"](history_cells=8, validate=False)
    assert model.name == "delay"
    assert sorted(EXAMPLE_BUILDERS) == ["delay", "hyperbolic", "linear_scalar", "reaction_diffusion"]


def test_reaction_diffusion_single_mode_reduces_to_linear_oracle():
    # one retained mode with linear jump coefficient: the generator and the
    # eta shift combine into a scalar linear model with a = eta - pi^2
    model = build_reaction_diffusion(
        dim=1, jump_rate=2.0, mark_std=0.2, f_scalar=lambda u: 0.0 * u, f_growth=(0.0, 0.0),
        eta=0.5, x0=np.array([1.0]), validate=False,
    )
    grid = TimeGrid(1.0, 2048)
    noise = draw_noise(model, grid, 55, range(64))
    res = direct_solve_batch(model, noise)
    a_eff = 0.5 - np.pi**2
    rel_errs = []
    for p in range(64):
        exact = stochastic_exponential(
            1.0, a_eff, 0.0, 0.0, grid.times, np.zeros(grid.n_steps + 1),
            noise.events_by_path[p],
        )
        rel_errs.append(
            abs(res.values[p, -1, 0] - exact[-1]) / max(abs(exact[-1]), 1e-12)
        )
    assert float(np.median(rel_errs)) <= 0.05
