from dataclasses import replace

import numpy as np
import pytest

from mildsde.coefficients import (
    DriftSpec,
    check_lipschitz_growth,
    check_semimonotone,
    nemitsky_sine,
    widen,
)
from mildsde.models import (
    EXAMPLE_BUILDERS,
    build_delay,
    build_hyperbolic,
    build_linear_scalar,
    build_reaction_diffusion,
    stochastic_exponential,
)
from mildsde.noise import NoiseRealization, TimeGrid, draw_noise
from mildsde.solver import ModelValidationError, direct_solve_batch, rescale_to_contraction
from mildsde.state_space import weighted_norm_sq
from tests.test_semigroup import delay_head_oracle


def with_drift(model, evaluate=None, semimonotone_m=0.0, growth_d=0.0):
    """The model with its drift swapped for evaluate(t, x), zero on the
    model's support when None, declaring the given constants and no
    implicit step of its own."""
    if evaluate is None:
        width = len(range(model.dim)[model.coeffs.support])

        def evaluate(t, x):
            return np.zeros(np.shape(x)[:-1] + (width,))

    drift = DriftSpec(evaluate, semimonotone_m, growth_d)
    return replace(model, coeffs=replace(model.coeffs, drift=drift))


def test_all_builders_pass_checkers_at_full_samples():
    # the construction invariant: checkers at 10^4 samples before returning
    build_reaction_diffusion(dim=12)
    build_hyperbolic(n_modes=8)
    build_delay(history_cells=16)
    build_linear_scalar()


def test_reaction_diffusion_pure_heat_mode():
    model = with_drift(build_reaction_diffusion(
        dim=6, jump_rate=0.0, mark_std=0.0, x0=np.eye(6)[0], validate=False,
    ))
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
    # the identity composed pointwise plus 0.5 u is 1.5 u, declared 0.5
    nem = nemitsky_sine(lambda u: u, 8)
    model = with_drift(
        build_reaction_diffusion(dim=8, validate=False),
        lambda t, x: nem(x) + 0.5 * x, semimonotone_m=0.5, growth_d=4.5,
    )
    with pytest.raises(ModelValidationError):
        model.validate()


def test_hyperbolic_free_single_mode_energy():
    model = with_drift(build_hyperbolic(
        n_modes=4, jump_rate=0.0, mark_std=0.0, x0_position=np.eye(4)[0], validate=False,
    ))
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
            weighted_norm_sq(model.coeffs.jump.evaluate(0.0, xi, dx),
                             model.weights[model.coeffs.support])
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
        model = with_drift(build_delay(
            history_cells=cells, jump_rate=0.0, mark_std=0.0, validate=False,
        ))
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
        model.coeffs.drift, model.dim, model.weights, samples=10_000, seed=5,
        support=model.coeffs.support,
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
    no_rows, no_values = np.array([], dtype=int), np.array([])
    vals = stochastic_exponential(
        1.0, -1.0, 0.0, 0.0, times, np.zeros((1, 11)), no_rows, no_values, no_values
    )[0]
    assert np.allclose(vals, np.exp(-times), rtol=1e-14)


def test_stochastic_exponential_single_jump():
    # one event at t = 0.5 with mark 0.5, read from the realization's arrays
    grid = TimeGrid(1.0, 100)
    noise = NoiseRealization(
        grid, None, np.ones((1, 1)), jump_row=np.array([0]),
        jump_cell=grid.cell_of(np.array([0.5])), jump_time=np.array([0.5]),
        jump_mark=np.array([0.5]),
    )
    assert noise.events_by_path == [((0.5, 0.5),)]
    vals = stochastic_exponential(
        2.0, 0.0, 0.0, 0.0, grid.times, np.zeros((1, 101)),
        noise.jump_row, noise.jump_time, noise.jump_mark,
    )[0]
    assert vals[0] == 2.0
    assert vals[49] == pytest.approx(2.0)
    assert vals[-1] == pytest.approx(3.0)


def test_stochastic_exponential_matches_a_loop_over_each_paths_events():
    # many events per row, stored by (cell, row): the oracle's flat-array
    # form has the bits of one product per path over its (time, mark)
    # pairs in time order, at every grid point
    model = build_linear_scalar(sigma=0.3, jump_rate=40.0, mark_std=0.4, validate=False)
    grid = TimeGrid(1.0, 64)
    noise = draw_noise(model, grid, 9, range(12))
    w = np.concatenate([np.zeros((12, 1)), np.cumsum(noise.dW[:, :, 0], axis=1)], axis=1)
    vals = stochastic_exponential(
        1.5, -0.7, 0.3, 0.0, grid.times, w, noise.jump_row, noise.jump_time, noise.jump_mark
    )
    assert np.bincount(noise.jump_row).min() >= 20
    for p, events in enumerate(noise.events_by_path):
        prod = np.ones(len(grid.times))
        for time, mark in events:
            first = min(max(int(np.ceil(time / grid.dt)) - 1, 0), grid.n_steps - 1) + 1
            prod *= np.where(np.arange(len(grid.times)) >= first, 1.0 + mark, 1.0)
        log_factor = (-0.7 - 0.5 * 0.3 * 0.3 - 0.0) * grid.times + 0.3 * w[p]
        assert np.array_equal(vals[p], 1.5 * np.exp(log_factor) * prod)


STEP_MODELS = {
    "reaction_diffusion_eta": lambda: build_reaction_diffusion(dim=8, eta=0.5, validate=False),
    "hyperbolic_levy_drift": lambda: build_hyperbolic(n_modes=6, levy_drift=0.7, validate=False),
    "delay": lambda: build_delay(history_cells=8, levy_drift=-0.3, validate=False),
    "delay_rescaled": lambda: rescale_to_contraction(
        build_delay(history_cells=8, validate=False)
    ),
    "linear_scalar": lambda: build_linear_scalar(validate=False),
}


@pytest.mark.parametrize("case", sorted(STEP_MODELS))
def test_builder_implicit_step_solves_the_step_equation(case):
    # each builder's own step accepts every row, and what it returns solves
    # x = b + dt f(t, x) to within the Nemitsky acceptance, dust_scale(dt) / 32
    # (about 1e-6 at dt = 1e-3), from unit rows down to rows of norm 1e-9
    model = STEP_MODELS[case]()
    drift = model.coeffs.drift
    rng = np.random.default_rng(41)
    t, dt = 0.5, 1e-3
    for scale in (1.0, 1e-2, 1e-5, 1e-9):
        b = rng.standard_normal((6, model.dim)) * scale
        x, ok = drift.implicit_step(t, b, dt, 1e-8)
        assert ok.all()
        res = b + dt * widen(drift.evaluate(t, x), model.coeffs.support, model.dim) - x
        assert np.sqrt(weighted_norm_sq(res, model.weights)).max() <= 1e-6


def test_builder_registry():
    model = EXAMPLE_BUILDERS["delay"](history_cells=8, validate=False)
    assert model.name == "delay"
    assert sorted(EXAMPLE_BUILDERS) == ["delay", "hyperbolic", "linear_scalar", "reaction_diffusion"]


@pytest.mark.parametrize("build", [build_hyperbolic, build_delay])
def test_nan_gaussian_variance_is_rejected_by_the_builder(build):
    # a NaN variance fails the builder's own guard, not model validation
    with pytest.raises(ValueError, match="^gaussian variance must be >= 0$"):
        build(levy_gaussian_variance=float("nan"))


@pytest.mark.parametrize("params, message", [
    (dict(mark_std=float("nan")), "mark std must be >= 0"),
    (dict(jump_rate=float("nan")), "intensity mass must be >= 0"),
    (dict(mark_mean=float("nan")), "second moment must be finite and >= 0"),
])
def test_nan_mark_space_is_rejected_by_the_builder(params, message):
    # a NaN mark law fails its own guard, not model validation
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_reaction_diffusion(**params)


def test_reaction_diffusion_single_mode_reduces_to_linear_oracle():
    # one retained mode with linear jump coefficient: the generator and the
    # linear drift 0.5 u combine into a scalar linear model with
    # a = 0.5 - pi^2
    model = with_drift(build_reaction_diffusion(
        dim=1, jump_rate=2.0, mark_std=0.2, x0=np.array([1.0]), validate=False,
    ), lambda t, x: 0.5 * x, semimonotone_m=0.5)
    grid = TimeGrid(1.0, 2048)
    noise = draw_noise(model, grid, 55, range(64))
    res = direct_solve_batch(model, noise)
    a_eff = 0.5 - np.pi**2
    exact = stochastic_exponential(
        1.0, a_eff, 0.0, 0.0, grid.times, np.zeros((64, grid.n_steps + 1)),
        noise.jump_row, noise.jump_time, noise.jump_mark,
    )[:, -1]
    rel_errs = np.abs(res.values[:, -1, 0] - exact) / np.maximum(np.abs(exact), 1e-12)
    assert float(np.median(rel_errs)) <= 0.05
