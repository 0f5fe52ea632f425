import numpy as np
import pytest

from mildsde.coefficients import CoefficientSet, DiffusionSpec, DriftSpec, JumpCoeffSpec
from mildsde.models import build_linear_scalar
from mildsde.noise import TimeGrid, draw_noise, path_rng
from mildsde.semigroup import DiagonalSemigroup
from mildsde.solver import ModelSpec, _cell_assembler, direct_solve_batch


NO_JUMPS = JumpCoeffSpec(None, None, lipschitz_c=0.0, growth_d=0.0)


def wiener_model(modes):
    """A scalar model whose noise is ``modes`` Wiener channels and no jumps."""
    return ModelSpec(
        name="wiener",
        semigroup=DiagonalSemigroup(np.zeros(1), alpha=0.0),
        coeffs=CoefficientSet(
            DriftSpec(evaluate=lambda t, x: 0.0 * x, semimonotone_m=0.0, growth_d=0.0),
            DiffusionSpec(
                evaluate=lambda t, x: np.zeros(np.shape(x)[:-1] + (modes, 1)),
                modes=modes, lipschitz_c=0.0, growth_d=0.0,
            ),
            NO_JUMPS,
        ),
        weights=None,
        marks=None,
        x0=np.zeros(1),
        horizon=1.0,
    )


def jump_model(rate=2.0, std=0.3, mean=0.0):
    """dX = xi X dN-tilde: jumps only, k(t, xi, x) = xi x, Gaussian marks."""
    return build_linear_scalar(
        a=0.0, sigma=0.0, jump_rate=rate, mark_std=std, mark_mean=mean, validate=False
    )


def test_grid_basics():
    grid = TimeGrid(1.0, 100)
    assert grid.dt == pytest.approx(0.01)
    assert grid.times[0] == 0.0 and grid.times[-1] == 1.0
    assert grid.refine(2).n_steps == 200
    # cell (t_j, t_{j+1}] binning: the right endpoint belongs to its own cell
    assert grid.cell_of(0.01) == 0
    assert grid.cell_of(0.0101) == 1
    assert grid.cell_of(1.0) == 99
    # elementwise on arrays, with the same clipping at both ends
    cells = grid.cell_of(np.array([0.0, 0.01, 0.0101, 1.0]))
    assert cells.tolist() == [0, 0, 1, 99]


def test_wiener_determinism():
    model, grid = wiener_model(3), TimeGrid(1.0, 50)
    a = draw_noise(model, grid, 42, [0]).dW
    b = draw_noise(model, grid, 42, [0]).dW
    assert a.shape == (1, 50, 3)
    assert np.array_equal(a, b)
    c = draw_noise(model, grid, 43, [0]).dW
    assert not np.array_equal(a, c)


def test_wiener_moments():
    # 1e5 increments at dt = 0.01: mean within 4 sigma, variance within 5%
    grid = TimeGrid(10.0, 1000)
    table = draw_noise(wiener_model(100), grid, 7, [0]).dW
    n = table.size
    dt = grid.dt
    assert abs(table.mean()) <= 4.0 * np.sqrt(dt / n)
    assert table.var() == pytest.approx(dt, rel=0.05)


def test_wiener_requires_steps():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_prm_zero_rate_empty():
    noise = draw_noise(jump_model(rate=0.0), TimeGrid(1.0, 10), 1, range(4))
    assert noise.jump_time.size == noise.jump_row.size == 0
    assert noise.events_by_path == [(), (), (), ()]


def test_prm_count_mean():
    noise = draw_noise(jump_model(rate=2.0), TimeGrid(1.0, 10), 0, range(10_000))
    counts = [len(events) for events in noise.events_by_path]
    # Poisson(2): mean within 3 standard errors of sqrt(2/n)
    assert np.mean(counts) == pytest.approx(2.0, abs=3.0 * np.sqrt(2.0 / 10_000))


def test_prm_determinism_and_ordering():
    model, grid = jump_model(rate=5.0), TimeGrid(2.0, 40)
    a = draw_noise(model, grid, 99, range(3))
    b = draw_noise(model, grid, 99, range(3))
    for name in ("jump_row", "jump_cell", "jump_time", "jump_mark"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.jump_time.size > 0
    for events in a.events_by_path:
        times = [t for t, _ in events]
        assert times == sorted(times)
        assert all(0.0 < t <= 2.0 for t in times)
    # each cell's events form one slice, in (row, time) order
    assert np.array_equal(a.jump_cell, grid.cell_of(a.jump_time))
    keys = list(zip(a.jump_cell.tolist(), a.jump_row.tolist(), a.jump_time.tolist()))
    assert keys == sorted(keys)


def test_compensate_zero_map():
    # a jump coefficient that evaluates to zero contributes no increment,
    # events or not
    model = jump_model(rate=3.0)
    model.coeffs.jump = JumpCoeffSpec(
        evaluate=lambda t, xi, x: 0.0 * np.asarray(x),
        compensator=lambda t, x: 0.0 * np.asarray(x),
        lipschitz_c=0.0, growth_d=0.0,
    )
    grid = TimeGrid(1.0, 10)
    noise = draw_noise(model, grid, 3, range(4))
    assert noise.jump_time.size > 0
    res = direct_solve_batch(model, noise)
    assemble = _cell_assembler(model, noise, brackets=True)
    for j in range(grid.n_steps):
        *parts, bracket = assemble(j, res.values[:, j])
        assert not any(part is not None and part.any() for part in parts)
        assert not bracket.any()


def test_compensate_no_jump_cells_carry_compensator():
    model = jump_model(rate=1.0, mean=0.4)
    grid = TimeGrid(1.0, 10)
    noise = draw_noise(model, grid, 3, range(4))
    res = direct_solve_batch(model, noise)
    empty = np.ones((4, grid.n_steps), dtype=bool)
    empty[noise.jump_row, noise.jump_cell] = False
    assert empty.any()
    assemble = _cell_assembler(model, noise, brackets=True)
    for j in range(grid.n_steps):
        xj = res.values[:, j]
        comp, _, sums, _ = assemble(j, xj)
        rows = empty[:, j]
        expected = -grid.dt * model.coeffs.jump.compensator(0.0, xj)
        assert np.array_equal(comp[rows], expected[rows])
        assert sums is None or not sums[rows].any()


def test_compensated_sum_zero_mean():
    # Monte Carlo mean of the full compensated integral of k(t, xi, 1) = xi
    # over many paths, compensated by the model's own compensator
    model = jump_model(rate=1.5, std=0.5, mean=0.2)
    marks, k = model.marks, model.coeffs.jump
    noise = draw_noise(model, TimeGrid(1.0, 20), 5, range(10_000))
    jumps = k.evaluate(noise.jump_time, noise.jump_mark, np.ones((noise.jump_time.size, 1)))
    totals = np.bincount(noise.jump_row, weights=jumps[:, 0], minlength=10_000)
    totals -= 1.0 * k.compensator(0.0, np.ones(1))[0]
    # var of one path total ~ rate * E[xi^2] * T
    se = np.sqrt(marks.rate * marks.mark_second_moment / len(totals))
    assert abs(totals.mean()) <= 4.0 * se + 0.02 * se


def test_path_rng_stable_streams():
    a = path_rng(1234, 7).standard_normal(5)
    b = path_rng(1234, 7).standard_normal(5)
    c = path_rng(1234, 8).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_wiener_disjoint_increments_uncorrelated():
    # sample correlation between adjacent steps and between modes stays
    # within four standard errors of zero
    grid = TimeGrid(1.0, 2000)
    table = draw_noise(wiener_model(2), grid, 123, [0]).dW[0] / np.sqrt(grid.dt)
    n = grid.n_steps - 1
    lag_corr = np.corrcoef(table[:-1, 0], table[1:, 0])[0, 1]
    mode_corr = np.corrcoef(table[:, 0], table[:, 1])[0, 1]
    assert abs(lag_corr) <= 4.0 / np.sqrt(n)
    assert abs(mode_corr) <= 4.0 / np.sqrt(grid.n_steps)
