import tracemalloc

import numpy as np
import pytest

from mildsde.coefficients import CoefficientSet, DiffusionSpec, DriftSpec, JumpCoeffSpec
from mildsde.models import build_linear_scalar
from mildsde.noise import (
    WIENER_BLOCK,
    WIENER_SUM_VALUES,
    TimeGrid,
    _seed_words,
    coarsen_noise,
    draw_noise,
    path_rng,
)
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


# ---------------------------------------------------------------------------
# Wiener streams


def drawn_table(seed, indices, grid, modes):
    """The table draw_noise used to keep: each row's normals, drawn at once."""
    return np.stack([
        path_rng(seed, i).standard_normal((grid.n_steps, modes)) * np.sqrt(grid.dt)
        for i in indices
    ])


def read_blocks(noise):
    blocks = [block.copy() for block in noise.wiener_blocks()]
    assert [b.shape[1] for b in blocks[:-1]] == [WIENER_BLOCK] * (len(blocks) - 1)
    assert 0 < blocks[-1].shape[1] <= WIENER_BLOCK
    return np.concatenate(blocks, axis=1)


def test_wiener_blocks_equal_the_drawn_table():
    # 600 steps: two full blocks and a short one
    model, grid = wiener_model(3), TimeGrid(1.0, 600)
    noise = draw_noise(model, grid, 17, range(5, 9))
    table = drawn_table(17, range(5, 9), grid, 3)
    assert np.array_equal(read_blocks(noise), table)
    assert np.array_equal(noise.dW, table)
    # a second pass regenerates the same values
    assert np.array_equal(read_blocks(noise), table)


def test_coarsened_wiener_blocks_sum_the_fine_table():
    model, grid = wiener_model(2), TimeGrid(1.0, 1800)
    fine = draw_noise(model, grid, 3, range(3))
    table = drawn_table(3, range(3), grid, 2)
    by_two = table.reshape(3, 900, 2, 2).sum(axis=2)
    coarse = coarsen_noise(fine, 2)
    assert np.array_equal(read_blocks(coarse), by_two)
    assert np.array_equal(coarse.dW, by_two)
    # coarsenings compose in the order they were applied
    twice = coarsen_noise(coarse, 3)
    assert np.array_equal(read_blocks(twice), by_two.reshape(3, 300, 3, 2).sum(axis=2))
    # the fine realization still reads its own table
    assert np.array_equal(read_blocks(fine), table)


def test_wiener_at_horizon_adds_in_step_order():
    model, grid = wiener_model(2), TimeGrid(1.0, 700)
    noise = draw_noise(model, grid, 5, range(4))
    table = drawn_table(5, range(4), grid, 2)
    assert np.array_equal(noise.wiener_at_horizon(), np.cumsum(table, axis=1)[:, -1])
    assert np.array_equal(coarsen_noise(noise, 7).wiener_at_horizon(), noise.wiener_at_horizon())


def test_no_wiener_modes_no_streams():
    noise = draw_noise(jump_model(), TimeGrid(1.0, 10), 1, range(3))
    assert noise.wiener is None
    assert noise.dW.shape == (3, 10, 0)
    assert noise.wiener_at_horizon().shape == (3, 0)
    assert list(noise.wiener_blocks()) == []


def test_interleaved_wiener_passes_read_their_own_values():
    # a realization and its coarsening share one set of seed words, and each
    # pass seeds its own generators, so a pass overtaken by another goes on
    # reading its own values
    fine = draw_noise(wiener_model(1), TimeGrid(1.0, 600), 2, range(2))
    table = fine.dW.copy()
    first = fine.wiener_blocks()
    head = next(first).copy()
    coarse = list(coarsen_noise(fine, 2).wiener_blocks())
    rest = [block.copy() for block in first]
    assert np.array_equal(np.concatenate([head] + rest, axis=1), table)
    assert np.array_equal(np.concatenate(coarse, axis=1), table.reshape(2, 300, 2, 1).sum(axis=2))


# ---------------------------------------------------------------------------
# Seed words


SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**99 + 12345]
INDICES = [0, 1, 2**32 - 1, 2**32, 2**40 + 7]


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_words_are_those_of_seed_sequence(seed):
    words = _seed_words(seed, INDICES)
    expected = [
        np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)
        for i in INDICES
    ]
    assert words.dtype == np.uint64
    assert np.array_equal(words, np.array(expected))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("index", INDICES)
def test_path_rng_draws_as_the_seed_sequence_stream(seed, index):
    ours = path_rng(seed, index)
    theirs = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    assert ours.bit_generator.state == theirs.bit_generator.state
    for draw in (
        lambda g: g.standard_normal((3, 2)),
        lambda g: g.poisson(2.5, size=4),
        lambda g: g.uniform(0.0, 2.0, size=5),
    ):
        assert np.array_equal(draw(ours), draw(theirs))
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_seed_words_reject_negative_entropy():
    with pytest.raises(ValueError, match="path indices must be >= 0"):
        _seed_words(1, [0, -1])
    with pytest.raises(ValueError, match="seed entropy must be >= 0"):
        _seed_words(-1, [0])


# ---------------------------------------------------------------------------
# Memory of the W(T) sums


def draw_peak_bytes(model, grid, paths):
    """Peak traced allocation of draw_noise, less what its realization keeps
    (the seed words, x0, W(T) and the event arrays)."""
    tracemalloc.start()
    try:
        noise = draw_noise(model, grid, 11, range(paths))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = noise.wiener.words.nbytes + noise.wiener.ends.nbytes + noise.x0.nbytes
    kept += sum(a.nbytes for a in (noise.jump_row, noise.jump_cell, noise.jump_time,
                                   noise.jump_mark, noise.path_index))
    return peak - kept


def test_w_t_block_is_capped_by_its_values():
    # at 4096 steps of one mode a block holds 16 rows: 512 KB whether 16 or
    # 256 rows are drawn, where a table of all rows would hold 8 MB
    model, grid = wiener_model(1), TimeGrid(1.0, 4096)
    cap = WIENER_SUM_VALUES * 8
    small, large = draw_peak_bytes(model, grid, 16), draw_peak_bytes(model, grid, 256)
    assert small < 1.25 * cap
    assert large - small < 0.1 * cap
    # a row of more values than the cap is a block of its own
    wide = wiener_model(2)
    row = TimeGrid(1.0, WIENER_SUM_VALUES).n_steps * 2 * 8
    assert draw_peak_bytes(wide, TimeGrid(1.0, WIENER_SUM_VALUES), 8) < row + 0.25 * cap
