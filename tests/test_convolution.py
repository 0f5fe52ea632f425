import numpy as np
import pytest

from mildsde.convolution import ito_inequality_check, stochastic_convolution
from mildsde.noise import TimeGrid
from mildsde.semigroup import BlockWaveSemigroup, DiagonalSemigroup
from mildsde.state_space import weighted_norm_sq


def identity_semigroup(dim):
    return DiagonalSemigroup(np.zeros(dim), alpha=0.0)


def energy_terms(seg, grid, x0, dz, bracket, weights=None):
    """||X_j||^2 and 2 <X_j, dZ_j> + bracket_j along the path dz drives from x0."""
    values = stochastic_convolution(seg, grid, x0, dz)
    w = np.ones(values.shape[-1]) if weights is None else weights
    pairing = np.einsum("...d,d,...d->...", values[..., :-1, :], w, dz)
    return weighted_norm_sq(values, weights), 2.0 * pairing + bracket


def test_zero_forcing_reproduces_semigroup_orbit():
    grid = TimeGrid(1.0, 200)
    seg = DiagonalSemigroup([-1.0, -4.0], alpha=0.0)
    x0 = np.array([1.0, -0.5])
    path = stochastic_convolution(seg, grid, x0, np.zeros((200, 2)))
    exact = np.exp(np.outer(grid.times, seg.eigenvalues)) * x0
    assert np.allclose(path, exact, rtol=1e-12, atol=1e-14)


def test_trivial_semigroup_wiener_path():
    grid = TimeGrid(1.0, 100)
    rng = np.random.default_rng(0)
    dw = rng.standard_normal((100, 1)) * np.sqrt(grid.dt)
    path = stochastic_convolution(identity_semigroup(1), grid, np.array([2.0]), dw)
    expected = 2.0 + np.concatenate([[0.0], np.cumsum(dw[:, 0])])
    assert np.allclose(path[:, 0], expected, rtol=0, atol=1e-14)


def scalar_ode_error(n_steps):
    # dX = dt forcing against exp(-t) relaxation: closed form 1 - exp(-t) + exp(-t) x0
    grid = TimeGrid(1.0, n_steps)
    seg = DiagonalSemigroup([-1.0], alpha=0.0)
    x0 = np.array([0.25])
    path = stochastic_convolution(seg, grid, x0, np.full((n_steps, 1), grid.dt))
    exact = (1.0 - np.exp(-grid.times)) + np.exp(-grid.times) * x0[0]
    return np.abs(path[:, 0] - exact).max()


def test_deterministic_convolution_first_order():
    e1 = scalar_ode_error(100)
    e2 = scalar_ode_error(200)
    assert e1 <= 0.02
    assert e1 / e2 == pytest.approx(2.0, rel=0.15)


def test_convolution_marks_jump_cells():
    grid = TimeGrid(1.0, 10)
    seg = DiagonalSemigroup([-1.0], alpha=0.0)
    dz = np.zeros((10, 1))
    without = stochastic_convolution(seg, grid, np.array([1.0]), dz)
    dz[4] = 2.0
    with_jump = stochastic_convolution(seg, grid, np.array([1.0]), dz)
    jump = with_jump - without
    # a jump in cell 4 executes at t_5, propagated by one cell of the semigroup
    assert jump[4, 0] == 0.0
    assert jump[5, 0] == pytest.approx(2.0 * np.exp(-grid.dt), rel=1e-12)


def test_ito_check_contraction_only():
    grid = TimeGrid(1.0, 100)
    seg = DiagonalSemigroup([-2.0], alpha=0.0)
    terms = energy_terms(seg, grid, np.array([1.5]), np.zeros((100, 1)), 0.0)
    rep = ito_inequality_check(0.0, grid, *terms, tol_coeff=1.0)
    assert not rep.violation_mask().any()
    # slack equals the dissipated energy, nonnegative and increasing
    assert rep.slack[0] == 0.0
    assert np.all(np.diff(rep.slack) >= -1e-14)


def test_ito_check_rejects_terms_from_another_grid():
    # terms taken on the dt/2 grid do not fit the dt grid, in either array
    grid = TimeGrid(1.0, 100)
    fine = grid.refine(2)
    terms = energy_terms(identity_semigroup(1), fine, np.array([1.0]), np.zeros((200, 1)), 0.0)
    with pytest.raises(ValueError, match="do not fit a grid of 100 steps"):
        ito_inequality_check(0.0, grid, *terms)
    with pytest.raises(ValueError):  # the norms fit, the cell terms do not
        ito_inequality_check(0.0, grid, terms[0][::2], terms[1])
    with pytest.raises(ValueError):  # the cell terms fit, the norms do not
        ito_inequality_check(0.0, grid, terms[0], terms[1][::2])
    rep = ito_inequality_check(0.0, fine, *terms)
    assert rep.tolerance == 2.0 * np.sqrt(fine.dt)


def test_ito_identity_case_small_slack():
    # trivial semigroup: the inequality is the pathwise energy identity up to
    # the expectation-form Wiener bracket, so slack is mean-zero noise
    grid = TimeGrid(1.0, 400)
    rng = np.random.default_rng(2)
    dw = rng.standard_normal((400, 1)) * np.sqrt(grid.dt)
    terms = energy_terms(identity_semigroup(1), grid, np.array([1.0]), dw, grid.dt)
    rep = ito_inequality_check(0.0, grid, *terms, tol_coeff=2.0)
    assert np.abs(rep.slack).max() <= 10.0 * np.sqrt(grid.dt)
    assert not rep.violation_mask().any()


def test_ito_check_wave_random_forcing_rate():
    lam = (np.arange(1, 5) * np.pi) ** 2
    seg = BlockWaveSemigroup(lam)
    w = seg.energy_weights()
    grid = TimeGrid(1.0, 500)
    rng = np.random.default_rng(3)
    paths = 1000
    violations = 0
    batch = 100
    for start in range(0, paths, batch):
        dw = rng.standard_normal((batch, grid.n_steps, 1)) * np.sqrt(grid.dt)
        cols = np.zeros((batch, grid.n_steps, 1, seg.dim))
        cols[..., 0, 4:] = 0.4  # constant velocity-channel diffusion
        diffusion = np.einsum("pjkd,pjk->pjd", cols, dw)
        hs = np.einsum("pjkd,d,pjkd->pj", cols, w, cols) * grid.dt
        x0 = np.zeros((batch, seg.dim))
        x0[:, 0] = 1.0
        # tolerance coefficient calibrated to this forcing's bracket scale
        # (0.64 per unit time, far stronger than the shipped wave model)
        terms = energy_terms(seg, grid, x0, diffusion, hs, weights=w)
        rep = ito_inequality_check(0.0, grid, *terms, tol_coeff=4.0)
        violations += int(rep.violation_mask().sum())
    assert violations / paths <= 0.01


def test_ito_isometry_stochastic_convolution():
    # E ||int S_{t-s} g dW||^2 against the quadrature of ||S_{t-s} g||_HS^2
    grid = TimeGrid(1.0, 50)
    seg = DiagonalSemigroup([-1.0, -3.0], alpha=0.0)
    g = np.array([[0.8, 0.0], [0.0, 0.5]])  # constant columns, 2 modes
    rng = np.random.default_rng(4)
    paths = 10_000
    dw = rng.standard_normal((paths, grid.n_steps, 2)) * np.sqrt(grid.dt)
    diffusion = np.einsum("kd,pjk->pjd", g, dw)
    path = stochastic_convolution(seg, grid, np.zeros((paths, 2)), diffusion)
    final_sq = (path[:, -1, :] ** 2).sum(axis=1)
    lhs = final_sq.mean()
    se = final_sq.std(ddof=1) / np.sqrt(paths)
    # discrete expectation: sum over cells of ||S_{T - t_i} g||_HS^2 dt,
    # with the increment propagated from its cell's left endpoint
    t_left = grid.times[:-1]
    decay = np.exp(np.outer(grid.horizon - t_left, seg.eigenvalues))
    rhs = float(((decay[:, :, None] * g.T[None, :, :]) ** 2).sum() * grid.dt)
    assert abs(lhs - rhs) <= 4.0 * se


def test_martingale_mean_zero():
    grid = TimeGrid(1.0, 50)
    seg = DiagonalSemigroup([-1.0], alpha=0.0)
    rng = np.random.default_rng(5)
    paths = 10_000
    dw = rng.standard_normal((paths, grid.n_steps, 1)) * np.sqrt(grid.dt)
    path = stochastic_convolution(seg, grid, np.zeros((paths, 1)), dw)
    final = path[:, -1, 0]
    se = final.std(ddof=1) / np.sqrt(paths)
    assert abs(final.mean()) <= 4.0 * se


def test_batch_matches_single_path():
    grid = TimeGrid(1.0, 30)
    seg = DiagonalSemigroup([-1.0, -2.0], alpha=0.0)
    rng = np.random.default_rng(6)
    drift = rng.standard_normal((3, 30, 2)) * grid.dt
    x0 = rng.standard_normal((3, 2))
    batch_path = stochastic_convolution(seg, grid, x0, drift)
    for p in range(3):
        single = stochastic_convolution(seg, grid, x0[p], drift[p])
        assert np.allclose(batch_path[p], single, rtol=0, atol=1e-14)


def test_report_fills_a_strided_view_as_it_keeps_its_own_slack():
    # six paths written into chunks 0, 2 and 4 of two rows of a 12-row
    # table, as a batch of interleaved chunks fills a shared table
    grid = TimeGrid(1.0, 50)
    seg = DiagonalSemigroup([-1.0, 0.5], alpha=0.0)
    rng = np.random.default_rng(5)
    dz = rng.standard_normal((6, 50, 2)) * np.sqrt(grid.dt)
    terms = energy_terms(seg, grid, np.array([1.0, -0.5]), dz, grid.dt)
    own = ito_inequality_check(0.0, grid, *terms, tol_coeff=0.5)
    table = np.full((12, 51), 7.0)
    view = table.reshape(6, 2, 51)[::2]
    assert not view.flags.c_contiguous
    filled = ito_inequality_check(0.0, grid, *terms, tol_coeff=0.5, keep_slack=view)
    assert filled.slack is view
    assert view.reshape(6, 51).tobytes() == own.slack.tobytes()
    assert np.array_equal(filled.violation_mask(), own.violation_mask())
    assert own.violation_mask().any() and not own.violation_mask().all()
    # the other chunks' rows are left as they were
    assert (table.reshape(6, 2, 51)[1::2] == 7.0).all()
    # a check stopped early leaves NaN past its cells, as its own table does
    part = ito_inequality_check(0.0, grid, terms[0][:, :11], terms[1][:, :10],
                                keep_slack=view)
    assert np.isnan(view[..., 11:]).all() and not np.isnan(view[..., :11]).any()
    assert part.slack.reshape(6, 51)[:, :11].tobytes() == own.slack[:, :11].tobytes()


def test_report_rejects_a_slack_table_of_another_shape():
    grid = TimeGrid(1.0, 10)
    norms, per_cell = np.ones((4, 11)), np.zeros((4, 10))
    for shape in [(4, 10), (3, 11), (2, 3, 11), (4, 11, 1)]:
        with pytest.raises(ValueError, match="does not hold 4 paths of 11 points"):
            ito_inequality_check(0.0, grid, norms, per_cell, keep_slack=np.zeros(shape))
