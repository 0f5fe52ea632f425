import numpy as np
import pytest

from mildsde.semigroup import (
    _PADE,
    BlockWaveSemigroup,
    DelayShiftSemigroup,
    DiagonalSemigroup,
    _expm,
    _pade_degree,
)
from mildsde.state_space import weighted_norm_sq


def delay_head_oracle(history_fn, horizon, n_fine):
    """Method-of-steps reference for x'(t) = integral of x over (t-1, t].

    Heun steps on a fine grid with trapezoidal quadrature over the stored
    past; independent of the semigroup's upwind matrix exponential.
    """
    h = horizon / n_fine
    lag = round(1.0 / h)
    past = list(history_fn(np.linspace(-1.0, 0.0, lag + 1)))

    def window_integral(values):
        w = np.asarray(values[-(lag + 1):])
        return (w.sum() - 0.5 * (w[0] + w[-1])) * h

    xs = [past[-1]]
    for _ in range(n_fine):
        rate = window_integral(past)
        pred = past[-1] + h * rate
        rate2 = window_integral(past[1:] + [pred])
        nxt = past[-1] + 0.5 * h * (rate + rate2)
        past.append(nxt)
        xs.append(nxt)
    return np.array(xs)


def test_identity_at_zero_all_kinds():
    rng = np.random.default_rng(0)
    for seg in [
        DiagonalSemigroup([-1.0, -4.0, 2.0], alpha=2.0),
        BlockWaveSemigroup([1.0, 9.0]),
        DelayShiftSemigroup(10),
    ]:
        x = rng.standard_normal(seg.dim)
        assert np.allclose(seg.apply(0.0, x), x, rtol=0, atol=1e-14)


def test_diagonal_scalar_exponential():
    seg = DiagonalSemigroup([-1.0], alpha=0.0)
    out = seg.apply(1.0, np.array([1.0]))
    assert out[0] == pytest.approx(np.exp(-1.0), rel=1e-15)


def test_blockwave_quarter_period():
    # single mode, unit frequency: (1, 0) rotates to (0, -1) at t = pi/2
    seg = BlockWaveSemigroup([1.0])
    out = seg.apply(np.pi / 2.0, np.array([1.0, 0.0]))
    assert out == pytest.approx([0.0, -1.0], abs=1e-12)


def test_negative_time_rejected():
    seg = DiagonalSemigroup([-1.0], alpha=0.0)
    with pytest.raises(ValueError):
        seg.apply(-0.1, np.array([1.0]))


@pytest.mark.parametrize(
    "seg",
    [
        DiagonalSemigroup(np.linspace(-9.0, 1.0, 8), alpha=1.0),
        BlockWaveSemigroup((np.arange(1, 5) * np.pi) ** 2),
        DelayShiftSemigroup(12),
    ],
    ids=["diagonal", "blockwave", "delayshift"],
)
def test_semigroup_law(seg):
    rng = np.random.default_rng(3)
    for _ in range(1000):
        t, s = rng.uniform(0.0, 1.0, 2)
        x = rng.standard_normal(seg.dim)
        lhs = seg.apply(t + s, x)
        rhs = seg.apply(t, seg.apply(s, x))
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(lhs))


def test_blockwave_energy_per_mode_exact():
    lam = np.array([1.0, 4.0, 25.0])
    seg = BlockWaveSemigroup(lam)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(6)
    for t in rng.uniform(0.0, 5.0, 50):
        y = seg.apply(t, x)
        for k in range(3):
            e0 = lam[k] * x[k] ** 2 + x[3 + k] ** 2
            e1 = lam[k] * y[k] ** 2 + y[3 + k] ** 2
            assert e1 == pytest.approx(e0, rel=1e-12)


def test_delay_head_matches_method_of_steps():
    history = lambda th: np.sin(np.pi * th)
    horizon = 1.0
    oracle = delay_head_oracle(history, horizon, n_fine=4096)

    def head_path(cells, n_steps):
        seg = DelayShiftSemigroup(cells)
        lags = seg.history_lags()
        x = np.concatenate([[0.0], history(lags)])
        heads = [x[0]]
        dt = horizon / n_steps
        for _ in range(n_steps):
            x = seg.apply(dt, x)
            heads.append(x[0])
        return np.array(heads)

    errors = {}
    for cells in (32, 64):
        n_steps = 256
        heads = head_path(cells, n_steps)
        ref = oracle[:: 4096 // n_steps]
        errors[cells] = np.abs(heads - ref).max()
    assert errors[64] < errors[32]
    # first order in the history resolution
    assert 1.4 <= errors[32] / errors[64] <= 3.0
    assert errors[64] < 0.02


def max_bound_ratio(seg, t_max, weights=None, seed=0):
    """Largest sampled ||S_t x|| / (exp(alpha t) ||x||) over 64 random times
    in [0, t_max] with 32 random states each."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in rng.uniform(0.0, t_max, size=64):
        x = rng.standard_normal((32, seg.dim))
        amp = np.sqrt(weighted_norm_sq(seg.apply(t, x), weights) / weighted_norm_sq(x, weights))
        worst = max(worst, float(amp.max()) / np.exp(seg.alpha * t))
    return worst


def test_contraction_diagonal_negative_spectrum():
    seg = DiagonalSemigroup([-1.0, -3.0, -0.1], alpha=0.0)
    assert max_bound_ratio(seg, t_max=2.0, seed=1) <= 1.0 + 1e-12


def test_contraction_blockwave_weighted_energy_norm():
    seg = BlockWaveSemigroup((np.arange(1, 6) * np.pi) ** 2)
    ratio = max_bound_ratio(seg, t_max=2.0, weights=seg.energy_weights(), seed=2)
    assert ratio == pytest.approx(1.0, abs=1e-9)


def test_contraction_violation_detected():
    # the sampler above sees growth beyond the declared bound
    seg = DiagonalSemigroup([0.5], alpha=0.0)
    assert max_bound_ratio(seg, t_max=1.0, seed=3) > 1.0 + 1e-9


def test_delay_growth_bound_in_natural_weights():
    seg = DelayShiftSemigroup(16, alpha=1.0)
    assert max_bound_ratio(seg, t_max=1.0, weights=seg.natural_weights(), seed=4) <= 1.0 + 1e-9


def test_shifted_diagonal_absorbs_tilt():
    seg = DiagonalSemigroup([1.0], alpha=1.0)
    shifted = seg.shifted(-1.0)
    assert isinstance(shifted, DiagonalSemigroup)
    assert shifted.eigenvalues[0] == pytest.approx(0.0, abs=0)
    assert shifted.alpha == 0.0



# ---------------------------------------------------------------------------
# the matrix exponential behind DelayShiftSemigroup

# history cells and times of the checks below: together they reach every
# Pade degree, and t = 1 and t = 3 need squarings at every cell count
EXPM_CELLS = (6, 8, 12, 16, 24, 32, 40, 48, 64)
EXPM_TIMES = (2.5e-4, 1e-2, 0.2, 1.0, 3.0)


def rel_err(a, b):
    return np.linalg.norm(a - b, 1) / np.linalg.norm(b, 1)


def test_pade_degree_at_each_theta_boundary():
    thetas = [theta for theta, _ in _PADE.values()]
    degrees = list(_PADE)
    for m, theta, above in zip(degrees, thetas, degrees[1:] + [13]):
        assert _pade_degree(theta) == (m, 0)
        assert _pade_degree(np.nextafter(theta, np.inf)) == (above, 0 if m < 13 else 1)
    theta13 = thetas[-1]
    assert _pade_degree(0.0) == (3, 0)
    assert _pade_degree(2.0 * theta13) == (13, 1)
    assert _pade_degree(np.nextafter(2.0 * theta13, np.inf)) == (13, 2)
    assert _pade_degree(1000.0 * theta13) == (13, 10)


@pytest.mark.parametrize("lam", [-1e-3, 5e-3, -0.1, 0.4, -1.5, 2.0, -4.0, 5.0, -40.0, 30.0])
def test_expm_of_a_jordan_block(lam):
    # exp([[l, 1], [0, l]]) = exp(l) [[1, 1], [0, 1]], at every degree
    out = _expm(np.array([[lam, 1.0], [0.0, lam]]))
    assert rel_err(out, np.exp(lam) * np.array([[1.0, 1.0], [0.0, 1.0]])) <= 1e-13


def test_expm_shift_identity():
    # expm(t (A + delta I)) = exp(delta t) expm(t A)
    for cells in EXPM_CELLS:
        plain = DelayShiftSemigroup(cells)
        for delta in (-1.0, 0.5):
            shifted = DelayShiftSemigroup(cells, shift=delta)
            for t in EXPM_TIMES:
                assert rel_err(shifted.matrix(t), np.exp(delta * t) * plain.matrix(t)) <= 1e-13


def test_expm_doubling_through_squaring():
    seg = DelayShiftSemigroup(32)
    t = 1.0
    assert _pade_degree(np.linalg.norm(t * seg._matrix, 1))[1] > 0
    half = seg.matrix(t)
    assert rel_err(seg.matrix(2.0 * t), half @ half) <= 1e-13


def test_expm_matches_scipy():
    linalg = pytest.importorskip("scipy.linalg")
    for cells in EXPM_CELLS:
        for shift in (0.0, -1.0):
            gen = DelayShiftSemigroup(cells, shift=shift)._matrix
            for t in EXPM_TIMES:
                assert rel_err(_expm(t * gen), linalg.expm(t * gen)) <= 1e-13
