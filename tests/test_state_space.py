import numpy as np
import pytest

from mildsde.state_space import weighted_norm_sq


def norm(x, w=None):
    return float(np.sqrt(weighted_norm_sq(x, w)))


def test_orthonormality():
    e1 = np.array([1.0, 0.0, 0.0])
    assert weighted_norm_sq(e1, None) == 1.0


def test_orthogonality():
    # distinct modes are orthogonal: their norms add without a cross term
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert weighted_norm_sq(e1 + e2, None) == 2.0


def test_weighted_inner_hand_value():
    # sum of w_k x_k^2 = 2*1*1 + 1*2*2 = 6
    w = np.array([2.0, 1.0])
    assert weighted_norm_sq(np.array([1.0, 2.0]), w) == pytest.approx(6.0, abs=0)


def test_weight_length_mismatch_raises():
    with pytest.raises(ValueError):
        weighted_norm_sq(np.zeros(3), np.ones(2))


def test_norm_zero_vector():
    assert norm(np.zeros(3)) == 0.0


def test_norm_unit_mode():
    assert norm(np.array([1.0, 0.0, 0.0])) == 1.0


def test_norm_pythagoras():
    assert norm(np.array([3.0, 4.0])) == pytest.approx(5.0, abs=0)


def test_cauchy_schwarz_random_pairs():
    rng = np.random.default_rng(7)
    dim = 16
    w = rng.uniform(0.2, 5.0, dim)
    xs = rng.standard_normal((10_000, dim))
    ys = rng.standard_normal((10_000, dim))
    lhs = np.abs(np.einsum("pd,d,pd->p", xs, w, ys))
    rhs = np.sqrt(np.einsum("pd,d,pd->p", xs, w, xs)) * np.sqrt(
        np.einsum("pd,d,pd->p", ys, w, ys)
    )
    assert np.all(lhs <= rhs * (1 + 1e-12))


def test_parallelogram_law():
    rng = np.random.default_rng(8)
    w = rng.uniform(0.1, 3.0, 12)
    x = rng.standard_normal((200, 12))
    y = rng.standard_normal((200, 12))
    lhs = weighted_norm_sq(x + y, w) + weighted_norm_sq(x - y, w)
    rhs = 2 * weighted_norm_sq(x, w) + 2 * weighted_norm_sq(y, w)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=0)


def test_triangle_inequality():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((500, 6))
    y = rng.standard_normal((500, 6))
    lhs = np.sqrt(weighted_norm_sq(x + y, None))
    rhs = np.sqrt(weighted_norm_sq(x, None)) + np.sqrt(weighted_norm_sq(y, None))
    assert np.all(lhs <= rhs + 1e-12)
