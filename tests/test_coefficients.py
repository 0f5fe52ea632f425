import dataclasses
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from mildsde import coefficients
from mildsde.coefficients import (
    AliasingError,
    CoefficientSet,
    DriftSpec,
    JumpCoeffSpec,
    check_lipschitz_growth,
    check_semimonotone,
    nemitsky_implicit_solver,
    nemitsky_sine,
    sine_quadrature,
    zero_diffusion,
)
from mildsde.models import (
    build_delay,
    build_hyperbolic,
    build_linear_scalar,
    build_reaction_diffusion,
    cbrt_implicit_prox,
    cbrt_implicit_root,
    decreasing_cbrt,
)
from mildsde.noise import MarkSpaceSpec
from mildsde.solver import ModelValidationError
from mildsde.state_space import hs_norm_sq, weighted_norm_sq


NO_JUMPS = JumpCoeffSpec(None, None, lipschitz_c=0.0, growth_d=0.0)


def make_marks(rate=1.0, std=0.3, mean=0.0):
    return MarkSpaceSpec(
        rate=rate,
        sample_marks=lambda rng, size: rng.normal(mean, std, size=size),
        mark_second_moment=mean**2 + std**2,
        mark_mean=mean,
    )


def refined_projection(scalar_fn, x, n_modes, factor=10):
    """Reference projection of scalar_fn composed with the synthesized
    profile, on a quadrature grid ``factor`` times finer."""
    n_quad = 2 * n_modes * factor
    _, synth = sine_quadrature(n_modes, n_quad)
    return scalar_fn(x @ synth.T) @ synth / n_quad


def test_nemitsky_identity_exact():
    nem = nemitsky_sine(lambda u: u, 8)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 8))
    assert np.abs(nem(x) - x).max() <= 1e-8


def test_nemitsky_constant_projection():
    c = 0.7
    nem = nemitsky_sine(lambda u: c + 0.0 * u, 6, n_quad=64)
    out = nem(np.zeros(6))
    oracle = refined_projection(lambda u: c + 0.0 * u, np.zeros(6), 6, factor=40)
    assert np.abs(out - oracle).max() <= 1e-3
    # analytic sine coefficients of the constant: sqrt(2) c (1 - (-1)^k) / (k pi)
    ks = np.arange(1, 7)
    analytic = np.sqrt(2.0) * c * (1.0 - (-1.0) ** ks) / (ks * np.pi)
    assert out == pytest.approx(analytic, abs=5e-3)


def test_nemitsky_cbrt_against_refined_quadrature():
    n_modes = 8
    nem = nemitsky_sine(decreasing_cbrt, n_modes, n_quad=4 * n_modes)
    x = np.zeros(n_modes)
    x[0] = 1.3  # single sine mode
    out = nem(x)
    oracle = refined_projection(decreasing_cbrt, x, n_modes, factor=10)
    rel = np.linalg.norm(out - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-4 * 50  # smooth composition, midpoint rule converges fast
    assert rel <= 5e-3


def test_nemitsky_aliasing_rejected():
    message = "^15 quadrature points cannot resolve 8 sine modes; need at least 16$"
    with pytest.raises(AliasingError, match=message):
        nemitsky_sine(lambda u: u, 8, n_quad=15)
    with pytest.raises(AliasingError, match=message):
        nemitsky_implicit_solver(lambda u: u, lambda v, dt: v, 8, n_quad=15)


def test_semimonotone_nemitsky_cbrt_passes_zero():
    nem = nemitsky_sine(decreasing_cbrt, 8)
    drift = DriftSpec(evaluate=lambda t, x: nem(x), semimonotone_m=0.0, growth_d=8.0)
    rep = check_semimonotone(drift, 8, samples=10_000, seed=1)
    assert rep.passed
    assert rep.max_ratio <= 1e-9


def test_semimonotone_linear_ratio():
    drift = DriftSpec(evaluate=lambda t, x: -x, semimonotone_m=0.0, growth_d=1.0)
    rep = check_semimonotone(drift, 4, samples=2000, seed=2)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(-1.0, abs=1e-9)


def test_semimonotone_exact_linear_drift_large_constant():
    # the ratio estimate of an exact linear drift carries ~1e-10 relative
    # rounding error, which must not fail a declared M of 2000
    drift = DriftSpec(evaluate=lambda t, x: 2000.0 * x, semimonotone_m=2000.0, growth_d=4e6)
    rep = check_semimonotone(drift, 1, samples=10_000, seed=0)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(2000.0, rel=1e-9)
    build_linear_scalar(a=2000.0)  # runs the same check; raised before


def test_semimonotone_cubic_fails():
    nem = nemitsky_sine(lambda u: u**3, 6)
    drift = DriftSpec(evaluate=lambda t, x: nem(x), semimonotone_m=0.0, growth_d=100.0)
    rep = check_semimonotone(drift, 6, samples=10_000, seed=3)
    assert not rep.passed
    assert rep.max_ratio > 0.0


def test_affine_shift_of_monotone_map():
    # adding eta * identity to a decreasing pointwise map shifts M to eta
    nem = nemitsky_sine(decreasing_cbrt, 8)
    eta = 0.5
    drift = DriftSpec(
        evaluate=lambda t, x: nem(x) + eta * x, semimonotone_m=eta, growth_d=10.0
    )
    rep = check_semimonotone(drift, 8, samples=10_000, seed=4)
    assert rep.passed
    assert rep.max_ratio <= eta + 1e-9
    bad = DriftSpec(evaluate=drift.evaluate, semimonotone_m=0.0, growth_d=10.0)
    assert not check_semimonotone(bad, 8, samples=10_000, seed=4).passed


def test_growth_zero_coefficients():
    dim = 5
    coeffs = CoefficientSet(
        DriftSpec(evaluate=lambda t, x: 0.0 * x, semimonotone_m=0.0, growth_d=0.0),
        zero_diffusion(dim),
        NO_JUMPS,
    )
    rep = check_lipschitz_growth(coeffs, dim, samples=2000, seed=5)
    assert rep.passed
    assert rep.combined_lipschitz_max == 0.0
    assert rep.growth_max == 0.0


def test_linear_jump_ratio_matches_second_moment():
    dim = 4
    marks = make_marks(rate=2.0, std=0.3, mean=0.1)
    c_true = marks.rate * marks.mark_second_moment
    coeffs = CoefficientSet(
        DriftSpec(evaluate=lambda t, x: 0.0 * x, semimonotone_m=0.0, growth_d=0.0),
        zero_diffusion(dim),
        JumpCoeffSpec(
            evaluate=lambda t, xi, x: np.asarray(xi)[..., None] * x,
            compensator=lambda t, x: marks.rate * 0.1 * x,
            lipschitz_c=c_true,
            growth_d=c_true,
        ),
    )
    rep = check_lipschitz_growth(
        coeffs, dim, marks=marks, samples=2000, seed=6, jump_nodes=20_000
    )
    assert rep.passed
    assert rep.jump_lipschitz_max == pytest.approx(c_true, rel=0.05)


@pytest.mark.parametrize("jump_rate", [100.0, 1000.0])
def test_an_exact_model_passes_its_own_growth_check(jump_rate):
    # linear_scalar declares its exact D; the jump part's node quadrature
    # overshoots it (D observed 5.28225 vs 5.25 at rate 100), which a margin
    # of 1e-9 on the whole D rejected
    model = build_linear_scalar(jump_rate=jump_rate)
    _, growth = model.check()
    assert growth.growth_max > growth.declared_d
    assert growth.passed_growth


def test_a_growth_constant_understated_beyond_the_quadrature_error_fails():
    # the jump part may exceed its D by 5% of it, and by no more: at 90% of
    # the exact jump D the model is rejected
    model = build_linear_scalar(jump_rate=100.0, validate=False)
    jump = dataclasses.replace(model.coeffs.jump, growth_d=0.9 * model.coeffs.jump.growth_d)
    model.coeffs = dataclasses.replace(model.coeffs, jump=jump)
    _, growth = model.check()
    assert not growth.passed_growth
    with pytest.raises(ModelValidationError, match="Lipschitz/growth failed"):
        model.validate()


def test_jump_quadrature_sums_finite_terms_whose_sum_overflows():
    # At mark std 1e152 (declared C = 1e304) the node terms of a wide pair
    # are finite, but their sum over 4096 nodes overflows. The check reads
    # the ratios to its declared constants that it reads at std 1e100, where
    # nothing overflows, and raises no numpy warning.
    ratios = []
    for std in (1e100, 1e152):
        model = build_reaction_diffusion(dim=4, mark_std=std, validate=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_lipschitz_growth(model.coeffs, model.dim, model.weights, model.marks)
        assert rep.passed
        assert np.isfinite([rep.combined_lipschitz_max, rep.growth_max]).all()
        ratios.append((rep.combined_lipschitz_max / rep.declared_c,
                       rep.growth_max / rep.declared_d))
    assert ratios[1] == pytest.approx(ratios[0], rel=1e-12)
    assert 0.9 < ratios[0][0] < 1.05 and 0.9 < ratios[0][1] <= 1.0


def _node_sums_one_at_a_time(jump, t, nodes, xs, ys, w, scale=1.0):
    """The jump quadrature's node sums taken one scalar mark at a time."""
    diff = np.zeros(len(xs))
    growth = np.zeros(len(xs))
    for xi in nodes:
        kx = jump.evaluate(t, float(xi), xs)
        ky = jump.evaluate(t, float(xi), ys)
        d_sq = weighted_norm_sq(kx - ky, w)
        g_sq = weighted_norm_sq(kx, w)
        if scale != 1.0:
            d_sq *= scale
            g_sq *= scale
        diff += d_sq
        growth += g_sq
    return diff, growth


MARKS = dict(jump_rate=2.0, mark_std=0.5, mark_mean=0.1, validate=False)


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("build", [
    lambda: build_reaction_diffusion(dim=8, **MARKS),
    lambda: build_hyperbolic(n_modes=4, **MARKS),
    lambda: build_delay(history_cells=32, **MARKS),
    lambda: build_linear_scalar(**MARKS),
], ids=["reaction_diffusion", "hyperbolic", "delay", "linear_scalar"])
def test_blocked_jump_quadrature_is_bitwise_node_at_a_time(build, seed):
    model = build()
    largest = 0

    def evaluate(t, xi, x):
        nonlocal largest
        k = model.coeffs.jump.evaluate(t, xi, x)
        largest = max(largest, k.size)
        return k

    jump = dataclasses.replace(model.coeffs.jump, evaluate=evaluate)
    width = len(range(model.dim)[model.coeffs.support])
    w = coefficients.on_support(model.weights, model.coeffs.support)
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((256, model.dim))
    ys = rng.standard_normal((256, model.dim))
    nodes = np.asarray(model.marks.sample_marks(rng, 4096))
    # the plain sums, and the retake's scaled terms on every pair and on a
    # single pair, whose node sums numpy's reductions would take pairwise
    for scale, pairs in ((1.0, slice(None)), (2.0 ** -13, slice(None)), (2.0 ** -13, [5])):
        blocked = coefficients._jump_node_sums(
            jump, 0.3, nodes, xs[pairs], ys[pairs], w, width, scale
        )
        reference = _node_sums_one_at_a_time(
            model.coeffs.jump, 0.3, nodes, xs[pairs], ys[pairs], w, scale
        )
        for got, want in zip(blocked, reference):
            assert np.array_equal(got, want)
    assert 0 < largest <= coefficients._JUMP_BLOCK


LEVY = dict(MARKS, levy_drift=0.3, levy_gaussian_variance=0.04)


@pytest.mark.parametrize("build", [
    lambda: build_reaction_diffusion(dim=8, eta=0.5, **MARKS),
    lambda: build_hyperbolic(n_modes=4, **LEVY),
    lambda: build_delay(history_cells=32, **LEVY),
    lambda: build_linear_scalar(**MARKS),
], ids=["reaction_diffusion", "hyperbolic", "delay", "linear_scalar"])
def test_blocked_checkers_report_the_full_height_bits(build, monkeypatch):
    # the checkers evaluate the drift, the diffusion columns and the pair
    # distances in blocks of rows; the reference takes the whole sample of
    # 10,000 pairs as one block
    model = build()
    drift, heights = model.coeffs.drift.evaluate, set()

    def evaluate(t, x):
        heights.add(len(x))
        return drift(t, x)

    monkeypatch.setattr(model.coeffs.drift, "evaluate", evaluate)
    blocked = model.check()
    assert max(heights) == coefficients._ROW_BLOCK
    monkeypatch.setattr(coefficients, "_ROW_BLOCK", 10_000)
    heights.clear()
    reference = model.check()
    assert heights == {10_000}
    assert blocked == reference


def test_semimonotone_check_memory_is_a_few_blocks():
    # the pairs themselves, 2 * 10,000 * 8 floats, are held whole; the
    # drift's quadrature values, (pairs, 16) per evaluation, are not
    model = build_reaction_diffusion(dim=8, validate=False)
    check = lambda samples: check_semimonotone(
        model.coeffs.drift, model.dim, model.weights, samples=samples
    )
    check(100)  # first-call allocations are not the checker's
    tracemalloc.start()
    try:
        check(10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (2 * 10_000 * 8 * 8)


@pytest.mark.parametrize("jump_nodes", [0, -3])
def test_jump_nodes_below_one_is_rejected(jump_nodes):
    model = build_linear_scalar(validate=False)
    with pytest.raises(ValueError, match="jump_nodes must be >= 1"):
        check_lipschitz_growth(
            model.coeffs, model.dim, model.weights, model.marks, jump_nodes=jump_nodes
        )


def test_affine_drift_growth_bound():
    # f(x) = A x + b with ||A|| = L: growth ratio <= 2 L^2 + 2 ||b||^2
    rng = np.random.default_rng(7)
    dim = 6
    raw = rng.standard_normal((dim, dim))
    slope = raw / np.linalg.norm(raw, 2) * 1.5
    offset = rng.standard_normal(dim) * 0.5
    bound = 2 * 1.5**2 + 2 * float(offset @ offset)
    coeffs = CoefficientSet(
        DriftSpec(
            evaluate=lambda t, x: x @ slope.T + offset,
            semimonotone_m=1.5,
            growth_d=bound,
        ),
        zero_diffusion(dim),
        NO_JUMPS,
    )
    rep = check_lipschitz_growth(coeffs, dim, samples=10_000, seed=8)
    assert rep.passed_growth


def test_hilbert_schmidt_norm_two_ways():
    rng = np.random.default_rng(9)
    dim, modes = 5, 3
    cols = rng.standard_normal((modes, dim))
    w = rng.uniform(0.5, 2.0, dim)
    by_columns = sum(float(np.dot(c * w, c)) for c in cols)
    direct = float(hs_norm_sq(cols, w))
    assert by_columns == pytest.approx(direct, rel=1e-12)


def test_cbrt_prox_all_scales():
    rng = np.random.default_rng(11)
    v = np.concatenate(
        [10.0 ** rng.uniform(-300, 2, 500) * rng.choice([-1, 1], 500), [0.0]]
    )
    for p in (1e-3, 1e-1):
        u = cbrt_implicit_prox(v, p)
        res = np.abs(u + p * np.cbrt(u) - v)
        assert res.max() <= 1e-13


def test_cbrt_prox_cube_ulp():
    # The prox cubes by multiplication; against the closed form cubed with
    # pow it may move an ulp or two, never past np.cbrt.
    rng = np.random.default_rng(11)
    v = np.concatenate(
        [10.0 ** rng.uniform(-300, 2, 500) * rng.choice([-1, 1], 500), [0.0, -0.0]]
    )
    for p in (1e-3, 1e-1):
        disc = np.sqrt(0.25 * v * v + (p ** 3) / 27.0)
        z = np.cbrt(0.5 * v + np.where(v >= 0.0, disc, -disc))
        w = np.where(z != 0.0, z - p / np.where(z != 0.0, 3.0 * z, 1.0), 0.0)
        reference = w ** 3
        u = cbrt_implicit_prox(v, p)
        np.testing.assert_array_max_ulp(u, reference, maxulp=2)
        assert np.array_equal(np.signbit(u), np.signbit(reference))
        assert np.cbrt(u).tobytes() == np.cbrt(reference).tobytes()


def _prox_out_of_place(v, p):
    """cbrt_implicit_prox as first written, one temporary per operation, with
    the square scaled by |v| where 0.25 * v * v overflows."""
    disc = np.sqrt(0.25 * v * v + (p ** 3) / 27.0)
    disc = np.where(np.isinf(disc), np.abs(v) * np.sqrt(0.25 + (p ** 3) / 27.0 / v / v), disc)
    z3 = 0.5 * v + np.copysign(disc, v + 0.0)
    z = np.cbrt(z3)
    w = z - p / np.where(z != 0.0, 3.0 * z, np.inf)
    return w * w * w


@pytest.mark.parametrize("p", [1e-3, 1e-2, 0.5])
def test_cbrt_prox_bits(p):
    # the in-place prox keeps every bit of the out-of-place formula, signed
    # zeros, subnormals, overflow, infinities and NaN included; the delay
    # model's implicit step returns its output as it is
    tiny = np.nextafter(0.0, 1.0)
    special = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1e-300, -1e-300,
                        1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan])
    rng = np.random.default_rng(5)
    scaled = 10.0 ** rng.uniform(-12, 3, 130) * rng.choice([-1.0, 1.0], 130)
    v = np.concatenate([special, scaled]).reshape(3, 6, 8)
    before = v.tobytes()
    with np.errstate(all="ignore"):
        u = cbrt_implicit_prox(v, p)
        reference = _prox_out_of_place(v, p)
    assert u.shape == v.shape
    assert u.tobytes() == reference.tobytes()
    assert v.tobytes() == before
    # a 0-d input gives the same double
    with np.errstate(all="ignore"):
        scalars = [cbrt_implicit_prox(np.float64(x), p) for x in special]
    assert np.array(scalars).tobytes() == reference.ravel()[: len(special)].tobytes()


@pytest.mark.parametrize("p", [1e-3, 1e-2, 0.5])
def test_cbrt_root_stays_finite_where_v_squared_overflows(p):
    # |v| from 1e155 to the float ceiling: w is finite and w^3 + p w = v to
    # a few ulps, the cube taken on w / 16 so that it cannot overflow
    rng = np.random.default_rng(3)
    v = 10.0 ** rng.uniform(155.0, 308.0, 2_000) * rng.choice([-1.0, 1.0], 2_000)
    v[:4] = [1e155, -1e155, np.finfo(float).max, -np.finfo(float).max]
    with np.errstate(over="ignore"):
        w = cbrt_implicit_root(v, p)
    assert np.isfinite(w).all()
    s = w / 16.0
    lhs = s * s * s + (p / 256.0) * s
    np.testing.assert_array_max_ulp(lhs, v / 4096.0, maxulp=4)


def test_cbrt_root_is_the_cube_root_of_the_prox():
    # the Nemitsky step takes phi(u) = -cbrt(u) at the prox's root as -w, w
    # the cubic's root, where it took -cbrt(w * w * w): the same double over
    # the prox's reachable outputs (w = 0, or |w| of at least about an ulp
    # of sqrt(p / 3)) for steps p from 1e-20 to 1 and |v| from 1e-320 to 1e160,
    # the scaled branch where v * v overflows included
    rng = np.random.default_rng(9)
    for p in 10.0 ** np.linspace(-20.0, 0.0, 41):
        v = 10.0 ** rng.uniform(-320.0, 160.0, 20_000) * rng.choice([-1.0, 1.0], 20_000)
        v[:4] = [0.0, -0.0, 5e-324, -5e-324]
        with np.errstate(over="ignore"):
            w = cbrt_implicit_root(v, p)
            u = cbrt_implicit_prox(v, p)
        assert (-w).tobytes() == decreasing_cbrt(u).tobytes()


def test_nemitsky_implicit_solver_accuracy():
    dim = 8
    step = nemitsky_implicit_solver(decreasing_cbrt, cbrt_implicit_root, dim)
    _, synth = sine_quadrature(dim, 16)
    rng = np.random.default_rng(12)
    dt = 1e-3
    for scale in (1.0, 1e-2, 1e-5, 1e-9):
        b = rng.standard_normal((6, dim)) * scale
        x, ok = step(0.0, b, dt, 1e-9)
        assert ok.all()
        res = b + dt * (decreasing_cbrt(x @ synth.T) @ synth) / 16 - x
        # accepted at the tolerance or at dust_scale(dt) / 32, both tiny
        assert np.linalg.norm(res, axis=1).max() <= 1e-6


def test_nemitsky_step_bits():
    # SHA-256 of (x, ok) from the cube-root Nemitsky step on seeded batches
    # (four scales plus an all-zero row, two linear shifts, two step sizes).
    # How the prox forms its cube is a speed choice; a digest change means
    # the step's numerics changed.
    dim = 8
    digest = hashlib.sha256()
    for shift in (0.0, 0.5):
        step = nemitsky_implicit_solver(
            decreasing_cbrt, cbrt_implicit_root, dim, linear_shift=shift
        )
        rng = np.random.default_rng(21)
        for dt in (1e-3, 1e-2):
            for scale in (1.0, 1e-2, 1e-5, 1e-9):
                b = rng.standard_normal((7, dim)) * scale
                b[3] = 0.0
                x, ok = step(0.0, b, dt, 1e-8)
                digest.update(np.ascontiguousarray(x).tobytes())
                digest.update(np.ascontiguousarray(ok).tobytes())
    assert digest.hexdigest() == (
        "dae8b1a1c5798e1970b5dea8b720348eb8e459f822375b6c07e7d89f8a4802e5"
    )


def _retiring_blocks(dim):
    """Five blocks of six rows at scales 1, 1e-2, 1e-4, 1e-2 (with a zero
    row) and 1e-9 (with its first rows at unit scale)."""
    rng = np.random.default_rng(8)
    b = rng.standard_normal((5, 6, dim)) * np.array([1.0, 1e-2, 1e-4, 1e-2, 1e-9])[:, None, None]
    b[3, 2] = 0.0
    b[4, :3] *= 1e9
    return b


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_nemitsky_step_on_blocks_is_each_block_alone(monkeypatch, shift):
    # each row is an equation of its own that retires on the first sweep
    # that accepts it: a stack of blocks steps like each block, and each
    # row, solved alone, with the same ok and x equal up to the rounding of
    # the products, whose height is the count of live rows (1e-13 of the
    # row's norm, or 1e-16 for the rows of norm 1e-19 in the extinction
    # basin, against the step's tolerance of 1e-8); every leading shape of
    # the same rows runs the same sweeps, bit for bit
    dim = 8
    step = nemitsky_implicit_solver(decreasing_cbrt, cbrt_implicit_root, dim, linear_shift=shift)
    b = _retiring_blocks(dim)
    x, ok = step(0.0, b, 1e-2, 1e-8)
    assert x.shape == b.shape and ok.shape == b.shape[:-1] and ok.all()
    x4, ok4 = step(0.0, b.reshape(1, 5, 6, dim), 1e-2, 1e-8)
    assert x4.tobytes() == x.tobytes() and ok4.tobytes() == ok.tobytes()
    row_scale = np.linalg.norm(x, axis=-1, keepdims=True)
    for alone in (
        [step(0.0, block, 1e-2, 1e-8) for block in b],
        [tuple(np.stack(a) for a in zip(*(step(0.0, row, 1e-2, 1e-8) for row in block)))
         for block in b],
    ):
        assert np.array_equal(np.stack([oka for _, oka in alone]), ok)
        assert np.all(np.abs(np.stack([xa for xa, _ in alone]) - x) <= 1e-13 * row_scale + 1e-16)
    # with the sweeps capped at k, the rows accepted within k sweeps keep
    # the bits of the uncapped run: at dt = 1e-2 the unit-scale block and
    # the one with its first rows at 1e-9 scale retire on sweep 1, the 1e-2
    # block's last row on sweep 2, and the 1e-4 block's rows over 7 sweeps
    accepted = []
    for sweeps in (1, 2, 4):
        monkeypatch.setattr(coefficients, "_MAX_OUTER", sweeps)
        xk, okk = step(0.0, b, 1e-2, 1e-8)
        assert xk[okk].tobytes() == x[okk].tobytes()
        accepted.append(okk.sum(axis=-1).tolist())
    assert accepted == [[6, 5, 1, 3, 6], [6, 6, 3, 5, 6], [6, 6, 4, 6, 6]]


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_nemitsky_step_sweep_schedule(shift):
    # the live rows of every sweep of the stacked step, one prox call a
    # sweep, at the default sweep cap: a change to the iteration itself,
    # such as skipping the Anderson update of sweep 1 while the previous
    # correction is zero, changes this list
    live = []

    def counted_prox(v, p):
        live.append(v.shape[0])
        return cbrt_implicit_root(v, p)

    dim = 8
    step = nemitsky_implicit_solver(decreasing_cbrt, counted_prox, dim, linear_shift=shift)
    _, ok = step(0.0, _retiring_blocks(dim), 1e-2, 1e-8)
    assert ok.all()
    assert live == [30, 9, 4, 3, 2, 1, 1]


def test_pointwise_solver_exact():
    # the delay drift moves only the head, one cube-root prox per row
    step = build_delay(history_cells=2, validate=False).coeffs.drift.implicit_step
    b = np.array([[0.5, 2.0, -1.0], [1e-7, 0.0, 3.0]])
    x, ok = step(0.0, b, 0.01, 1e-12)
    assert ok.all()
    assert np.array_equal(x[:, 1:], b[:, 1:])
    res = x[:, 0] + 0.01 * np.cbrt(x[:, 0]) - b[:, 0]
    assert np.abs(res).max() <= 1e-14
