"""Acceptance suite: one test per promised property, each printing a PASS or
FAIL line, all at desk scale (dim <= 32, T = 1, dt = 1e-3, <= 2000 paths).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import json
import math

import numpy as np
import pytest

from mildsde.cli import _chunkwise, _run_stacked, main
from mildsde.coefficients import (
    CoefficientSet,
    DriftSpec,
    JumpCoeffSpec,
    check_lipschitz_growth,
    check_semimonotone,
    nemitsky_sine,
    zero_diffusion,
)
from mildsde.convolution import ito_inequality_check, stochastic_convolution
from mildsde.models import (
    build_delay,
    build_hyperbolic,
    build_linear_scalar,
    build_reaction_diffusion,
    decreasing_cbrt,
    gaussian_marks,
    stochastic_exponential,
)
from mildsde.noise import TimeGrid, coarsen_noise, draw_noise
from mildsde.semigroup import DiagonalSemigroup
from mildsde.solver import (
    direct_solve_batch,
    picard_solve_batch,
    predicted_bound,
    unrescale_values,
)
from mildsde.state_space import weighted_norm_sq


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


BDG_CONSTANT = 3.0
HORIZON = 1.0
GRID = TimeGrid(HORIZON, 1000)  # dt = 1e-3


def run_chunks(chunk, paths, chunk_size):
    """The arrays of the chunk function chunk joined over the fixed chunks,
    run on every usable core by the CLI's chunk runner with a batch function
    that solves its chunks one at a time, as the picard campaign does."""
    return _run_stacked([_chunkwise(chunk)], paths, chunk_size)[0]


def rd_acceptance_model():
    return build_reaction_diffusion(
        dim=8, jump_rate=2.0, mark_std=0.5, mark_mean=0.1, validate=False,
    )


@pytest.fixture(scope="module")
def picard_data():
    """Shared iteration campaign: 500 paths in chunks of 64, 10 iterations,
    frozen noise. The chunks run on every usable core through the CLI's
    chunk runner, which joins their row arrays in chunk order."""
    model = rd_acceptance_model()

    def chunk(rows):
        # per-iterate arrays leave a chunk as (paths, iterates)
        noise = draw_noise(model, GRID, 20260810, rows)
        res = picard_solve_batch(model, noise, n_max=10)
        x0_sq = weighted_norm_sq(noise.x0, model.weights)
        return res.distances.T, res.x_sup_sq.T, res.v_sup_sq.T, x0_sq

    distances, x_sup, v_sup, x0_sq = run_chunks(chunk, 500, 64)
    return {
        "model": model,
        "distances": np.ascontiguousarray(distances.T),
        "x_sup": np.ascontiguousarray(x_sup.T),
        "v_sup": np.ascontiguousarray(v_sup.T),
        "x0_sq": x0_sq,
    }


def test_criterion_1_picard_rate(picard_data):
    model = picard_data["model"]
    e = picard_data["distances"].mean(axis=1)
    c = model.coeffs.lipschitz_c
    m = model.coeffs.semimonotone_m
    c1 = 2.0 * c * (1.0 + 2.0 * BDG_CONSTANT**2) * math.exp(4.0 * m * HORIZON)
    ratio_ok = all(
        e[n + 1] <= (2.0 * c1 * HORIZON / (n + 1)) * e[n] for n in range(2, 9)
    )
    mono_ok = all(e[n + 1] <= e[n] or e[n + 1] <= 1e-30 for n in range(2, 9))
    # the factorial decay law itself, with C0 the first distance estimate
    bounds = predicted_bound(e[0], c1, HORIZON, np.arange(len(e)))
    bound_ok = bool(np.all(e <= bounds * (1.0 + 1e-12)))
    report(
        1, "picard-rate", ratio_ok and mono_ok and bound_ok,
        f"C1={c1:.3g}, e2={e[2]:.3g}, e9={e[9]:.3g}",
    )


def test_criterion_5_moment_bound(picard_data):
    model = picard_data["model"]
    d = model.coeffs.growth_d
    m = model.coeffs.semimonotone_m
    factor = 3.0 * d * HORIZON**2 * math.exp(2.0 * m * HORIZON)
    coef = 3.0 + 2.0 * factor
    x0_sq = picard_data["x0_sq"]
    x_sup = picard_data["x_sup"]
    v_sup = picard_data["v_sup"]
    n_paths = x0_sq.shape[0]
    worst_margin = np.inf
    ok = True
    for n in range(1, 9):
        lhs = x_sup[n].mean()
        rhs = factor + coef * (x0_sq.mean() + v_sup[n - 1].mean())
        se = math.sqrt(
            x_sup[n].var(ddof=1) / n_paths
            + coef**2 * (x0_sq.var(ddof=1) + v_sup[n - 1].var(ddof=1)) / n_paths
        )
        margin = rhs + 2.0 * se - lhs
        worst_margin = min(worst_margin, margin)
        ok &= margin >= 0.0
    report(5, "iterate-moment-bound", ok, f"worst margin {worst_margin:.3g}")


def test_criterion_2_uniqueness():
    # two genuinely different inner solvers on the same seed: the structure
    # aware exact step versus the generic damped fixed-point iteration at
    # half damping
    model = rd_acceptance_model()
    variant = rd_acceptance_model()
    variant.coeffs = CoefficientSet(
        DriftSpec(
            evaluate=model.coeffs.drift.evaluate,
            semimonotone_m=model.coeffs.drift.semimonotone_m,
            growth_d=model.coeffs.drift.growth_d,
            implicit_step=None,
        ),
        model.coeffs.diffusion,
        model.coeffs.jump,
    )

    def chunk(rows):
        noise = draw_noise(model, GRID, 99, rows)
        res_a = picard_solve_batch(model, noise, n_max=6, damping=1.0)
        res_b = picard_solve_batch(
            variant, noise, n_max=6, damping=0.5, inner_tol=1e-6, max_halvings=8
        )
        return (
            weighted_norm_sq(res_a.values - res_b.values, model.weights).max(axis=1),
            weighted_norm_sq(res_a.values, model.weights).max(axis=1),
        )

    num, den = run_chunks(chunk, 128, 64)
    rel = num.sum() / den.sum()
    report(2, "uniqueness-solver-variants", rel <= 1e-6, f"relative distance {rel:.3g}")


def test_criterion_3_ito_inequality():
    cases = {
        "reaction_diffusion": rd_acceptance_model(),
        "hyperbolic": build_hyperbolic(
            n_modes=8, jump_rate=1.0, mark_std=0.3, levy_gaussian_variance=0.09,
            validate=False,
        ),
        "delay": build_delay(
            history_cells=24, jump_rate=1.0, mark_std=0.3, validate=False,
        ),
    }
    fine = GRID.refine(2)
    all_ok = True
    details = []
    for name, model in cases.items():

        def chunk(rows, model=model):
            # violation flags at dt and at dt/2 on one shared realization,
            # the solver feeding each check as ito-check does
            noise_fine = draw_noise(model, fine, 777, rows)
            masks = []
            for nz in (coarsen_noise(noise_fine, 2), noise_fine):
                norm0_sq = weighted_norm_sq(nz.x0, model.weights)[:, None]
                rep = ito_inequality_check(
                    model.semigroup.alpha, nz.grid, norm0_sq, np.zeros((nz.n_paths, 0))
                )
                direct_solve_batch(model, nz, energy=rep)
                masks.append(rep.violation_mask())
            return tuple(masks)

        violations, violations_half = (
            int(mask.sum()) for mask in run_chunks(chunk, 1000, 100)
        )
        rate = violations / 1000.0
        rate_half = violations_half / 1000.0
        se = math.sqrt(max(rate * (1 - rate), 1e-3) / 1000.0)
        ok = rate <= 0.01 and rate_half <= rate + 2.0 * se
        all_ok &= ok
        details.append(f"{name}: {rate:.3f}/{rate_half:.3f}")
    report(3, "pathwise-energy-inequality", all_ok, "; ".join(details))


def test_criterion_4_closed_form_oracle():
    model = build_linear_scalar(
        a=-1.0, sigma=0.5, jump_rate=2.0, mark_std=0.2, x0=1.0, validate=False,
    )
    paths = 400
    rms = []
    levels = list(range(6, 13))
    for lvl in levels:
        grid = TimeGrid(HORIZON, 2**lvl)
        errs = []
        for start in range(0, paths, 100):
            rows = [lvl * paths + start + i for i in range(min(100, paths - start))]
            noise = draw_noise(model, grid, 4242, rows)
            res = direct_solve_batch(model, noise)
            w_paths = np.concatenate(
                [np.zeros((len(rows), 1)), np.cumsum(noise.dW[:, :, 0], axis=1)], axis=1
            )
            exact = stochastic_exponential(
                1.0, -1.0, 0.5, 0.0, grid.times, w_paths,
                noise.jump_row, noise.jump_time, noise.jump_mark,
            )
            errs.extend(d ** 2 for d in res.values[:, -1, 0] - exact[:, -1])
        rms.append(math.sqrt(float(np.mean(errs))))
    order = float(np.polyfit(-np.array(levels, dtype=float), np.log2(rms), 1)[0])
    rms_10 = rms[levels.index(10)]
    ok = order >= 0.45 and rms_10 < 1e-2
    report(
        4, "stochastic-exponential-oracle", ok,
        f"order {order:.3f}, rms@2^-10 {rms_10:.3e}",
    )


def test_criterion_6_rescaling():
    model = build_delay(history_cells=24, jump_rate=1.0, mark_std=0.3, validate=False)
    alpha = model.semigroup.alpha
    assert alpha == 1.0
    from mildsde.solver import rescale_to_contraction

    tilde = rescale_to_contraction(model)
    fine = GRID.refine(2)

    # pathwise comparison on shared noise, plus a refinement budget from the
    # dt vs dt/2 self-distance of each integrator
    noise_fine = draw_noise(model, fine, 31, range(200))
    noise = coarsen_noise(noise_fine, 2)
    orig = direct_solve_batch(model, noise)
    orig_fine = direct_solve_batch(model, noise_fine)
    resc = direct_solve_batch(tilde, noise)
    resc_fine = direct_solve_batch(tilde, noise_fine)
    mapped = unrescale_values(resc.values, GRID.times, alpha)
    mapped_fine = unrescale_values(resc_fine.values, fine.times, alpha)

    def sup_dist(a, b):
        return float(np.sqrt(weighted_norm_sq(a - b, model.weights)).max())

    budget = sup_dist(orig.values, orig_fine.values[:, ::2]) + sup_dist(
        mapped, mapped_fine[:, ::2]
    )
    pathwise = sup_dist(orig.values, mapped)
    pathwise_ok = pathwise <= 10.0 * budget + 1e-12

    # statistics on disjoint path blocks within three standard errors
    noise_b = draw_noise(model, GRID, 32, range(200, 400))
    resc_b = direct_solve_batch(tilde, noise_b)
    mapped_b = unrescale_values(resc_b.values, GRID.times, alpha)
    stat_a = np.sqrt(weighted_norm_sq(orig.values[:, -1, :], model.weights))
    stat_b = np.sqrt(weighted_norm_sq(mapped_b[:, -1, :], model.weights))
    se = math.sqrt(stat_a.var(ddof=1) / 200 + stat_b.var(ddof=1) / 200)
    stats_ok = abs(stat_a.mean() - stat_b.mean()) <= 3.0 * se
    report(
        6, "contraction-rescaling", pathwise_ok and stats_ok,
        f"pathwise {pathwise:.3g} vs budget {budget:.3g}",
    )


def test_criterion_7_hypothesis_checkers():
    dim = 8
    nem = nemitsky_sine(decreasing_cbrt, dim)
    good = DriftSpec(evaluate=lambda t, x: nem(x), semimonotone_m=0.0, growth_d=8.0)
    rep_good = check_semimonotone(good, dim, samples=10_000, seed=70)

    nem_bad = nemitsky_sine(lambda u: u**3, dim)
    bad = DriftSpec(evaluate=lambda t, x: nem_bad(x), semimonotone_m=0.0, growth_d=99.0)
    rep_bad = check_semimonotone(bad, dim, samples=10_000, seed=71)

    marks = gaussian_marks(rate=2.0, std=0.3, mean=0.1)
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
    rep_jump = check_lipschitz_growth(
        coeffs, dim, marks=marks, samples=10_000, seed=72, jump_nodes=20_000
    )
    ratio_ok = abs(rep_jump.jump_lipschitz_max - c_true) <= 0.05 * c_true
    ok = rep_good.passed and (not rep_bad.passed) and ratio_ok
    report(
        7, "hypothesis-checkers", ok,
        f"jump ratio {rep_jump.jump_lipschitz_max:.4f} vs {c_true:.4f}",
    )


def test_criterion_8_noise_layer():
    # isometry of the Wiener convolution, constant diagonal coefficient
    grid = TimeGrid(HORIZON, 50)
    seg = DiagonalSemigroup([-1.0, -3.0], alpha=0.0)
    g = np.array([[0.8, 0.0], [0.0, 0.5]])
    rng = np.random.default_rng(80)
    paths = 10_000
    dw = rng.standard_normal((paths, grid.n_steps, 2)) * math.sqrt(grid.dt)
    conv = stochastic_convolution(
        seg, grid, np.zeros((paths, 2)), np.einsum("kd,pjk->pjd", g, dw)
    )
    final_sq = (conv[:, -1, :] ** 2).sum(axis=1)
    se = final_sq.std(ddof=1) / math.sqrt(paths)
    t_left = grid.times[:-1]
    decay = np.exp(np.outer(grid.horizon - t_left, seg.eigenvalues))
    target = float(((decay[:, :, None] * g.T[None, :, :]) ** 2).sum() * grid.dt)
    isometry_ok = abs(final_sq.mean() - target) <= 4.0 * se

    # compensated jump integral has mean zero: the jumps k(t, xi, 1) = xi of
    # the solvers' noise draw minus the model's own compensator over (0, T]
    model = build_linear_scalar(
        a=0.0, sigma=0.0, jump_rate=1.5, mark_std=0.5, mark_mean=0.2, validate=False
    )
    marks = model.marks
    k = model.coeffs.jump
    noise = draw_noise(model, grid, 81, range(10_000))
    jumps = k.evaluate(noise.jump_time, noise.jump_mark, np.ones((noise.jump_time.size, 1)))
    totals = np.bincount(noise.jump_row, weights=jumps[:, 0], minlength=10_000)
    totals -= HORIZON * k.compensator(0.0, np.ones(1))[0]
    se_m = math.sqrt(marks.rate * marks.mark_second_moment / totals.size)
    mean_ok = abs(totals.mean()) <= 4.0 * se_m

    # event count is Poisson(rate * T)
    noise = draw_noise(model, grid, 82, range(10_000))
    counts = np.array([len(events) for events in noise.events_by_path])
    se_c = math.sqrt(marks.rate * HORIZON / counts.size)
    count_ok = abs(counts.mean() - marks.rate * HORIZON) <= 3.0 * se_c

    report(
        8, "noise-layer", isometry_ok and mean_ok and count_ok,
        f"isometry gap {abs(final_sq.mean() - target):.2e} (4se={4*se:.2e}), "
        f"mean {totals.mean():.2e}, count {counts.mean():.4f}",
    )


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "example": "reaction_diffusion",
        "dim": 6,
        "dt": 1e-3,
        "paths": 16,
        "seed": 2026,
        "n_max": 3,
        "chunk_size": 8,
        "model_params": {"jump_rate": 2.0, "mark_std": 0.5, "mark_mean": 0.1},
    }
    outputs = []
    for tag in ("r1", "r2"):
        run_cfg = dict(cfg, out_dir=str(tmp_path / tag))
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(run_cfg))
        assert main(["picard", "--config", str(path)]) == 0
        outputs.append(
            tuple(
                (tmp_path / tag / f).read_bytes()
                for f in ("picard_iterations.csv", "picard_moments.csv", "picard_paths.csv")
            )
        )
    report(9, "byte-determinism", outputs[0] == outputs[1])
