import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from mildsde import cli
from mildsde.cli import (
    _DIM_ARGS,
    _FIELD_TYPES,
    ConfigError,
    RunConfig,
    _check_type,
    _fitted_order_se,
    main,
    model_from_config,
    run_benchmark_oracle,
    run_ito_check,
    run_picard_campaign,
)
from mildsde.models import EXAMPLE_BUILDERS


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "example": "reaction_diffusion",
        "dim": 6,
        "dt": 2e-3,
        "paths": 16,
        "seed": 5,
        "n_max": 5,
        "out_dir": str(tmp_path / "out"),
        "model_params": {"jump_rate": 2.0, "mark_std": 0.4, "mark_mean": 0.1},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_config_round_trips_losslessly(tmp_path):
    path, raw = write_config(tmp_path)
    config = RunConfig.from_file(str(path))
    assert RunConfig.from_dict(config.to_dict()) == config
    rewritten = tmp_path / "again.json"
    rewritten.write_text(json.dumps(config.to_dict()))
    assert RunConfig.from_file(str(rewritten)) == config


def test_config_rejects_unknown_fields(tmp_path):
    path, _ = write_config(tmp_path, extra_field=1)
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(path))


def test_config_rejects_unknown_model_params():
    cfg = RunConfig(example="delay", model_params={"no_such_knob": 1})
    with pytest.raises(ConfigError):
        model_from_config(cfg)


@pytest.mark.parametrize("example", sorted(EXAMPLE_BUILDERS))
def test_model_params_schema_matches_the_builder(example):
    # every builder parameter but the dimension, horizon and validate is a
    # settable name whose annotation the config type rule knows and whose
    # default passes that rule; no builder knob is out of a config's reach
    assert set(_DIM_ARGS) == set(EXAMPLE_BUILDERS)
    dim_arg = _DIM_ARGS[example]
    params = inspect.signature(EXAMPLE_BUILDERS[example]).parameters
    assert dim_arg is None or dim_arg in params
    names = set(params) - {dim_arg, "horizon", "validate"}
    for name in names:
        assert params[name].annotation in _FIELD_TYPES
        _check_type(name, params[name].default, params[name].annotation)
    config = RunConfig(example=example, model_params={n: params[n].default for n in names})
    assert cli._model_kwargs(config) == {n: params[n].default for n in names}


def test_config_validates_numbers():
    with pytest.raises(ConfigError):
        RunConfig(dt=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(example="nonsense")
    with pytest.raises(ConfigError):
        RunConfig(dt=3e-4, horizon=1.0).grid()  # does not divide evenly


def _oracle_exponents(exponents):
    return "benchmark", {
        "example": "linear_scalar", "model_params": {"dt_exponents": exponents},
    }


# case id -> (command, config overrides)
BAD_CONFIGS = {
    "n_max": ("picard", {"n_max": 0}),
    "dim": ("picard", {"dim": 0}),
    "jump_rate": ("picard", {"model_params": {"jump_rate": -1.0}}),
    "inner_tol_str": ("picard", {"inner_tol": "x"}),
    "paths_float": ("picard", {"paths": 2.5}),
    "inner_tol_zero": ("picard", {"inner_tol": 0}),
    "inner_tol_negative": ("picard", {"inner_tol": -1}),
    "damping_zero": ("picard", {"damping": 0}),
    "dump_paths_negative": ("picard", {"dump_paths": -1}),
    "seed_negative": ("picard", {"seed": -1}),
    "seed_bool": ("picard", {"seed": True}),
    "dt_nan": ("picard", {"dt": float("nan")}),
    "bdg_constant_str": ("picard", {"bdg_constant": "a"}),
    "bdg_constant_negative": ("picard", {"bdg_constant": -1.0}),
    "refine_check_str": ("picard", {"refine_check": "no"}),
    "out_dir_int": ("picard", {"out_dir": 5}),
    "model_params_int": ("picard", {"model_params": 3}),
    "ito_tol_coeff_negative": ("picard", {"ito_tol_coeff": -1}),
    "threads_removed": ("picard", {"threads": 2}),
    "jump_rate_str": ("picard", {"model_params": {"jump_rate": "abc"}}),
    "jump_rate_null": ("picard", {"model_params": {"jump_rate": None}}),
    "jump_rate_bool": ("picard", {"model_params": {"jump_rate": True}}),
    "mark_std_list": ("picard", {"model_params": {"mark_std": [1]}}),
    "mark_std_negative": ("hypothesis-check", {"model_params": {"mark_std": -1.0}}),
    "eta_str": ("picard", {"model_params": {"eta": "x"}}),
    "x0_amplitude_null": ("picard", {"model_params": {"x0_amplitude": None}}),
    "n_quad_float": ("picard", {"model_params": {"n_quad": 9.5}}),
    "dt_exponents_empty": _oracle_exponents([]),
    "dt_exponents_str": _oracle_exponents("x"),
    "dt_exponents_negative": _oracle_exponents([-1, 2]),
    "dt_exponents_single": _oracle_exponents([6]),
    "dt_exponents_repeated": _oracle_exponents([6, 6]),
}


@pytest.mark.parametrize(
    "command, overrides", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS)
)
def test_bad_config_exits_3_with_one_line(tmp_path, capsys, command, overrides):
    path, _ = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["picard", "--seed", "x"], ["no-such-command"], ["picard", "--threads", "2"]],
    ids=["bad_seed", "unknown_command", "unknown_flag"],
)
def test_usage_error_exits_3_with_one_line(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text, kind",
    [("5", "int"), ("null", "NoneType"), ('[["dim", 4]]', "list"), ('"abc"', "str")],
)
def test_config_that_is_not_an_object_exits_3_with_one_line(tmp_path, capsys, text, kind):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["picard", "--config", str(path)]) == 3
    assert capsys.readouterr().err == f"config error: config must be a JSON object, got {kind}\n"


def test_main_reports_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["picard", "--config", str(bad)]) == 3


def test_picard_campaign_passes_and_writes_outputs(tmp_path):
    path, cfg = write_config(tmp_path)
    rc = main(["picard", "--config", str(path)])
    assert rc == 0
    out = tmp_path / "out"
    iterations = (out / "picard_iterations.csv").read_text()
    assert iterations.startswith("# schema: mildsde-picard-v1")
    header = iterations.splitlines()[1].split(",")
    assert header == ["n", "e_n", "stderr", "predicted_bound", "ratio", "ratio_allowed"]
    assert (out / "picard_moments.csv").exists()
    assert (out / "picard_paths.csv").exists()
    summary = (out / "summary.txt").read_text()
    assert "schema = mildsde-summary-v1" in summary
    assert "passed = True" in summary


def test_picard_noise_free_iteration_settles(tmp_path):
    # no noise channels: the distance after the first iterate is exactly zero
    path, _ = write_config(
        tmp_path, paths=1, n_max=2, model_params={"jump_rate": 0.0, "mark_std": 0.0}
    )
    config = RunConfig.from_file(str(path))
    summary = run_picard_campaign(config)
    assert summary.stats["e_final"] == 0.0


def test_picard_ratio_is_nan_where_the_previous_distance_is_zero(tmp_path):
    # without jumps reaction_diffusion has no noise, so every iterate from
    # the first on is the same path: e_1 = 0 and the ratio e_2 / e_1 is
    # undefined. It is written as nan, like the ratio at n = 0, and the run
    # still passes
    path, _ = write_config(
        tmp_path, dim=4, dt=0.05, paths=4, seed=0, n_max=3, model_params={"jump_rate": 0.0}
    )
    assert main(["picard", "--config", str(path)]) == 0
    rows = (tmp_path / "out" / "picard_iterations.csv").read_text().splitlines()[2:]
    assert [row.split(",")[4] for row in rows] == ["nan", "0.0", "nan"]
    assert rows[2] == "2,0.0,0.0,0.0,nan,0.0"


def test_picard_rate_checks_fail_on_non_finite_distances(tmp_path, monkeypatch):
    # the solver stops a state that overflows (see the test below), so the
    # seed distance of a finite solve is set to inf on its way to the checks
    solve = cli.picard_solve_batch

    def overflowing(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.distances[0] = math.inf
        return res

    monkeypatch.setattr(cli, "picard_solve_batch", overflowing)
    path, _ = write_config(tmp_path, dim=4, dt=0.01, paths=4, seed=0)
    # the reductions over the distances raise no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = run_picard_campaign(RunConfig.from_file(str(path)))
    assert summary.stats["c0"] == math.inf
    assert not summary.checks["rate_ratio"]
    assert not summary.checks["monotone_decay"]


@pytest.mark.parametrize("case", [dict(dim=4, dt=0.01, paths=4, seed=0), {}])
def test_picard_exits_4_on_a_state_that_overflows(tmp_path, capfd, case):
    # marks so wide that a path's norm overflows: a solver failure that
    # names the iterate, t and the path row on one line, with no numpy
    # warning and no stalled inner iteration reported. C1, which grows with
    # rate * mark_std^2, stays finite, as the run would fail on C1 first.
    path, _ = write_config(tmp_path, model_params={"jump_rate": 3.0, "mark_std": 1e150},
                           **case)
    assert main(["picard", "--config", str(path)]) == 4
    err = capfd.readouterr().err
    assert re.fullmatch(
        r"solver failure: reaction_diffusion: iterate \d+(: non-finite state| exceeded "
        r"the a-priori bound) at t=\S+, path row \d+\b.*\n",
        err,
    )


def test_picard_byte_determinism_same_seed(tmp_path):
    p1, _ = write_config(tmp_path, name="a.json", out_dir=str(tmp_path / "o1"))
    p2, _ = write_config(tmp_path, name="b.json", out_dir=str(tmp_path / "o2"))
    assert main(["picard", "--config", str(p1)]) == 0
    assert main(["picard", "--config", str(p2)]) == 0
    for fname in ("picard_iterations.csv", "picard_moments.csv", "picard_paths.csv"):
        b1 = (tmp_path / "o1" / fname).read_bytes()
        b2 = (tmp_path / "o2" / fname).read_bytes()
        assert b1 == b2


def test_ito_check_no_noise_zero_violations(tmp_path):
    path, _ = write_config(
        tmp_path, paths=32, model_params={"jump_rate": 0.0, "mark_std": 0.0}
    )
    config = RunConfig.from_file(str(path))
    summary = run_ito_check(config)
    assert summary.passed
    assert summary.stats["violation_rate"] == 0.0
    slack_csv = (tmp_path / "out" / "ito_slack.csv").read_text()
    assert slack_csv.startswith("# schema: mildsde-ito-v1")


def test_ito_check_detects_forced_failure(tmp_path):
    # a vanishing tolerance turns ordinary quadrature noise into violations
    path, _ = write_config(
        tmp_path, example="hyperbolic", dim=4, paths=32, ito_tol_coeff=1e-12,
        model_params={"jump_rate": 1.0, "mark_std": 0.3},
    )
    rc = main(["ito-check", "--config", str(path)])
    assert rc == 2


def test_ito_check_counts_a_nan_slack_as_a_violation(tmp_path):
    # marks so wide that the energy terms overflow: the slack is NaN, which
    # must fail the check rather than pass it
    path, _ = write_config(
        tmp_path, example="delay", dim=4, dt=0.01, paths=8,
        model_params={"mark_std": 1e160},
    )
    assert main(["ito-check", "--config", str(path)]) == 2
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "passed = False" in summary
    assert "stat.min_slack = nan" in summary


def run_recording_warnings(capfd, argv):
    """(exit code, stderr, warnings raised) of one CLI run. pytest records
    the warnings a test raises instead of printing them, so they are caught
    here, where they would otherwise reach stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, capfd.readouterr().err, [str(w.message) for w in caught]


@pytest.mark.parametrize(
    "command, case",
    [
        # an initial state at the float ceiling overflows in the first steps
        ("simulate", dict(example="hyperbolic", model_params={"x0_amplitude": 1e308})),
        # marks so wide that a path's state overflows
        ("benchmark", dict(example="linear_scalar", paths=64, model_params={"mark_std": 1e200})),
    ],
)
def test_euler_route_exits_4_on_a_state_that_overflows(tmp_path, capfd, command, case):
    # a solver failure that names the first non-finite step's t and the
    # path row on one line, with no numpy warning
    path, cfg = write_config(tmp_path, **{"dim": 4, "dt": 0.01, "paths": 8, "seed": 0, **case})
    rc, err, caught = run_recording_warnings(capfd, [command, "--config", str(path)])
    assert rc == 4
    assert re.fullmatch(
        rf"solver failure: {cfg['example']}: non-finite state at t=\S+, path row \d+\n", err
    )
    assert caught == []


def test_simulate_exits_4_on_a_norm_that_overflows(tmp_path, capfd):
    # marks so wide that a terminal state's norm overflows while the states
    # stay finite: the summary would read terminal_norm_max = inf
    path, _ = write_config(tmp_path, dim=4, dt=0.01, paths=8, seed=0,
                           model_params={"mark_std": 1e200})
    rc, err, caught = run_recording_warnings(capfd, ["simulate", "--config", str(path)])
    assert rc == 4
    assert re.fullmatch(
        r"solver failure: reaction_diffusion: the norm of the terminal state overflows "
        r"at t=1, path row \d+\n",
        err,
    )
    assert caught == []


@pytest.mark.parametrize(
    "command, case",
    [
        ("picard", {}),
        ("ito-check", {}),
        ("simulate", {}),
        # no jump term in the constants, so only the count is out of range
        ("benchmark", dict(example="linear_scalar", model_params={
            "jump_rate": 1e20, "mark_std": 0.0, "dt_exponents": [2, 3]})),
    ],
)
def test_a_jump_count_numpy_cannot_draw_exits_4_with_one_line(tmp_path, capfd, command, case):
    # rate * horizon above numpy's largest Poisson mean (about 9.2e18) made
    # each chunk's draw raise "lam value too large"; the model is rejected
    # before any draw
    path, cfg = write_config(tmp_path, **{
        "dim": 4, "dt": 0.05, "paths": 4, "model_params": {"jump_rate": 1e20}, **case})
    rc, err, caught = run_recording_warnings(capfd, [command, "--config", str(path)])
    assert rc == 4
    assert err == (
        f"solver failure: {cfg['example']}: mean jump count per path (rate * horizon) "
        "1e+20 exceeds 9.22337e+18, the largest Poisson mean numpy draws\n"
    )
    assert caught == []


def test_hypothesis_check_takes_a_jump_count_numpy_cannot_draw(tmp_path, capfd):
    # it draws no noise, so the count's range is no contract it checks
    path, _ = write_config(tmp_path, dim=4, dt=0.05, paths=4, model_params={"jump_rate": 1e20})
    rc, err, caught = run_recording_warnings(capfd, ["hypothesis-check", "--config", str(path)])
    assert (rc, err, caught) == (0, "", [])


@pytest.mark.parametrize(
    "case, message",
    [
        # the solve passes, but (C1 T)^n overflows from n = 2 on
        (dict(dt=1e-3, n_max=4, model_params={"eta": 100.0}),
         "the predicted bound C0 (C1 T)^n / n! for C1 = 1.78574e+174 overflows"),
        # the solve passes, but exp(4 M T) overflows over a long horizon
        (dict(dt=0.02, horizon=10.0, n_max=2, model_params={"eta": 20.0}),
         "the rate constant C1 = 2 C (1 + 2 B^2) exp(4 M T) overflows"),
        # exp(4 M T) is finite, but C1 is not
        (dict(dt=0.02, horizon=8.86, n_max=2, model_params={"eta": 20.0}),
         "the rate constant C1 = 2 C (1 + 2 B^2) exp(4 M T) overflows"),
    ],
)
def test_picard_exits_4_on_a_theory_constant_that_overflows(tmp_path, capfd, case, message):
    # a solver failure on one line that names the quantity, with no numpy
    # warning
    path, _ = write_config(tmp_path, **{"dim": 4, "paths": 4, **case})
    rc, err, caught = run_recording_warnings(capfd, ["picard", "--config", str(path)])
    assert (rc, err, caught) == (4, f"solver failure: reaction_diffusion: {message}\n", [])


@pytest.mark.parametrize(
    "case, message",
    [
        # M dt >= 1: the step equation may have no unique root
        (dict(dt=0.02, model_params={"eta": 50.0}),
         "the implicit step needs M dt < 1 (M = 50, dt = 0.02)"),
        (dict(dt=0.01, model_params={"eta": 1e5}),
         "the implicit step needs M dt < 1 (M = 100000, dt = 0.01)"),
        # exp(4 M T) overflows, in a run that would also fail in the solve on
        # a state that overflows
        (dict(dt=0.02, horizon=10.0, model_params={"eta": 20.0, "mark_std": 1e160}),
         "the rate constant C1 = 2 C (1 + 2 B^2) exp(4 M T) overflows"),
    ],
)
def test_picard_fails_on_its_constants_before_any_chunk_is_solved(
    tmp_path, capfd, monkeypatch, case, message
):
    # M dt and C1 depend only on the model's constants, dt and T
    monkeypatch.setattr(cli, "draw_noise", lambda *args, **kwargs: pytest.fail("solved"))
    path, _ = write_config(tmp_path, **{"dim": 4, "paths": 4, **case})
    rc, err, caught = run_recording_warnings(capfd, ["picard", "--config", str(path)])
    assert (rc, err, caught) == (4, f"solver failure: reaction_diffusion: {message}\n", [])


def test_picard_moment_check_stays_finite_on_huge_states(tmp_path, capfd):
    # E sup ||X^n||^2 near 1e82 with standard errors whose squares overflow:
    # the check's margin is finite and no numpy warning reaches stderr
    path, _ = write_config(tmp_path, dim=4, paths=4, seed=0, dt=0.02, horizon=6.0, n_max=2,
                           model_params={"eta": 20.0})
    rc, err, caught = run_recording_warnings(capfd, ["picard", "--config", str(path)])
    assert (rc, err, caught) == (0, "", [])
    lines = (tmp_path / "out" / "picard_moments.csv").read_text().splitlines()[2:]
    values = [float(v) for line in lines for v in line.split(",")[:-1]]
    assert len(lines) == 2 and max(values) > 1e80 and all(map(math.isfinite, values))


@pytest.mark.parametrize(
    "case",
    [
        # the configuration of the NaN-slack test above, whose state overflows
        dict(example="delay", model_params={"mark_std": 1e160}),
        dict(example="hyperbolic", seed=0, model_params={"x0_amplitude": 1e308}),
    ],
)
def test_ito_check_fails_an_overflow_without_a_warning(tmp_path, capfd, case):
    # the energy check counts a state or norm that overflows as a violation
    # (exit 2), and nothing reaches stderr
    path, _ = write_config(tmp_path, **{"dim": 4, "dt": 0.01, "paths": 8, **case})
    rc, err, caught = run_recording_warnings(capfd, ["ito-check", "--config", str(path)])
    assert (rc, err, caught) == (2, "", [])


@pytest.mark.parametrize("example", ["reaction_diffusion", "hyperbolic"])
def test_hypothesis_check_fails_a_constant_that_overflows(tmp_path, capfd, example):
    # marks so wide that the declared and the sampled jump constants are
    # both inf: inf <= inf must not pass a row (exit 2), and nothing
    # reaches stderr
    path, _ = write_config(tmp_path, example=example, dim=4, dt=0.01, paths=4,
                           model_params={"mark_std": 1e160})
    rc, err, caught = run_recording_warnings(capfd, ["hypothesis-check", "--config", str(path)])
    assert (rc, err, caught) == (2, "", [])
    assert "passed = False" in (tmp_path / "out" / "summary.txt").read_text()
    rows = (tmp_path / "out" / "hypothesis_checks.csv").read_text()
    assert "jump_lipschitz,inf,inf,False" in rows


@pytest.mark.parametrize("refine", [True, False])
def test_ito_check_reports_the_refinement_check_only_when_run(tmp_path, refine):
    path, _ = write_config(
        tmp_path, example="delay", dim=6, dt=0.01, paths=16, refine_check=refine
    )
    summary = run_ito_check(RunConfig.from_file(str(path)))
    text = (tmp_path / "out" / "summary.txt").read_text()
    assert ("check.refinement_non_increasing = " in text) == refine
    assert ("stat.violation_rate_half_dt = " in text) == refine
    assert "check.violation_rate = " in text and "stat.violation_rate = " in text
    assert summary.passed == all(summary.checks.values())


def config_from_summary(text):
    """The config a summary.txt restates, read back from its config lines."""
    literals = {"True": True, "False": False, "None": None}
    data = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        if not key.startswith("config."):
            continue
        if value in literals:
            data[key[len("config."):]] = literals[value]
            continue
        try:
            data[key[len("config."):]] = json.loads(value)
        except json.JSONDecodeError:
            data[key[len("config."):]] = value  # a bare string
    return RunConfig.from_dict(data)


def test_benchmark_rerun_from_its_summary_writes_the_same_csv(tmp_path):
    path, _ = write_config(
        tmp_path, example="linear_scalar", paths=8, model_params={"dt_exponents": [6, 7]},
    )
    run_benchmark_oracle(RunConfig.from_file(str(path)))
    first = tmp_path / "out"
    text = (first / "summary.txt").read_text()
    again = config_from_summary(text)
    again.out_dir = str(tmp_path / "again")
    run_benchmark_oracle(again)
    csv = (first / "benchmark.csv").read_bytes()
    assert csv == (tmp_path / "again" / "benchmark.csv").read_bytes()
    assert csv.count(b"\n") == 4  # schema, header and the two grids
    assert 'config.model_params = {"dt_exponents": [6, 7]}' in text.splitlines()


def test_benchmark_ode_limit_first_order(tmp_path):
    path, _ = write_config(
        tmp_path, example="linear_scalar", paths=16,
        model_params={"a": -1.0, "sigma": 0.0, "jump_rate": 0.0,
                      "dt_exponents": [6, 8, 10]},
    )
    config = RunConfig.from_file(str(path))
    summary = run_benchmark_oracle(config)
    assert summary.passed
    # no noise: plain exponential Euler converges at first order
    assert summary.stats["fitted_order"] >= 0.9


def test_benchmark_of_an_exact_model_fits_no_order(tmp_path, capfd):
    # a = sigma = 0 without jumps: the scheme is exact, every rms error is 0,
    # so no order is fitted, checked or reported
    path, _ = write_config(
        tmp_path, example="linear_scalar", paths=16,
        model_params={"a": 0.0, "sigma": 0.0, "jump_rate": 0.0},
    )
    rc, err, caught = run_recording_warnings(capfd, ["benchmark", "--config", str(path)])
    assert (rc, err, caught) == (0, "", [])
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert "check.absolute_error = True" in summary
    assert "stat.rms_dt_2e-10 = 0.0" in summary
    assert not [line for line in summary if "order" in line]
    rows = (tmp_path / "out" / "benchmark.csv").read_text().splitlines()[2:]
    assert [row.split(",")[2] for row in rows] == ["0.0"] * 7


def test_benchmark_with_noise_and_jumps(tmp_path):
    path, _ = write_config(
        tmp_path, example="linear_scalar", paths=128,
        model_params={"a": -1.0, "sigma": 0.5, "jump_rate": 2.0, "mark_std": 0.2,
                      "dt_exponents": [6, 8, 10]},
    )
    config = RunConfig.from_file(str(path))
    summary = run_benchmark_oracle(config)
    assert summary.passed
    assert summary.stats["fitted_order"] >= 0.45


def test_benchmark_stat_names_the_checked_grid(tmp_path):
    # without 10 in dt_exponents the finest listed grid is checked and named
    path, _ = write_config(
        tmp_path, example="linear_scalar", paths=16, model_params={"dt_exponents": [8, 6]},
    )
    summary = run_benchmark_oracle(RunConfig.from_file(str(path)))
    assert set(summary.stats) == {"fitted_order", "fitted_order_se", "rms_dt_2e-8"}
    rows = (tmp_path / "out" / "benchmark.csv").read_text().splitlines()[2:]
    rms = {int(row.split(",")[0]): float(row.split(",")[2]) for row in rows}
    assert summary.stats["rms_dt_2e-8"] == rms[8]
    assert summary.checks["absolute_error"] == (rms[8] < 1e-2)


def test_fitted_order_se_by_hand():
    # x = -6, -7, -8: mean -7, sum (x - mean)^2 = 2, so c = (0.5, 0, -0.5);
    # se(log2 rms_k) = se_k / (2 mean_k ln 2) = (0.05, 0.1, 0.1) / ln 2
    se = _fitted_order_se([-6.0, -7.0, -8.0], [4.0, 1.0, 0.25], [0.4, 0.2, 0.05])
    by_hand = math.sqrt(0.25 * 0.05**2 + 0.25 * 0.1**2) / math.log(2.0)
    assert se == pytest.approx(by_hand, rel=1e-14)


NO_SCIPY_PROBE = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from mildsde.cli import main

base = {"dt": 0.02, "horizon": 1.0, "paths": 3, "chunk_size": 2, "seed": 1}
delay = dict(base, example="delay", dim=4, model_params={"jump_rate": 2.0})
runs = [
    ("picard", dict(base, example="reaction_diffusion", dim=4, n_max=2)),
    ("picard", dict(delay, n_max=2)),
    ("ito-check", delay),
    ("benchmark", dict(base, example="linear_scalar", model_params={
        "a": -1.0, "sigma": 0.0, "jump_rate": 0.0, "dt_exponents": [4, 5]})),
    ("hypothesis-check", dict(delay, paths=1)),
    ("simulate", dict(base, example="hyperbolic", dim=3)),
]
codes = []
for i, (command, config) in enumerate(runs):
    path = f"{sys.argv[1]}/{i}.json"
    with open(path, "w") as fh:
        json.dump(dict(config, out_dir=f"{sys.argv[1]}/{i}"), fh)
    codes.append(main([command, "--config", path]))
loaded = sorted(name for name, mod in sys.modules.items()
                if name.split(".")[0] == "scipy" and mod is not None)
print(json.dumps([codes, loaded]))
"""


def test_no_campaign_imports_scipy(tmp_path):
    # a fresh interpreter: the test process may already hold scipy
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0] * 6, []]


def test_hypothesis_check_command(tmp_path):
    path, _ = write_config(tmp_path, example="hyperbolic", dim=6)
    assert main(["hypothesis-check", "--config", str(path)]) == 0
    text = (tmp_path / "out" / "hypothesis_checks.csv").read_text()
    assert "semimonotone" in text


def test_simulate_dumps_paths(tmp_path):
    path, _ = write_config(tmp_path, paths=3, dump_paths=2)
    assert main(["simulate", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "simulate_paths.csv").read_text().splitlines()
    assert lines[1].split(",")[:2] == ["path", "t"]
    # 2 dumped paths x 501 grid points
    assert len(lines) == 2 + 2 * 501


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_scalar_example_reports_dim_1(tmp_path, command):
    # linear_scalar's builder takes no dimension, so the run is scalar
    # whatever config.dim says, and the summary reports the dim it ran at
    path, _ = write_config(
        tmp_path, example="linear_scalar", dim=16, paths=4,
        model_params={"dt_exponents": [4, 5]} if command == "benchmark" else {},
    )
    main([command, "--config", str(path)])
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert "config.dim = 1" in summary
    if command == "simulate":
        header = (tmp_path / "out" / "simulate_paths.csv").read_text().splitlines()[1]
        assert header == "path,t,x0"


def test_cli_overrides(tmp_path):
    path, _ = write_config(tmp_path, paths=4)
    rc = main([
        "simulate", "--config", str(path), "--seed", "77",
        "--out", str(tmp_path / "o2"),
    ])
    assert rc == 0
    summary = (tmp_path / "o2" / "summary.txt").read_text()
    assert "config.seed = 77" in summary


def test_exit_code_solver_divergence(tmp_path):
    # jump feedback strong enough to defeat the contraction: exit code 4
    path, _ = write_config(
        tmp_path, dim=4, paths=8, n_max=10, dt=1e-2,
        model_params={"jump_rate": 20.0, "mark_std": 8.0},
    )
    assert main(["picard", "--config", str(path)]) == 4
