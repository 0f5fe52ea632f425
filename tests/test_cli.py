import json

import pytest

from mildsde.cli import (
    ConfigError,
    RunConfig,
    main,
    model_from_config,
    run_benchmark_oracle,
    run_ito_check,
    run_picard_campaign,
)


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
    "refine_check_str": ("picard", {"refine_check": "no"}),
    "out_dir_int": ("picard", {"out_dir": 5}),
    "model_params_int": ("picard", {"model_params": 3}),
    "ito_tol_coeff_negative": ("picard", {"ito_tol_coeff": -1}),
    "threads_removed": ("picard", {"threads": 2}),
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
    assert set(summary.stats) == {"fitted_order", "rms_dt_2e-8"}
    rows = (tmp_path / "out" / "benchmark.csv").read_text().splitlines()[2:]
    rms = {int(row.split(",")[0]): float(row.split(",")[2]) for row in rows}
    assert summary.stats["rms_dt_2e-8"] == rms[8]
    assert summary.checks["absolute_error"] == (rms[8] < 1e-2)


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
