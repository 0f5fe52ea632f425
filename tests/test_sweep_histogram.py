"""scripts/sweep_histogram.py on tiny picard configs, in this process."""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

from mildsde import coefficients, models

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sweep_histogram.py"
spec = importlib.util.spec_from_file_location("sweep_histogram", SCRIPT)
sweep_histogram = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sweep_histogram)


def run(tmp_path, capsys, example, seed=3):
    """The four printed values of one run, by name."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "example": example, "dim": 4, "dt": 0.02, "horizon": 1.0, "paths": 12,
        "chunk_size": 8, "n_max": 3, "out_dir": str(tmp_path / "out"),
        "model_params": {"jump_rate": 2.0, "mark_std": 0.5},
    }))
    assert sweep_histogram.main(["--config", str(path), "--seed", str(seed)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return {k: ast.literal_eval(v) for k, v in (line.split(" = ") for line in lines)}


@pytest.mark.parametrize("example", ["reaction_diffusion", "hyperbolic"])
def test_histograms_count_every_call_and_sweep(tmp_path, capsys, example):
    out = run(tmp_path, capsys, example)
    per_call, per_sweep = out["sweeps_per_call"], out["live_rows_per_sweep"]
    # one step call per time step (50) when no row falls back to bisection
    assert out["calls"] == sum(per_call.values()) == 50
    assert out["sweeps"] == sum(k * n for k, n in per_call.items()) == sum(per_sweep.values())
    assert out["row_sweeps"] == sum(k * n for k, n in per_sweep.items())
    # every call's first sweep runs on the 24 rows of the three iterates'
    # 8-path blocks; a later sweep, on the rows that sweep 1 left
    assert per_sweep[24] == out["calls"]
    assert set(per_sweep) <= set(range(1, 25))
    # the builders' solver is restored
    assert models.nemitsky_implicit_solver is coefficients.nemitsky_implicit_solver


def test_a_model_without_a_nemitsky_step_counts_nothing(tmp_path, capsys):
    out = run(tmp_path, capsys, "delay")
    assert out == {"calls": 0, "sweeps": 0, "row_sweeps": 0, "sweeps_per_call": {},
                   "live_rows_per_sweep": {}}
