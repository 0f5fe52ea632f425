"""scripts/rss_phases.py on tiny campaigns, in this process."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from mildsde import cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "rss_phases.py"
spec = importlib.util.spec_from_file_location("rss_phases", SCRIPT)
rss_phases = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rss_phases)

pytestmark = pytest.mark.skipif(not rss_phases.STATUS.is_file(),
                                reason="no /proc/self/status to read")


def run(tmp_path, capsys, command, config):
    """The phase names, their readings and the campaign's exit code."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, out_dir=str(tmp_path / "unused"))))
    assert rss_phases.main(["--config", str(path), "--command", command, "--seed", "4"]) == 0
    header, *lines, last = capsys.readouterr().out.splitlines()
    assert header.split() == ["phase", *rss_phases.FIELDS]
    assert last.startswith("campaign_exit = ")
    names = [line.split()[0] for line in lines]
    readings = np.array([[float(v) for v in line.split()[1:]] for line in lines])
    return names, readings, int(last.split(" = ")[1])


@pytest.mark.parametrize("command, phases", [
    ("ito-check", ["import", "validated", "shares_start", "shares_end", "quantile_start",
                   "quantile_end", "exit"]),
    ("simulate", ["import", "validated", "shares_start", "shares_end", "exit"]),
])
def test_phases_in_order_with_five_readings(tmp_path, capsys, command, phases):
    config = {"example": "delay", "dim": 6, "dt": 0.01, "paths": 8, "chunk_size": 4,
              "model_params": {"jump_rate": 2.0, "mark_std": 0.5}}
    originals = cli.model_from_config, cli._run_tasks, np.quantile
    names, readings, code = run(tmp_path, capsys, command, config)
    assert names == phases and code in (0, 2)
    assert readings.shape == (len(phases), 5) and (readings[:, :4] > 0).all()
    hwm, rss, anon, file, shmem = readings.T
    assert (hwm >= rss).all()
    assert np.allclose(rss, anon + file + shmem, atol=0.01)
    # nothing is written next to the config, and the wrapped names are restored
    assert not (tmp_path / "unused").exists()
    assert (cli.model_from_config, cli._run_tasks, np.quantile) == originals
