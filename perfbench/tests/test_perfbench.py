"""Checks of the campaign benchmark itself. From the root of a source
checkout:

    python3 -m pytest perfbench/tests

About two minutes on two cores: every campaign is a real CLI run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

WORKLOADS = sorted(run.SPEC["workloads"])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("campaigns")


@pytest.fixture(scope="module")
def traced_pair(work):
    return [run.run_campaign("oracle-linear", 3, work, traced=True, timeout=170) for _ in range(2)]


def test_counters_repeat_exactly(traced_pair):
    first, second = traced_pair
    assert first.ok and second.ok, first.problems + second.problems
    assert first.record["counts"]
    assert set(first.record["counts"]) <= set(run.COUNTERS)
    assert first.record["counts"] == second.record["counts"]


def test_self_times_add_up_to_traced_wall(traced_pair):
    for campaign in traced_pair:
        self_s = campaign.record["self_s"]
        assert set(self_s) <= set(run.SPANS)
        assert all(v >= 0.0 for v in self_s.values())
        assert sum(self_s.values()) == pytest.approx(campaign.record["main_s"], abs=1e-3)


def test_traced_outputs_are_byte_identical(traced_pair, work):
    plain = run.run_campaign("oracle-linear", 3, work, traced=False, timeout=170)
    assert plain.ok, plain.problems
    assert plain.digest == traced_pair[0].digest == traced_pair[1].digest


@pytest.mark.parametrize("seed", [1, 2, 7])
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_passes_diagnostics(work, name, seed):
    campaign = run.run_campaign(name, seed, work, traced=False, timeout=170)
    assert campaign.ok, campaign.problems
    assert campaign.summary["passed"] == "True"


@pytest.mark.parametrize("name", WORKLOADS)
def test_implicit_step_only_on_picard(work, name):
    campaign = run.run_campaign(name, 7, work, traced=True, timeout=170)
    assert campaign.ok, campaign.problems
    self_s, counts = campaign.record["self_s"], campaign.record["counts"]
    rows = counts.get("coefficients.implicit_step_rows", 0)
    if run.SPEC["workloads"][name]["command"] == "picard":
        assert max(self_s, key=self_s.get) == "coefficients.implicit_step"
        assert rows > 0
    else:
        assert rows == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", "oracle-linear", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = bench["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if trace:
        assert result["metrics"]["cli.outputs_match_reference"]["value"] == 1
