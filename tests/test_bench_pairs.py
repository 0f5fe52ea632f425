"""The no-regression verdict and the traced-run summary of
scripts/bench_pairs.py on synthetic runs; no perfbench run is started."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# the parent's runs of a metric: median 1.0, interquartile range 0.01
PARENT = [0.98, 0.99, 1.0, 1.0, 1.0, 1.01, 1.02]


def runs(metric, parent, change):
    """Runs of both sides; every other metric reads 1.0 in every run."""

    def side(values):
        return [{**{m: 1.0 for m in bench_pairs.BETTER}, metric: v} for v in values]

    return {"parent": side(parent), "change": side(change)}


def test_every_end_to_end_metric_gets_a_verdict():
    assert set(bench_pairs.BETTER) == {
        "wall_s", "setup_s", "path_steps_per_s", "peak_rss_mb", "success_frac"
    }
    same = runs("wall_s", PARENT, PARENT)
    assert bench_pairs.verdict(same) == {m: "not worse" for m in bench_pairs.BETTER}


@pytest.mark.parametrize(
    "metric, change, expected",
    [
        # wall_s: lower is better, bound 0.25 of the parent's median
        ("wall_s", [v + 0.2 for v in PARENT], "not worse"),  # within the bound
        ("wall_s", [v + 0.3 for v in PARENT], "worse"),  # beyond it
        ("wall_s", [v - 0.5 for v in PARENT], "not worse"),  # better
        # path_steps_per_s: higher is better
        ("path_steps_per_s", [v - 0.3 for v in PARENT], "worse"),
        ("path_steps_per_s", [v + 0.3 for v in PARENT], "not worse"),
        # peak_rss_mb: bound 0.05, so a 6% rise is worse
        ("peak_rss_mb", [v + 0.06 for v in PARENT], "worse"),
        ("peak_rss_mb", [v + 0.04 for v in PARENT], "not worse"),
        # the change's runs spread wider than the bound allows
        ("wall_s", [0.6, 0.8, 1.0, 1.0, 1.2, 1.4, 1.6], "unresolved"),
        # as wide, but every change run beats every parent run
        ("wall_s", [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], "not worse"),
    ],
)
def test_verdict_against_the_bound(metric, change, expected):
    assert bench_pairs.verdict(runs(metric, PARENT, change))[metric] == expected


def test_a_wide_parent_is_unresolved():
    wide = [0.6, 0.8, 1.0, 1.0, 1.2, 1.4, 1.6]
    assert bench_pairs.verdict(runs("wall_s", wide, PARENT))["wall_s"] == "unresolved"


def test_pairs_failed_on_both_sides_are_listed():
    # pair 1 fails on both sides at its seed (as oracle-linear's strong_order
    # check does at seed 1329); pair 2 fails on the change alone
    parent = [{"seed": 1300 + i, "failed": f} for i, f in enumerate([0, 81, 0])]
    change = [{"seed": 1300 + i, "failed": f} for i, f in enumerate([0, 81, 3])]
    assert bench_pairs.both_failed({"parent": parent, "change": change}) == [
        {"pair": 1, "seed": 1301, "parent_failed": 81, "change_failed": 81}
    ]


def test_traced_runs_alternate_and_keep_medians():
    # each side's traced runs read 1, 2, 3 (parent) and 10, 20, 30 (change)
    # seconds of implicit step, in the order they are taken
    calls = []
    values = {"parent": [3.0, 1.0, 2.0], "change": [20.0, 10.0, 30.0]}

    def run(side):
        calls.append(side)
        value = values[side][calls.count(side) - 1]
        return {"correct": 4, "failed": 0, "attempted": 4,
                "metrics": {"coefficients.implicit_step_s": {"value": value, "unit": "s"}}}

    traced = bench_pairs.traced_runs(run)
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    for side, expected in (("parent", 2.0), ("change", 20.0)):
        assert traced[side]["coefficients.implicit_step_s"] == expected
        assert traced[side]["attempted"] == 4
        assert [r["coefficients.implicit_step_s"] for r in traced[side]["runs"]] == values[side]
