"""The JUnit reading and the summary of scripts/tier1_pairs.py on synthetic
files; no test suite is run."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "tier1_pairs.py"
spec = importlib.util.spec_from_file_location("tier1_pairs", SCRIPT)
tier1_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tier1_pairs)

JUNIT = """<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest" errors="1" failures="1" skipped="1" tests="5">
<testcase classname="tests.test_a" name="test_slow" time="8.5" />
<testcase classname="tests.test_a" name="test_fails[1]" time="0.5"><failure message="x" /></testcase>
<testcase classname="tests.test_b" name="test_errs" time="0.25"><error message="y" /></testcase>
<testcase classname="tests.test_b" name="test_skipped" time="0.0"><skipped message="z" /></testcase>
<testcase classname="tests.test_b" name="test_quick" time="0.125" />
</testsuite></testsuites>
"""


def test_read_junit_counts_and_durations(tmp_path):
    path = tmp_path / "run.xml"
    path.write_text(JUNIT)
    assert tier1_pairs.read_junit(path) == {
        "passed": 2, "failed": 2, "skipped": 1,
        "durations": {
            "tests.test_a::test_slow": 8.5, "tests.test_a::test_fails[1]": 0.5,
            "tests.test_b::test_errs": 0.25, "tests.test_b::test_skipped": 0.0,
            "tests.test_b::test_quick": 0.125,
        },
    }


def run(wall, **durations):
    return {"wall_s": wall, "passed": 3, "failed": 0, "skipped": 0, "durations": durations}


def test_summary_tracks_the_parents_slowest_tests_by_median():
    # by the parent's medians a (8) > b (3) > c (2) > d (1.5) > f (1) > g
    # (0.5), so g is left out; the change's runs lack d and add e, which
    # the parent never ran
    assert tier1_pairs.TRACKED == 5
    runs = {
        "parent": [run(40.0, a=8.0, b=1.0, c=2.0, d=1.5, f=1.0, g=0.5),
                   run(44.0, a=9.0, b=3.0, c=2.0, d=1.5, f=1.0, g=0.5),
                   run(52.0, a=7.0, b=5.0, c=2.0, d=1.5, f=1.0, g=0.5)],
        "change": [run(38.0, a=3.0, b=1.0, c=2.0, e=50.0, f=1.0, g=0.5),
                   run(39.0, a=4.0, b=1.0, c=2.0, e=50.0, f=1.0, g=0.5),
                   run(46.0, a=5.0, b=1.0, c=2.0, e=50.0, f=1.0, g=0.5)],
    }
    out = tier1_pairs.summarize(runs)
    assert list(out["tests"]) == ["a", "b", "c", "d", "f"]
    # every change run beats every parent run
    assert out["tests"]["a"] == {
        "parent_median": 8.0, "change_median": 4.0, "parent_quartiles": (7.5, 8.5),
        "change_quartiles": (3.5, 4.5), "change_over_parent": 0.5, "change_reads": "lower",
    }
    # the parent's quartiles (42, 48) spread wider than 44 - 39
    assert out["wall_s"]["parent_quartiles"] == (42.0, 48.0)
    assert out["wall_s"]["change_over_parent"] == 39.0 / 44.0
    assert out["wall_s"]["change_reads"] == "unresolved"
    # equal runs spread by nothing, and so differ by nothing either
    assert out["tests"]["c"]["change_reads"] == "unresolved"
    assert out["tests"]["b"]["change_over_parent"] == 1.0 / 3.0
    # a tracked test that no run of a side has reads None there
    assert out["tests"]["d"]["change_median"] is None
    assert out["tests"]["d"]["change_reads"] is None


def test_a_difference_wider_than_both_spreads_is_resolved():
    # the medians are 10.75 and 6.75, 4.0 apart, and the change's 10.2 is
    # above the parent's 10.0; the parent's quartiles (10.375, 15.75)
    # spread 5.375, wider than that
    out = tier1_pairs.compare([10.0, 10.5, 11.0, 30.0], [6.0, 6.5, 7.0, 10.2])
    assert out["change_reads"] == "unresolved"
    # here they spread 0.875, and the change's (6.375, 7.8) 1.425
    out = tier1_pairs.compare([10.0, 10.5, 11.0, 12.0], [6.0, 6.5, 7.0, 10.2])
    assert out["parent_quartiles"] == (10.375, 11.25)
    assert out["change_reads"] == "lower"
