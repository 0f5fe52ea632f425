#!/usr/bin/env python3
"""Alternating parent/change pairs of Tier-1 test runs, written as JSON.

    python3 scripts/tier1_pairs.py --parent REV --out BENCH_<n>_tier1.json \\
        [--change REV] [--pairs 3] [--about TEXT]

Run from anywhere inside a git checkout of mildsde. The parent revision (and
``--change`` when given; otherwise this checkout as it is on disk) is
exported with ``bench_pairs.export`` into a temporary directory. Pair i runs
the Tier-1 command (:data:`COMMAND`, with ``--junitxml``) once in each tree,
the parent first in even pairs and the change first in odd ones. Each run
records its wall time and its counts of passed, failed and skipped tests
(an error counts as a failure), read from its JUnit file (see
:func:`read_junit`). The tests tracked are the parent's five slowest, by
their median duration over the parent's runs, and every run records their
durations (None where a run lacks one). The summary gives, for the wall
time and each tracked test's duration, each side's median and quartiles,
the change/parent ratio and whether the change reads lower, higher or
unresolved (see :func:`compare`).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))

from bench_pairs import export, quartiles  # noqa: E402

COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
TRACKED = 5


def read_junit(path) -> dict:
    """Counts of passed, failed (failures and errors) and skipped tests of a
    JUnit file, and each test's duration in seconds under its id
    ``classname::name``, as the suite prints it."""
    counts = {"passed": 0, "failed": 0, "skipped": 0}
    durations = {}
    for case in ET.parse(path).getroot().iter("testcase"):
        tags = {child.tag for child in case}
        if tags & {"failure", "error"}:
            counts["failed"] += 1
        elif "skipped" in tags:
            counts["skipped"] += 1
        else:
            counts["passed"] += 1
        durations[f"{case.get('classname')}::{case.get('name')}"] = float(case.get("time", 0.0))
    return {**counts, "durations": durations}


def run_tier1(tree: Path, junit: Path) -> dict:
    """Wall time, counts and durations of one Tier-1 run in tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p)}
    start = time.perf_counter()
    subprocess.run([*COMMAND, f"--junitxml={junit}"], cwd=tree, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    return {"wall_s": wall, **read_junit(junit)}


def compare(parent: list, change: list) -> dict:
    """Each side's median and quartiles (inclusive method) of one quantity
    over its runs, the change/parent ratio of the medians, and whether the
    change reads ``lower`` or ``higher``. It reads ``unresolved`` when
    either side's interquartile range is at least the difference of the
    medians, since the runs then spread too widely to tell, unless every
    change run lies on one side of every parent run: the rule of
    ``bench_pairs.verdict`` with no bound. All read None when a side has
    no value."""
    if not parent or not change:
        return {"parent_median": None, "change_median": None, "parent_quartiles": None,
                "change_quartiles": None, "change_over_parent": None, "change_reads": None}
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q_p, q_c = quartiles(parent), quartiles(change)
    spread = max(q3 - q1 for q1, q3 in (q_p, q_c))
    if all(c < p for c in change for p in parent) or all(c > p for c in change for p in parent):
        reads = "lower" if med_c < med_p else "higher"
    elif spread >= abs(med_c - med_p):
        reads = "unresolved"
    else:
        reads = "lower" if med_c < med_p else "higher"
    return {"parent_median": med_p, "change_median": med_c, "parent_quartiles": q_p,
            "change_quartiles": q_c, "change_over_parent": med_c / med_p if med_p else None,
            "change_reads": reads}


def summarize(runs: dict) -> dict:
    """:func:`compare` of the wall time and, under ``tests``, of the
    durations of the parent's TRACKED slowest tests (by median over the
    parent's runs), over the runs that have them."""

    def values(side, of):
        return [v for v in map(of, runs[side]) if v is not None]

    def compared(of):
        return compare(values("parent", of), values("change", of))

    parent = runs["parent"]
    ids = {t for r in parent for t in r["durations"]}
    median = {t: statistics.median(r["durations"].get(t, 0.0) for r in parent) for t in ids}
    slowest = sorted(ids, key=lambda t: (-median[t], t))[:TRACKED]
    return {
        "wall_s": compared(lambda r: r["wall_s"]),
        "tests": {t: compared(lambda r, t=t: r["durations"].get(t)) for t in slowest},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", help="git revision of the change (default: this checkout)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--about", default="")
    args = parser.parse_args(argv)
    import numpy

    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="tier1-pairs-") as tmp:
        trees = {"parent": export(args.parent, Path(tmp))}
        trees["change"] = export(args.change, Path(tmp)) if args.change else REPO
        for i in range(args.pairs):
            first = "parent" if i % 2 == 0 else "change"
            for side in (first, "change" if first == "parent" else "parent"):
                run = run_tier1(trees[side], Path(tmp, f"{side}-{i}.xml"))
                runs[side].append({"pair": i, "first": first, **run})
                print(f"pair {i} {side}: {run['wall_s']:.1f} s, {run['passed']} passed, "
                      f"{run['failed']} failed", file=sys.stderr)
    summary = summarize(runs)
    for side_runs in runs.values():  # each run keeps the tracked tests' durations
        for r in side_runs:
            r["durations"] = {t: r["durations"].get(t) for t in summary["tests"]}
    result = {
        "about": args.about,
        "command": ["PYTHONPATH=src", "python", *COMMAND[1:], "--junitxml=FILE"],
        "context": {"nproc": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
                    "python": sys.version.split()[0], "numpy": numpy.__version__},
        "parent": args.parent, "change": args.change or "working tree",
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
