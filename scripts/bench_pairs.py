#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, written as a BENCH file.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        [--change REV] [--pairs 10] [--seconds 42] [--seed-base 1300] \\
        [--workload NAME ...] [--claim WORKLOAD:METRIC --threshold TEXT] \\
        [--traced-seconds 20] [--about TEXT]

Run from anywhere inside a git checkout of mildsde. The parent revision (and
``--change`` when given; otherwise this checkout as it is on disk) is
exported with ``git archive`` into a temporary directory, so the repository's
own work tree and metadata are left alone and nothing needs cleaning up if
the run is killed. For each workload, pair i runs ``perfbench/run.py
--workload W --seed S --seconds SEC --trace 0`` once in each tree on its own
seed S, the parent first in even pairs and the change first in odd ones.
With ``--traced-seconds``, three ``--trace 1 --seed 1`` runs per side and
workload follow, in the alternating order of :data:`TRACED_ORDER`; each
traced key is their median, and every run's values are kept under
``runs`` (see :func:`traced_runs`).

The output has the layout of ``BENCH_11.json``: every run's end-to-end
metrics, then per workload the medians, quartiles (inclusive method), the
parent's interquartile range, change/parent median ratios, the number of
pairs in which the change was strictly better, a no-regression verdict
per metric against the metric's ``bound`` in ``BENCHMARK.json`` (see
:func:`verdict`), and the pairs in which both sides failed campaigns (see
:func:`both_failed`; each run records its count of failed campaigns). The
claim, when given, is judged by the rule the benchmark gate uses: better in
at least nine of ten pairs and, in the median, by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
END_TO_END = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
BETTER = {m["name"]: m["better"] for m in END_TO_END}
BOUND = {m["name"]: m["bound"] for m in END_TO_END}


def export(rev: str, dest: Path) -> Path:
    """The tree of ``rev`` extracted under dest."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=REPO, check=True, capture_output=True
    ).stdout
    tree = dest / rev.replace("/", "_")
    tree.mkdir()
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(tree, filter="data")
    return tree


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """(context, result) of one perfbench/run.py run in tree."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True,
    ).stdout.strip().splitlines()
    return json.loads(out[-2])["context"], json.loads(out[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def is_better(metric, change, parent):
    return change < parent if BETTER[metric] == "lower" else change > parent


def summarize(runs: dict) -> dict:
    out = {"pairs": len(runs["parent"])}
    for side in ("parent", "change"):
        out[f"{side}_median"] = {m: statistics.median(r[m] for r in runs[side]) for m in BETTER}
        out[f"{side}_quartiles"] = {m: quartiles([r[m] for r in runs[side]]) for m in BETTER}
    out["parent_iqr"] = {m: q3 - q1 for m, (q1, q3) in out["parent_quartiles"].items()}
    out["change_over_parent"] = {
        m: out["change_median"][m] / out["parent_median"][m] if out["parent_median"][m] else None
        for m in BETTER
    }
    out["pairs_change_better"] = {
        m: sum(is_better(m, c[m], p[m]) for p, c in zip(runs["parent"], runs["change"]))
        for m in BETTER
    }
    return out


def verdict(runs: dict) -> dict:
    """Per end-to-end metric, whether the change is worse than the parent:
    ``worse`` when the change's median is worse than the parent's by more
    than the metric's bound times the parent's median, and ``not worse``
    when it is not. The verdict is ``unresolved`` when either side's
    interquartile range exceeds that amount, since the runs then spread too
    widely to tell, unless every change run beats every parent run."""
    out = {}
    for m in BETTER:
        parent = [r[m] for r in runs["parent"]]
        change = [r[m] for r in runs["change"]]
        allowed = BOUND[m] * abs(statistics.median(parent))
        worse_by = statistics.median(change) - statistics.median(parent)
        if BETTER[m] == "higher":
            worse_by = -worse_by
        spread = max(q3 - q1 for q1, q3 in (quartiles(parent), quartiles(change)))
        if all(is_better(m, c, p) for c in change for p in parent):
            out[m] = "not worse"
        elif spread > allowed:
            out[m] = "unresolved"
        else:
            out[m] = "worse" if worse_by > allowed else "not worse"
    return out


def both_failed(runs: dict) -> list:
    """The pairs in which both sides failed campaigns, with each side's count
    of failed campaigns. The two sides of a pair run one seed, so when a
    check fails on working code at that seed (as ``strong_order`` does on
    oracle-linear at seed 1329), it fails on both; such a pair is no fault
    of the change."""
    return [
        {"pair": i, "seed": p["seed"], "parent_failed": p["failed"],
         "change_failed": c["failed"]}
        for i, (p, c) in enumerate(zip(runs["parent"], runs["change"]))
        if p["failed"] and c["failed"]
    ]


# the sides of the traced runs, alternating so that a drift in the host's
# speed falls on both
TRACED_ORDER = ("parent", "change", "change", "parent", "parent", "change")


def traced_runs(run) -> dict:
    """Per side, the traced runs ``run(side)`` makes in the order of
    TRACED_ORDER: each key's median over the side's runs, and the runs'
    values under ``runs``. ``run`` returns a perfbench result."""
    runs = {"parent": [], "change": []}
    for side in TRACED_ORDER:
        res = run(side)
        runs[side].append({
            "correct": res["correct"], "failed": res["failed"], "attempted": res["attempted"],
            **{k: v["value"] for k, v in res["metrics"].items()},
        })
    return {
        side: {**{k: statistics.median(r[k] for r in values) for k in values[0]},
               "runs": values}
        for side, values in runs.items()
    }


def judge(summary: dict, metric: str) -> dict:
    gain = summary["parent_median"][metric] - summary["change_median"][metric]
    if BETTER[metric] == "higher":
        gain = -gain
    pairs, wins = summary["pairs"], summary["pairs_change_better"][metric]
    return {
        "pairs_better": wins,
        "median_gain": gain,
        "parent_iqr": summary["parent_iqr"][metric],
        "met": wins >= 0.9 * pairs and gain > summary["parent_iqr"][metric],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", help="git revision of the change (default: this checkout)")
    parser.add_argument("--out", required=True, help="BENCH JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--seed-base", type=int, default=1300)
    parser.add_argument("--workload", action="append", help="workload (default: all)")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--threshold", default="", help="the claim's threshold, in words")
    parser.add_argument("--traced-seconds", type=float, default=0.0)
    parser.add_argument("--about", default="")
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "perfbench" / "workloads.json").read_text())
    workloads = args.workload or sorted(spec["workloads"])

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": export(args.parent, Path(tmp))}
        trees["change"] = export(args.change, Path(tmp)) if args.change else REPO
        result = {"about": args.about, "context": {}, "workloads": {}, "traced": {}}
        for w_index, workload in enumerate(workloads):
            runs = {"parent": [], "change": []}
            failures = 0
            for i in range(args.pairs):
                seed = args.seed_base + 20 * w_index + i
                first = "parent" if i % 2 == 0 else "change"
                for side in (first, "change" if first == "parent" else "parent"):
                    context, res = perfbench(trees[side], workload, seed, args.seconds, 0)
                    failures += res["failed"]
                    runs[side].append({
                        "seed": seed, "first": first, "failed": res["failed"],
                        **{m: res["metrics"][m]["value"] for m in BETTER},
                    })
                    result["context"][side] = {
                        k: context[k] for k in ("nproc", "python", "numpy", "scipy",
                                                "src_sha256", "seconds")
                    }
                    print(f"{workload} pair {i} {side}: wall_s "
                          f"{runs[side][-1]['wall_s']:.3f}", file=sys.stderr)
            result["workloads"][workload] = {
                "runs": runs, **summarize(runs), "verdict": verdict(runs),
                "failures": failures, "both_failed": both_failed(runs),
            }
            for pair in result["workloads"][workload]["both_failed"]:
                print(f"{workload} pair {pair['pair']} (seed {pair['seed']}): both sides "
                      f"failed campaigns ({pair['parent_failed']} parent, "
                      f"{pair['change_failed']} change)", file=sys.stderr)
            if args.traced_seconds:
                result["traced"][workload] = traced_runs(
                    lambda side: perfbench(trees[side], workload, 1, args.traced_seconds, 1)[1]
                )
    if args.claim:
        workload, metric = args.claim.split(":")
        result["claim"] = {
            "workload": workload, "metric": metric, "threshold": args.threshold,
            "result": judge(result["workloads"][workload], metric),
        }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
