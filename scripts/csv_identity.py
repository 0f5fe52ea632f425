#!/usr/bin/env python3
"""Whether two revisions of mildsde write the same CSVs, byte for byte.

    python3 scripts/csv_identity.py --parent REV [--change REV] --seeds 1 2 3

Run from anywhere inside a git checkout of mildsde. The parent revision (and
``--change`` when given; otherwise this checkout as it is on disk) is
exported with ``bench_pairs.export`` into a temporary directory. Every
workload config of ``perfbench/workloads.json`` and every golden config of
``tests/test_golden.py`` (both read from this checkout) then runs at each
seed in both trees, as ``python -m mildsde.cli COMMAND --config .. --seed S
--out ..``. One line per (config, seed) says whether the two runs ended
with the same exit code, wrote the same CSV files with the same bytes and
the same ``summary.txt`` lines but ``wall_clock_s`` and ``config.out_dir``,
and names the files that differ. The script exits 1 when any pair differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))

from bench_pairs import export  # noqa: E402


def configs() -> dict:
    """name -> (command, config) of every workload and golden case."""
    spec = json.loads((REPO / "perfbench" / "workloads.json").read_text())
    out = {name: (w["command"], w["config"]) for name, w in spec["workloads"].items()}
    sys.path[:0] = [str(REPO), str(REPO / "src")]
    try:
        from tests.test_golden import CASES
    finally:
        del sys.path[:2]
    out.update({f"golden:{name}": (case[0], case[1]) for name, case in CASES.items()})
    return out


def differing_csvs(a: Path, b: Path) -> list:
    """Names of the CSV files in directory a or b that are missing from the
    other or whose bytes differ, sorted."""
    names = {p.name for d in (a, b) for p in d.glob("*.csv")}
    return sorted(
        name for name in names
        if not ((a / name).is_file() and (b / name).is_file()
                and (a / name).read_bytes() == (b / name).read_bytes())
    )


def summary_differs(a: Path, b: Path) -> bool:
    """Whether the summary.txt of directory a and of b, either missing, differ
    in a line other than the run's wall clock and output directory."""

    def lines(directory):
        path = directory / "summary.txt"
        if not path.is_file():
            return None
        return [line for line in path.read_text().splitlines()
                if not line.startswith(("wall_clock_s = ", "config.out_dir = "))]

    return lines(a) != lines(b)


def run(tree: Path, command: str, config: dict, seed: int, out: Path) -> int:
    """Exit code of one campaign in ``tree``, writing its outputs to out."""
    config_path = out.with_suffix(".json")
    config_path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "mildsde.cli", command, "--config", str(config_path),
         "--seed", str(seed), "--out", str(out)],
        cwd=tree, env=env, capture_output=True,
    ).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", help="git revision of the change (default: this checkout)")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    cases = configs()
    differ = 0
    with tempfile.TemporaryDirectory(prefix="csv-identity-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": export(args.parent, tmp)}
        trees["change"] = export(args.change, tmp) if args.change else REPO
        for name, (command, config) in cases.items():
            for seed in args.seeds:
                outs, codes = {}, {}
                for side, tree in trees.items():
                    outs[side] = tmp / f"{side}-{name.replace(':', '-')}-{seed}"
                    codes[side] = run(tree, command, config, seed, outs[side])
                files = differing_csvs(outs["parent"], outs["change"])
                if summary_differs(outs["parent"], outs["change"]):
                    files.append("summary.txt")
                if codes["parent"] != codes["change"]:
                    files.insert(0, f"exit {codes['parent']} vs {codes['change']}")
                differ += bool(files)
                verdict = "DIFFERS: " + ", ".join(files) if files else "same"
                print(f"{name} seed {seed} (exit {codes['change']}): {verdict}", flush=True)
    print(f"{differ} of {len(cases) * len(args.seeds)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
