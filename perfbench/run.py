#!/usr/bin/env python3
"""Campaign benchmark for mildsde.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing). Each campaign is a fresh process that
runs ``mildsde <command> --config <workload> --seed N`` (see campaign.py).
Campaigns repeat until ``S`` seconds are used; timings are medians over them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of traced campaigns, each
paired with an untraced one for the tracing overhead, plus one untraced
campaign at the reference seed whose CSV digest is compared to the digest
recorded in workloads.json. A line before it records the run's context:
core count, library versions, source revision and effective configs.

A campaign fails if it exits non-zero, writes a CSV or summary without its
schema line, or writes CSVs that differ from another campaign of the same
(workload, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CAMPAIGN = HERE / "campaign.py"
SPEC = json.loads((HERE / "workloads.json").read_text())

# The run must end within this many seconds of starting.
RUN_LIMIT_S = 170.0

EXPECTED_OUTPUTS = {
    "picard": {
        "picard_iterations.csv": "mildsde-picard-v1",
        "picard_moments.csv": "mildsde-picard-moments-v1",
        "picard_paths.csv": "mildsde-paths-v1",
    },
    "ito-check": {"ito_slack.csv": "mildsde-ito-v1"},
    "benchmark": {"benchmark.csv": "mildsde-benchmark-v1"},
}
SUMMARY_SCHEMA = "schema = mildsde-summary-v1"

SPANS = (
    "coefficients.implicit_step", "coefficients.drift_eval",
    "coefficients.noise_coeff", "coefficients.check", "noise.draw",
    "noise.coarsen", "semigroup.apply", "convolution.ito_check",
    "models.oracle", "models.build", "solver.picard_self",
    "solver.direct_self", "state_space.norm", "cli.self",
)
COUNTERS = (
    "coefficients.implicit_step_rows", "coefficients.implicit_fallback_rows",
    "coefficients.drift_eval_rows", "coefficients.noise_coeff_calls",
    "noise.jump_events", "noise.streams", "noise.dw_bytes",
    "semigroup.apply_calls", "semigroup.apply_rows",
    "convolution.ito_check_calls", "models.oracle_calls",
    "solver.path_bytes", "state_space.norm_calls",
)


@dataclass
class Campaign:
    seed: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    record: dict
    summary: dict
    digest: str | None
    output_bytes: int
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def read_summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def check_outputs(command: str, out_dir: Path) -> list[str]:
    """Schema lines of every expected file; returns the problems found."""
    problems = []
    expected = {name: f"# schema: {schema}" for name, schema in EXPECTED_OUTPUTS[command].items()}
    expected["summary.txt"] = SUMMARY_SCHEMA
    for name, first in expected.items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        with open(path) as fh:
            line = fh.readline().rstrip("\n")
        if line != first:
            problems.append(f"{name} schema line {line!r}, expected {first!r}")
    return problems


def csv_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def run_campaign(name: str, seed: int, work: Path, traced: bool, timeout: float) -> Campaign:
    """One fresh process running the workload's CLI command."""
    spec = SPEC["workloads"][name]
    run_dir = Path(tempfile.mkdtemp(dir=work))
    config = run_dir / "config.json"
    config.write_text(json.dumps(spec["config"]))
    out_dir, record_path = run_dir / "out", run_dir / "record.json"
    argv = [sys.executable, str(CAMPAIGN), "--record", str(record_path)]
    if traced:
        argv.append("--trace")
    argv += ["--", spec["command"], "--config", str(config), "--seed", str(seed),
             "--out", str(out_dir)]
    with open(run_dir / "stderr.txt", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().strip()

    problems = []
    if proc.returncode != 0:
        tail = stderr.splitlines()[-1] if stderr else ""
        problems.append(f"exit code {proc.returncode}: {tail}")
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    if not record:
        problems.append("no campaign record")
    problems += check_outputs(spec["command"], out_dir)
    summary = read_summary(out_dir / "summary.txt") if (out_dir / "summary.txt").is_file() else {}
    digest = csv_digest(out_dir) if out_dir.is_dir() else None
    output_bytes = sum(p.stat().st_size for p in out_dir.glob("*")) if out_dir.is_dir() else 0
    shutil.rmtree(run_dir)
    return Campaign(
        seed=seed,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        record=record,
        summary=summary,
        digest=digest,
        output_bytes=output_bytes,
        problems=problems,
    )


def path_steps(command: str, summary: dict, config: dict) -> int:
    """Paths x grid steps x passes the campaign integrated."""
    paths = int(summary["config.paths"])
    steps = round(float(summary["config.horizon"]) / float(summary["config.dt"]))
    if command == "picard":
        return paths * steps * int(summary["stat.iterations"])
    if command == "ito-check":
        return paths * steps * (3 if summary["config.refine_check"] == "True" else 1)
    exponents = config.get("model_params", {}).get("dt_exponents", range(6, 13))
    return paths * sum(2**e for e in exponents)


def source_revision() -> dict:
    """Git revision when ROOT is a work tree's top, and a digest of src/."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = rev.stdout.split()
        git = lines[1] if rev.returncode == 0 and Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError):
        git = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_revision": git, "src_sha256": digest.hexdigest()}


def library_versions() -> dict:
    versions = {"python": platform.python_version()}
    for lib in ("numpy", "scipy"):
        try:
            versions[lib] = importlib.metadata.version(lib)
        except importlib.metadata.PackageNotFoundError:
            versions[lib] = None
    return versions


def metric(value, unit):
    return {"value": value, "unit": unit}


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(name: str, campaigns: list[Campaign], attempted: int, failed: int) -> dict:
    good = [c for c in campaigns if c.ok] or campaigns
    command = SPEC["workloads"][name]["command"]
    rates = []
    for c in good:
        if c.summary and c.record.get("setup_s") is not None:
            work = path_steps(command, c.summary, SPEC["workloads"][name]["config"])
            rates.append(work / (c.wall_s - c.record["setup_s"]))
    setups = [c.record["setup_s"] for c in good if c.record.get("setup_s") is not None]
    return {
        "wall_s": metric(median([c.wall_s for c in good]), "s"),
        "setup_s": metric(median(setups), "s"),
        "path_steps_per_s": metric(median(rates), "1/s"),
        "peak_rss_mb": metric(median([c.peak_rss_mb for c in good]), "MB"),
        "success_frac": metric((attempted - failed) / attempted, "frac"),
    }


def per_layer(traced: list[Campaign], plain: list[Campaign], reference_match: int) -> dict:
    out = {}
    for span in SPANS:
        out[f"{span}_s"] = metric(median([c.record.get("self_s", {}).get(span, 0.0) for c in traced]), "s")
    counts = traced[0].record.get("counts", {}) if traced else {}
    for key in COUNTERS:
        unit = "B" if key.endswith("_bytes") else "count"
        out[key] = metric(counts.get(key, 0), unit)
    rows = counts.get("coefficients.implicit_step_rows", 0)
    first_pass = 1.0 - counts.get("coefficients.implicit_fallback_rows", 0) / rows if rows else 1.0
    out["coefficients.implicit_first_pass_ratio"] = metric(first_pass, "ratio")
    out["cli.output_bytes"] = metric(traced[0].output_bytes if traced else 0, "B")
    out["cli.outputs_match_reference"] = metric(reference_match, "count")
    out["traced_wall_s"] = metric(median([sum(c.record.get("self_s", {}).values()) for c in traced]), "s")
    out["import_s"] = metric(median([c.record.get("import_s", 0.0) for c in traced]), "s")
    out["cpu_s"] = metric(median([c.cpu_s for c in plain]), "s")
    traced_wall, plain_wall = median([c.wall_s for c in traced]), median([c.wall_s for c in plain])
    out["trace_overhead_frac"] = metric((traced_wall - plain_wall) / plain_wall if plain_wall else 0.0, "frac")
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="mildsde campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mildsde" / "cli.py").is_file():
        print(f"no mildsde sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    name, seed = args.workload, args.seed
    runs: list[Campaign] = []
    traced: list[Campaign] = []
    plain: list[Campaign] = []
    longest = 0.0

    def launch(run_seed, with_trace):
        nonlocal longest
        c = run_campaign(name, run_seed, work, with_trace, deadline - time.perf_counter())
        longest = max(longest, c.wall_s)
        same = [o.digest for o in runs if o.seed == run_seed and o.ok]
        if c.ok and same and c.digest != same[0]:
            c.problems.append("CSVs differ from an earlier campaign of the same seed")
        runs.append(c)
        return c

    def time_left(cost):
        return time.perf_counter() - started + cost <= min(args.seconds, RUN_LIMIT_S)

    reference_match = 0
    try:
        if args.trace:
            ref = launch(SPEC["reference_seed"], False)
            reference_match = int(ref.ok and ref.digest == SPEC["workloads"][name]["reference_csv_sha256"])
            while True:
                plain.append(launch(seed, False))
                traced.append(launch(seed, True))
                if not time_left(2 * longest):
                    break
        else:
            while True:
                plain.append(launch(seed, False))
                if not time_left(longest):
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(runs), sum(not c.ok for c in runs)
    context = {
        "context": {
            "workload": name,
            "seed": seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "campaigns": len(runs),
            "campaign_wall_s": [c.wall_s for c in runs],
            "nproc": os.cpu_count(),
            **library_versions(),
            **source_revision(),
            "command": SPEC["workloads"][name]["command"],
            "effective_config": {
                k[len("config."):]: v for k, v in (plain[0].summary if plain else {}).items()
                if k.startswith("config.")
            },
            "failures": [f"seed {c.seed}: {p}" for c in runs for p in c.problems],
        }
    }
    print(json.dumps(context))
    metrics = per_layer(traced, plain, reference_match) if args.trace else end_to_end(
        name, plain, attempted, failed
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
