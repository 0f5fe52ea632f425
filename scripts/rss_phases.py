#!/usr/bin/env python3
"""Resident memory of one campaign at its phases, read in this process.

    python3 scripts/rss_phases.py --config FILE --command C --seed N

FILE is a run config as ``mildsde C --config FILE`` reads it; its
``out_dir`` is not used: the campaign writes into a temporary directory that
is removed afterwards. The script runs the campaign in this process, as
``mildsde.cli.main`` does, with some of ``mildsde.cli``'s names wrapped from
outside the package, and at each phase it reaches it reads VmHWM, VmRSS,
RssAnon, RssFile and RssShmem from ``/proc/self/status``. It prints one line
per phase reached, in MB, and then the campaign's exit code:

    phase          VmHWM    VmRSS  RssAnon  RssFile RssShmem
    import         ...      (mildsde imported, nothing run)
    validated      ...      (model_from_config returned: built and validated)
    shares_start   ...      (before the chunk processes start)
    shares_end     ...      (after every share returned)
    quantile_start ...      (before each numpy.quantile call)
    quantile_end   ...      (after it)
    exit           ...      (the campaign wrote its CSVs and summary)
    campaign_exit = <code>

The numbers are those of this process: a forked helper's pages count only
where they are shared with it, as the shared slack table of ``ito-check``
is. VmHWM is the kernel's high-water mark, which it records lazily (when
memory is unmapped), so it may read below an earlier phase's VmRSS.
Without ``/proc/self/status`` the script exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from mildsde import cli  # noqa: E402

STATUS = Path("/proc/self/status")
FIELDS = ("VmHWM", "VmRSS", "RssAnon", "RssFile", "RssShmem")


def status_mb() -> tuple:
    """The FIELDS of /proc/self/status, in MB."""
    kb = {}
    for line in STATUS.read_text().splitlines():
        key, _, value = line.partition(":")
        if key in FIELDS:
            kb[key] = int(value.split()[0])
    return tuple(kb[f] / 1024.0 for f in FIELDS)


def rss_phases(command: str, config_file: str, seed: int) -> tuple[list, int]:
    """([(phase, FIELDS in MB), ...], exit code) of one campaign run here."""
    phases = [("import", status_mb())]

    def mark(name):
        phases.append((name, status_mb()))

    def around(fn, start, end):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if start:
                mark(start)
            value = fn(*args, **kwargs)
            mark(end)
            return value

        return wrapped

    wrapped = {
        (cli, "model_from_config"): around(cli.model_from_config, None, "validated"),
        (cli, "_run_tasks"): around(cli._run_tasks, "shares_start", "shares_end"),
        (np, "quantile"): around(np.quantile, "quantile_start", "quantile_end"),
    }
    saved = {key: getattr(*key) for key in wrapped}
    try:
        for (owner, name), fn in wrapped.items():
            setattr(owner, name, fn)
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", config_file, "--seed", str(seed),
                             "--out", out])
            mark("exit")
    finally:
        for (owner, name), fn in saved.items():
            setattr(owner, name, fn)
    return phases, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="run config JSON file")
    parser.add_argument("--command", required=True, help="campaign, as mildsde names it")
    parser.add_argument("--seed", type=int, required=True, help="noise seed")
    args = parser.parse_args(argv)
    if not STATUS.is_file():
        print(f"{STATUS} is not readable here", file=sys.stderr)
        return 1
    phases, code = rss_phases(args.command, args.config, args.seed)
    print(f"{'phase':<14}" + "".join(f"{f:>9}" for f in FIELDS))
    for name, values in phases:
        print(f"{name:<14}" + "".join(f"{v:9.2f}" for v in values))
    print(f"campaign_exit = {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
