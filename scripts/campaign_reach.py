#!/usr/bin/env python3
"""Functions of ``src/mildsde`` that no CLI campaign reaches.

    python3 scripts/campaign_reach.py

Runs every command on every example at a tiny size, each example once with
its builder defaults and once with every noise and drift parameter the
config can set made nonzero, all in this process (``cli._usable_cores`` is
patched to 1, so no chunk is forked away). ``sys.setprofile`` records every
function of ``src/mildsde`` that is called, from the import of the package,
which runs its decorators, to the end of the last run. The script prints the
functions, lambdas included, defined in ``src/mildsde`` that none of the runs
called, one ``module.py:line qualname`` a line, then a count. Campaign
outputs go to a temporary directory that is removed at the end.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

# model_params that switch on every optional term a config can reach
ALL_ON = {
    "reaction_diffusion": {"eta": -0.2, "mark_mean": 0.05},
    "hyperbolic": {"levy_drift": 0.1, "levy_gaussian_variance": 0.04, "mark_mean": 0.05},
    "delay": {"levy_drift": -0.1, "levy_gaussian_variance": 0.04, "mark_mean": 0.05},
    "linear_scalar": {"mark_mean": 0.05},
}
TINY = {"dim": 4, "dt": 0.05, "paths": 6, "chunk_size": 4, "n_max": 3, "dump_paths": 2}


def defined_functions() -> dict:
    """(file, first line, qualname) -> printable name of every function,
    lambdas included, in the package's modules; class bodies, which run at
    import, and comprehension bodies, which run whenever the function around
    them does, are left out."""
    found = {}
    for path in sorted((SRC / "mildsde").glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            name = code.co_qualname
            if not code.co_flags & inspect.CO_OPTIMIZED or (
                code.co_name.startswith("<") and code.co_name != "<lambda>"
            ):
                continue
            found[(str(path), code.co_firstlineno, name)] = (
                f"{path.name}:{code.co_firstlineno} {name}"
            )
    return found


def run_campaigns(out_dir: Path) -> set:
    """Keys of the package functions called by every command on every
    example, with defaults and with ALL_ON."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    sys.setprofile(profile)
    try:
        from mildsde import cli
    finally:
        sys.setprofile(None)
    cli._usable_cores = lambda: 1
    n = 0
    for example in cli.EXAMPLE_BUILDERS:
        for params in ({}, ALL_ON[example]):
            for command in cli._COMMANDS:
                params_here = dict(params)
                if command == "benchmark":
                    params_here = {"dt_exponents": [3, 4]}
                config = dict(TINY, example=example, model_params=params_here)
                config_path = out_dir / f"config{n}.json"
                config_path.write_text(json.dumps(config))
                argv = [command, "--config", str(config_path), "--out", str(out_dir / str(n))]
                n += 1
                sys.setprofile(profile)
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        status = cli.main(argv)
                finally:
                    sys.setprofile(None)
                if status not in (cli.EXIT_OK, cli.EXIT_DIAGNOSTIC):
                    raise SystemExit(f"{command} on {example} {params} exited {status}")
    return {(str(Path(f).resolve()), line, name) for f, line, name in reached}


def main() -> None:
    functions = defined_functions()
    with tempfile.TemporaryDirectory() as tmp:
        reached = run_campaigns(Path(tmp))
    missing = sorted(
        (label for key, label in functions.items() if key not in reached),
        key=lambda label: (label.split(":")[0], int(label.split(":")[1].split()[0])),
    )
    for label in missing:
        print(label)
    print(f"{len(missing)} of {len(functions)} functions reached by no campaign")


if __name__ == "__main__":
    main()
