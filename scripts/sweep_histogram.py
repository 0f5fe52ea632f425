#!/usr/bin/env python3
"""Sweep histograms of the Nemitsky implicit step on chunk 0 of a picard run.

    python3 scripts/sweep_histogram.py --config FILE --seed N

FILE is a run config as ``mildsde picard --config FILE`` reads it; its
``out_dir`` is not used and nothing is written. The script builds the
configured model with every ``nemitsky_implicit_solver`` the builder makes
wrapped from outside the package: the prox handed to the solver counts its
calls, one per sweep, and the live rows of each (the leading axis of its
``(rows, quadrature)`` input), and the returned step marks where each call
begins. It then solves the first chunk (``chunk_size`` paths from path
0) with ``picard_solve_batch`` at the config's ``n_max``, ``damping`` and
``inner_tol`` on the noise of seed N, in this process, and prints

    calls = <step calls>
    sweeps = <prox calls>
    row_sweeps = <rows summed over the sweeps>
    sweeps_per_call = {<sweeps>: <calls>, ...}
    live_rows_per_sweep = {<live rows>: <sweeps>, ...}

A config whose model has no Nemitsky step prints zero calls.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from mildsde import cli, models  # noqa: E402
from mildsde.solver import picard_solve_batch  # noqa: E402


def sweep_histograms(config: cli.RunConfig) -> tuple[Counter, Counter]:
    """(sweeps per step call, live rows per sweep) on chunk 0 of config."""
    per_call: list[int] = []
    live_rows: Counter = Counter()
    solver = models.nemitsky_implicit_solver

    def counting_solver(scalar_fn, prox, *args, **kwargs):
        def counted_prox(v, p):
            per_call[-1] += 1
            live_rows[v.shape[0]] += 1
            return prox(v, p)

        step = solver(scalar_fn, counted_prox, *args, **kwargs)

        def counted_step(*step_args):
            per_call.append(0)
            return step(*step_args)

        return counted_step

    models.nemitsky_implicit_solver = counting_solver
    try:
        model = cli.model_from_config(config)
    finally:
        models.nemitsky_implicit_solver = solver
    rows = range(min(config.chunk_size, config.paths))
    noise = cli.draw_noise(model, config.grid(), config.seed, rows)
    picard_solve_batch(model, noise, n_max=config.n_max, damping=config.damping,
                       inner_tol=config.inner_tol)
    return Counter(per_call), live_rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="run config JSON file")
    parser.add_argument("--seed", type=int, required=True, help="noise seed")
    args = parser.parse_args(argv)
    config = dataclasses.replace(cli.RunConfig.from_file(args.config), seed=args.seed)
    per_call, live_rows = sweep_histograms(config)
    print(f"calls = {sum(per_call.values())}")
    print(f"sweeps = {sum(live_rows.values())}")
    print(f"row_sweeps = {sum(k * n for k, n in live_rows.items())}")
    print(f"sweeps_per_call = {dict(sorted(per_call.items()))}")
    print(f"live_rows_per_sweep = {dict(sorted(live_rows.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
