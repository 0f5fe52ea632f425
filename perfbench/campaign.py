"""Run one mildsde CLI campaign in this process and record what it cost.

Usage (normally started by ``run.py``, one fresh process per campaign):

    python3 perfbench/campaign.py --record REC.json [--trace] -- <cli args>

``<cli args>`` are passed unchanged to ``mildsde.cli.main``, as a user would
type them after ``mildsde``. The record holds the set-up time (from the
first line of this script, before ``import mildsde``, to the first noise
draw) and, with ``--trace``, the per-layer self times and counters. Tracing wraps public callables from outside the package: names
bound in ``mildsde.cli`` (and the helpers it shares with the solver), plus the
coefficient and semigroup callables of the ModelSpec the campaign builds.
Nothing under ``src/`` is modified, and the wrappers return what they wrap
unchanged, so traced outputs are byte-identical to untraced ones.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import defaultdict  # noqa: E402
from functools import wraps  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Modules that bind their own reference to state_space.weighted_norm_sq.
NORM_MODULES = ("cli", "solver", "convolution", "coefficients", "semigroup")


class Tracer:
    """Self time per span name and additive counters.

    A span's self time is its duration minus the time covered by spans
    opened inside it, so the self times of all spans sum to the duration of
    the outermost one. Each thread keeps its own span stack and totals, so
    the wrappers take no lock; :meth:`totals` merges them.
    """

    def __init__(self):
        self._local = threading.local()
        self._threads = []
        self._register = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], defaultdict(float), defaultdict(int))
            with self._register:
                self._threads.append(state)
        return state

    def wrap(self, name, fn, count=None):
        """Return fn timed as span ``name``; ``count(counts, args, result)``
        adds the span's counters after each call."""

        @wraps(fn)
        def traced(*args, **kwargs):
            stack, self_s, counts = self._state()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += duration
                self_s[name] += duration - inner
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def totals(self):
        """(self seconds per span, counters), summed over threads."""
        self_s, counts = defaultdict(float), defaultdict(int)
        for _, thread_self, thread_counts in self._threads:
            for key, value in thread_self.items():
                self_s[key] += value
            for key, value in thread_counts.items():
                counts[key] += value
        return dict(sorted(self_s.items())), dict(sorted(counts.items()))


def _rows(x):
    shape = getattr(x, "shape", ())
    rows = 1
    for n in shape[:-1]:
        rows *= n
    return rows


def _count_drift_rows(counts, args, result):
    counts["coefficients.drift_eval_rows"] += _rows(args[1])


def _count_calls(key):
    def count(counts, args, result):
        counts[key] += 1
    return count


def _count_implicit(counts, args, result):
    ok = result[1]
    counts["coefficients.implicit_step_rows"] += int(ok.size)
    counts["coefficients.implicit_fallback_rows"] += int(ok.size - ok.sum())


def _count_noise(counts, args, noise):
    counts["noise.streams"] += noise.n_paths
    counts["noise.jump_events"] += sum(len(ev) for ev in noise.events_by_path)
    counts["noise.dw_bytes"] += noise.dW.nbytes


def _count_path_bytes(counts, args, result):
    nbytes = result.values.nbytes
    increments = getattr(result, "increments", None)
    if increments is not None:
        nbytes += sum(v.nbytes for v in vars(increments).values() if hasattr(v, "nbytes"))
    counts["solver.path_bytes"] += nbytes


def instrument_semigroup(tracer, semigroup):
    apply = semigroup.apply
    shifted = semigroup.shifted

    def count(counts, args, result):
        counts["semigroup.apply_calls"] += 1
        counts["semigroup.apply_rows"] += _rows(args[1])

    semigroup.apply = tracer.wrap("semigroup.apply", apply, count)
    # The contraction rescaling applies a shifted copy; trace that one too.
    semigroup.shifted = lambda delta: instrument_semigroup(tracer, shifted(delta))
    return semigroup


def instrument_model(tracer, model):
    """Wrap the coefficient and semigroup callables of a built ModelSpec."""
    drift = model.coeffs.drift
    drift.evaluate = tracer.wrap("coefficients.drift_eval", drift.evaluate, _count_drift_rows)
    if drift.implicit_step is not None:
        drift.implicit_step = tracer.wrap(
            "coefficients.implicit_step", drift.implicit_step, _count_implicit
        )
    calls = _count_calls("coefficients.noise_coeff_calls")
    diffusion, jump = model.coeffs.diffusion, model.coeffs.jump
    diffusion.evaluate = tracer.wrap("coefficients.noise_coeff", diffusion.evaluate, calls)
    jump.evaluate = tracer.wrap("coefficients.noise_coeff", jump.evaluate, calls)
    jump.compensator = tracer.wrap("coefficients.noise_coeff", jump.compensator, calls)
    instrument_semigroup(tracer, model.semigroup)
    return model


def install(tracer, mildsde):
    """Rebind the public names the campaigns call through."""
    cli, solver = mildsde.cli, mildsde.solver
    build = tracer.wrap("models.build", cli.model_from_config)
    cli.model_from_config = wraps(build)(
        lambda *a, **k: instrument_model(tracer, build(*a, **k))
    )
    for name in ("check_semimonotone", "check_lipschitz_growth"):
        setattr(solver, name, tracer.wrap("coefficients.check", getattr(solver, name)))
    cli.draw_noise = tracer.wrap("noise.draw", cli.draw_noise, _count_noise)
    cli.coarsen_noise = tracer.wrap("noise.coarsen", cli.coarsen_noise)
    cli.picard_solve_batch = tracer.wrap(
        "solver.picard_self", cli.picard_solve_batch, _count_path_bytes
    )
    cli.direct_solve_batch = tracer.wrap(
        "solver.direct_self", cli.direct_solve_batch, _count_path_bytes
    )
    cli.ito_inequality_check = tracer.wrap(
        "convolution.ito_check", cli.ito_inequality_check,
        _count_calls("convolution.ito_check_calls"),
    )
    cli.stochastic_exponential = tracer.wrap(
        "models.oracle", cli.stochastic_exponential, _count_calls("models.oracle_calls")
    )
    norm = tracer.wrap(
        "state_space.norm", mildsde.state_space.weighted_norm_sq,
        _count_calls("state_space.norm_calls"),
    )
    for name in NORM_MODULES:
        module = getattr(mildsde, name)
        if hasattr(module, "weighted_norm_sq"):
            module.weighted_norm_sq = norm


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True, help="JSON file to write")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(SRC))
    import mildsde.cli

    if not Path(mildsde.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"mildsde imported from {mildsde.__file__}, not {SRC}")
    import_s = time.perf_counter() - _T0
    cli = mildsde.cli

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer, mildsde)
    first_draw = []
    draw = cli.draw_noise

    def draw_noise(*a, **k):
        if not first_draw:
            first_draw.append(time.perf_counter())
        return draw(*a, **k)

    cli.draw_noise = draw_noise
    start = time.perf_counter()
    if tracer is not None:
        code = tracer.wrap("cli.self", cli.main)(cli_args)
    else:
        code = cli.main(cli_args)
    record = {
        "import_s": import_s,
        "setup_s": first_draw[0] - _T0 if first_draw else None,
        "main_s": time.perf_counter() - start,
    }
    if tracer is not None:
        record["self_s"], record["counts"] = tracer.totals()
    Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
