"""Batch experiment driver: config parsing, campaign execution, CSV and
summary emission.

Subcommands
-----------
* ``picard``           iteration-distance table against the factorial bound,
                       plus the iterate moment-bound check
* ``ito-check``        pathwise energy-inequality violation rates at dt and
                       dt/2 on shared realizations
* ``benchmark``        linear-model strong error against the stochastic
                       exponential closed form across dt = 2^-6 .. 2^-12
* ``hypothesis-check`` coefficient-contract checkers on the configured model
* ``simulate``         direct-solver path dump

Runs are reproducible: paths draw their noise from (seed, path index) and
are cut into fixed chunks of ``chunk_size`` paths. The chunks run on up to
one process per usable core (forked helpers plus the calling process). Each
chunk returns row arrays that the runner joins in chunk order (or, for
``ito-check``'s slack, writes its rows into one table that all processes
share), and only then does a campaign reduce them, so outputs are
byte-identical for a fixed (config, seed) whatever the core count. Every
command is a campaign body in one frame (``_campaign``) that times it and
writes ``summary.txt``.

Exit codes: 0 all diagnostics pass; 2 diagnostic failure; 3 configuration
or usage error; 4 solver divergence or nonconvergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import inspect
import json
import math
import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .convolution import ITO_TOL_COEFF, ito_inequality_check
from .models import EXAMPLE_BUILDERS, stochastic_exponential
from .noise import TimeGrid, coarsen_noise, draw_noise
from .solver import (
    ModelSpec,
    SolverError,
    direct_solve_batch,
    picard_solve_batch,
    predicted_bound,
    require_solvable_step,
)
from .state_space import weighted_norm_sq

__all__ = [
    "ConfigError",
    "RunConfig",
    "RunSummary",
    "model_from_config",
    "run_picard_campaign",
    "run_ito_check",
    "run_benchmark_oracle",
    "run_hypothesis_check",
    "run_simulate",
    "main",
    "entrypoint",
]

EXIT_OK = 0
EXIT_DIAGNOSTIC = 2
EXIT_CONFIG = 3
EXIT_SOLVER = 4


class ConfigError(ValueError):
    pass


# RunConfig annotation -> (accepted types, description); bool is never a
# number here even though Python makes it an int.
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "int | None": ((int,), "an integer or null"),
    "float": ((int, float), "a finite number"),
    "float | None": ((int, float), "a finite number or null"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
    "dict": ((dict,), "an object"),
}


def _check_type(name: str, value, annotation: str):
    """Raise ConfigError unless value has the type an annotation of
    _FIELD_TYPES names."""
    if value is None and annotation.endswith("| None"):
        return
    types, description = _FIELD_TYPES[annotation]
    if (
        not isinstance(value, types)
        or isinstance(value, bool) != (annotation == "bool")
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        raise ConfigError(f"{name} must be {description}, got {value!r}")


@dataclass
class RunConfig:
    """Complete, self-describing description of one campaign run.

    ``model_params`` carries example-specific knobs: the keywords of the
    example's builder other than its dimension argument (``_DIM_ARGS``),
    ``horizon`` and ``validate``, whose defaults are the builder's.
    ``ito_tol_coeff`` None means ``convolution.ITO_TOL_COEFF``. All other
    fields are common. The config round-trips losslessly through JSON.
    """

    example: str = "reaction_diffusion"
    dim: int = 16
    dt: float = 1e-3
    horizon: float = 1.0
    paths: int = 200
    seed: int = 0
    n_max: int = 10
    chunk_size: int = 64
    out_dir: str = "out"
    inner_tol: float = 1e-8
    damping: float = 1.0
    ito_tol_coeff: float | None = None
    bdg_constant: float = 3.0
    refine_check: bool = True
    dump_paths: int = 4
    model_params: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check_type(f.name, getattr(self, f.name), f.type)
        if self.dt <= 0.0:
            raise ConfigError("dt must be > 0")
        if self.horizon <= 0.0:
            raise ConfigError("horizon must be > 0")
        if self.paths < 1:
            raise ConfigError("paths must be >= 1")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if self.example not in EXAMPLE_BUILDERS:
            raise ConfigError(
                f"unknown example {self.example!r}; choices {sorted(EXAMPLE_BUILDERS)}"
            )
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.inner_tol <= 0.0:
            raise ConfigError("inner_tol must be > 0")
        if self.damping <= 0.0:
            raise ConfigError("damping must be > 0")
        if self.dump_paths < 0:
            raise ConfigError("dump_paths must be >= 0")
        if self.ito_tol_coeff is not None and self.ito_tol_coeff < 0.0:
            raise ConfigError("ito_tol_coeff must be >= 0")
        if self.bdg_constant <= 0.0:
            raise ConfigError("bdg_constant must be > 0")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} line {exc.lineno}: {exc.msg}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def grid(self) -> TimeGrid:
        n = round(self.horizon / self.dt)
        if n < 1 or abs(n * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise ConfigError(
                f"dt {self.dt} does not evenly divide horizon {self.horizon}"
            )
        return TimeGrid(self.horizon, n)


# example -> the builder argument that receives config.dim (None: the
# builder takes none). Every other builder parameter but horizon and validate
# is a name model_params may set, of that parameter's type and default.
_DIM_ARGS = {
    "reaction_diffusion": "dim",
    "hyperbolic": "n_modes",
    "delay": "history_cells",
    "linear_scalar": None,
}


def _model_kwargs(config: RunConfig) -> dict:
    """The builder keywords config.model_params sets, each at its given
    value or at the builder's default, and each of the builder's type."""
    params = inspect.signature(EXAMPLE_BUILDERS[config.example]).parameters
    names = [n for n in params if n not in (_DIM_ARGS[config.example], "horizon", "validate")]
    unknown = set(config.model_params) - set(names)
    if unknown:
        raise ConfigError(f"unknown model_params for {config.example}: {sorted(unknown)}")
    kwargs = {}
    for name in names:
        value = config.model_params.get(name, params[name].default)
        _check_type(f"model_params.{name}", value, params[name].annotation)
        kwargs[name] = value
    return kwargs


def model_from_config(config: RunConfig, validate: bool = True) -> ModelSpec:
    """Build the configured example; a value its builder rejects is a
    configuration error."""
    dim_arg = _DIM_ARGS[config.example]
    try:
        kwargs = _model_kwargs(config)
        if dim_arg is not None:
            kwargs[dim_arg] = config.dim
        return EXAMPLE_BUILDERS[config.example](
            **kwargs, horizon=config.horizon, validate=validate
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{config.example}: {exc}") from exc


@dataclass
class RunSummary:
    """Machine-readable campaign outcome; serialized as key = value lines."""

    command: str
    config: RunConfig
    passed: bool
    checks: dict
    stats: dict
    wall_clock_s: float

    def __post_init__(self):
        # an example whose builder takes no dimension runs at dim 1, and
        # the summary reports the config the run used
        if _DIM_ARGS[self.config.example] is None:
            self.config = dataclasses.replace(self.config, dim=1)

    def to_text(self) -> str:
        lines = [
            "schema = mildsde-summary-v1",
            f"command = {self.command}",
            f"passed = {self.passed}",
        ]
        for key in sorted(self.checks):
            lines.append(f"check.{key} = {self.checks[key]}")
        for key in sorted(self.stats):
            lines.append(f"stat.{key} = {_fmt(self.stats[key])}")
        cfg = self.config.to_dict()
        for key in sorted(cfg):
            lines.append(f"config.{key} = {_fmt(cfg[key])}")
        lines.append(f"wall_clock_s = {self.wall_clock_s:.3f}")
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    return str(v)


def _write_csv(path: Path, schema: str, header: list[str], rows):
    """Byte-deterministic CSV: schema comment line, then header and rows with
    full-precision float formatting."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def _run_stacked(fns, paths: int, chunk_size: int) -> list:
    """Apply each stacked batch function of fns to the fixed chunks; return,
    per function, its arrays joined over the chunks in chunk order. A batch
    function maps a batch, a list of chunk ranges of one length, to a tuple
    of arrays whose leading axis runs over the batch's rows (or a leading
    part of them). The chunk boundaries bound memory and the numerics.

    With n = min(chunks, usable cores), the chunks are dealt into n fixed,
    interleaved shares (share k holds chunks k, k + n, ...). Process k runs
    share k for every function: its full chunks as one batch and the short
    last chunk, when it is k's, as a batch of its own. The helpers are
    forked once for all functions, and the processes meet once, at the end.

    A failure is the serial chunk loop's, whatever the core count: the
    chunks of every batch that failed or never ran are solved again here,
    one at a time, function by function and in chunk order, and the first
    error is raised. A chunk whose error names it (see :func:`_chunkwise`)
    failed alone already and is not solved again. If none fails alone, the
    first batch error, by function and first chunk, is raised.
    """
    ranges = _chunk_ranges(paths, chunk_size)
    n = min(len(ranges), _usable_cores())
    shares = [[(f, batch) for f in range(len(fns)) for batch in (
        [r for r in ranges[k::n] if len(r) == chunk_size],
        [r for r in ranges[k::n] if len(r) < chunk_size],
    ) if batch] for k in range(n)]
    values = _run_tasks([[functools.partial(fns[f], b) for f, b in share] for share in shares])
    # (function, first chunk, batch, value), by function and first chunk
    done = sorted((f, b[0].start, b, v) for share, share_values in zip(shares, values)
                  for (f, b), v in zip(share, share_values))
    failed = [(f, b, v) for f, _, b, v in done if v is None or isinstance(v, Exception)]
    for f, fn in enumerate(fns):
        lost = [(v.chunk, v) for g, _, v in failed if g == f and hasattr(v, "chunk")]
        lost += [(r, None) for g, b, v in failed if g == f and not hasattr(v, "chunk")
                 for r in b]
        for r, error in sorted(lost, key=lambda c: c[0].start):
            if error is not None:
                raise error
            fn([r])
    if failed:
        raise next(v for *_, v in failed if v is not None)
    out = [[None] * len(ranges) for _ in fns]
    for f, _, batch, arrays in done:
        for i, r in enumerate(batch):
            rows = slice(i * chunk_size, (i + 1) * chunk_size)
            out[f][r.start // chunk_size] = tuple(a[rows] for a in arrays)
    return [_join(results) for results in out]


def _chunkwise(chunk):
    """The batch function that solves its chunks one at a time with chunk,
    which maps a chunk's range to a tuple of arrays. A chunk's error carries
    its range as ``chunk``: it is the error that chunk raises alone."""

    def batch(ranges):
        parts = []
        for r in ranges:
            try:
                parts.append(chunk(r))
            except Exception as exc:
                exc.chunk = r
                raise
        return _join(parts)

    return batch


def _join(per_chunk: list) -> tuple:
    """Each array of the per-chunk tuples, joined over the chunks in order."""
    return tuple(np.concatenate(parts) for parts in zip(*per_chunk))


def _chunk_rows(table: np.ndarray, ranges: list) -> np.ndarray:
    """The rows of table over the chunks of a batch of :func:`_run_stacked`,
    ranges of one length whose starts are evenly spaced, as a view of shape
    (chunks, chunk length) + table.shape[1:] that writes into table."""
    step = ranges[1].start - ranges[0].start if len(ranges) > 1 else 0
    if any(r.start != ranges[0].start + i * step or len(r) != len(ranges[0])
           for i, r in enumerate(ranges)):
        raise ValueError("a batch's chunks must be of one length and evenly spaced")
    return np.lib.stride_tricks.as_strided(
        table[ranges[0].start:], (len(ranges), len(ranges[0])) + table.shape[1:],
        (step * table.strides[0],) + table.strides,
    )


def _chunk_ranges(paths: int, chunk_size: int) -> list:
    return [range(s, min(s + chunk_size, paths)) for s in range(0, paths, chunk_size)]


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_tasks(shares: list) -> list:
    """Run each share, a list of zero-argument callables, in a process of its
    own: a forked helper runs each share but the first, which runs here.
    Return, per share, its callables' values in order, a failing
    callable's exception in its place. A share stops at its first failing
    callable, and its later values stay None. Only a helper that ends
    without its values raises here. No helper outlives the call.
    """
    if not hasattr(os, "fork"):
        return [_run_share(share) for share in shares]
    results = [None] * len(shares)
    helpers = []  # (pid, read end of the pipe that carries its share's values)
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _helper(share, write_fd, [read_fd] + [fd for _, fd in helpers])
            os.close(write_fd)
            helpers.append((pid, read_fd))
        results[0] = _run_share(shares[0])
        for k, (pid, read_fd) in enumerate(helpers, start=1):
            with open(read_fd, "rb", closefd=False) as pipe:
                try:
                    results[k] = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(
                        f"chunk helper process {pid} ended without its results"
                    ) from None
    finally:
        for pid, read_fd in helpers:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _run_share(tasks) -> list:
    """The tasks called in order, up to the first that raises; that task's
    exception stands in its place and later tasks stay None."""
    out = [None] * len(tasks)
    for i, task in enumerate(tasks):
        try:
            out[i] = task()
        except Exception as exc:  # the runner decides what to raise
            out[i] = exc
            break
    return out


def _helper(tasks, write_fd: int, inherited_fds: list):
    """Body of a forked helper: run its share of tasks, pickle the values
    into the pipe and exit. It never returns into the caller's stack, and it
    skips the exit handlers and stream flushes it inherited."""
    code = 1
    try:
        for fd in inherited_fds:
            os.close(fd)
        with open(write_fd, "wb") as pipe:
            pickle.dump(_run_share(tasks), pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _mean_se(samples: np.ndarray, axis=-1) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and its standard error along axis. Samples that are huge
    or not finite give inf or NaN without a numpy warning; the checks decide
    what those values mean."""
    with np.errstate(all="ignore"):
        mean = samples.mean(axis=axis)
        n = samples.shape[axis]
        if n > 1:
            se = samples.std(axis=axis, ddof=1) / math.sqrt(n)
        else:
            se = np.zeros_like(mean)
    return mean, se


# ---------------------------------------------------------------------------
# campaign frame

# command -> campaign, in the order the commands are defined
_COMMANDS = {}


def _campaign(command: str):
    """Register a campaign body as ``command`` in the frame all campaigns
    share. The body writes its CSVs into ``config.out_dir`` and returns the
    config it ran, its checks and its stats; the frame times it, passes the
    run when every check passes, writes ``summary.txt`` next to the CSVs and
    returns the summary."""

    def register(body):
        @functools.wraps(body)
        def run(config: RunConfig) -> RunSummary:
            t_start = time.perf_counter()
            ran, checks, stats = body(config)
            summary = RunSummary(command=command, config=ran, passed=all(checks.values()),
                                 checks=checks, stats=stats,
                                 wall_clock_s=time.perf_counter() - t_start)
            out = Path(ran.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "summary.txt").write_text(summary.to_text())
            return summary

        _COMMANDS[command] = run
        return run

    return register


# ---------------------------------------------------------------------------
# picard campaign


def _theory_constant(model: ModelSpec, name: str, compute, *inputs):
    """compute(), a constant of the theory from the given measured inputs;
    one that overflows from finite inputs, with an OverflowError or to inf,
    is a solver failure that names it, as a state that overflows is."""
    try:
        value = compute()
        if np.isfinite(value).all() or not np.isfinite(inputs).all():
            return value
    except OverflowError:
        pass
    raise SolverError(f"{model.name}: {name} overflows")


@_campaign("picard")
def run_picard_campaign(config: RunConfig) -> tuple:
    model = model_from_config(config)
    grid = config.grid()
    out = Path(config.out_dir)
    k = min(config.dump_paths, config.paths)
    # M dt and C1 need only the model's constants, dt and T: a run that
    # fails on them fails before any chunk is solved
    require_solvable_step(model, grid.dt)
    horizon = config.horizon
    m_const = model.coeffs.semimonotone_m
    c_const = model.coeffs.lipschitz_c
    d_const = model.coeffs.growth_d
    c1 = _theory_constant(
        model, "the rate constant C1 = 2 C (1 + 2 B^2) exp(4 M T)",
        lambda: 2.0 * c_const * (1.0 + 2.0 * config.bdg_constant**2)
        * math.exp(4.0 * m_const * horizon),
    )

    def chunk(path_range):
        # per-iterate arrays leave a chunk as (paths, iterates); the solver
        # keeps the path of the rows the CSV dumps only, and their norms
        # leave the chunk
        noise = draw_noise(model, grid, config.seed, path_range)
        res = picard_solve_batch(
            model, noise, n_max=config.n_max, damping=config.damping,
            inner_tol=config.inner_tol, path_rows=max(0, k - path_range.start),
        )
        x0_sq = weighted_norm_sq(noise.x0, model.weights)
        norms = np.sqrt(weighted_norm_sq(res.values, model.weights))
        return res.distances.T, res.x_sup_sq.T, res.v_sup_sq.T, x0_sq, norms

    *per_path, x0_sq, norms = _run_stacked(
        [_chunkwise(chunk)], config.paths, config.chunk_size
    )[0]
    # back to C-ordered (iterates, paths): means reduce over the last axis
    distances, x_sup, v_sup = (np.ascontiguousarray(a.T) for a in per_path)

    n_iters = distances.shape[0]
    e_mean, e_se = _mean_se(distances)
    c0 = float(e_mean[0])
    bounds = _theory_constant(
        model, f"the predicted bound C0 (C1 T)^n / n! for C1 = {c1:.6g}",
        lambda: predicted_bound(c0, c1, horizon, np.arange(n_iters)), c0,
    )

    # Rate diagnostics: consecutive decay against 2 C1 T / (n + 1), and
    # monotone decrease from the second distance on (ties allowed once the
    # distances sit at the floating point floor). A distance mean that is not
    # finite fails both.
    allowed = 2.0 * c1 * horizon / (np.arange(n_iters) + 1.0)
    ratio_ok = mono_ok = bool(np.isfinite(e_mean).all())
    for n in range(2, min(8, n_iters - 2) + 1):
        if e_mean[n + 1] > allowed[n] * e_mean[n]:
            ratio_ok = False
    for n in range(2, n_iters - 1):
        if e_mean[n + 1] > e_mean[n] and e_mean[n + 1] > 1e-30:
            mono_ok = False

    # Iterate moment bound: E sup ||X^n||^2 against the explicit constant
    # chain, Monte Carlo both sides, two standard errors of slack.
    factor = 3.0 * d_const * horizon**2 * math.exp(2.0 * m_const * horizon)
    coef = 3.0 + 2.0 * factor
    x0_mean, x0_se = _mean_se(x0_sq)
    xs_mean, xs_se = _mean_se(x_sup)
    vs_mean, vs_se = _mean_se(v_sup)
    moment_rows = []
    moment_ok = True
    for n in range(1, min(8, n_iters) + 1):
        lhs = xs_mean[n]
        rhs = factor + coef * (x0_mean + vs_mean[n - 1])
        se_parts = (xs_se[n], coef * x0_se, coef * vs_se[n - 1])
        with np.errstate(over="ignore"):
            se_total = math.sqrt(sum(se ** 2 for se in se_parts))
        if math.isinf(se_total):  # the squares may overflow where the root does not
            se_total = math.hypot(*se_parts)
        ok = lhs <= rhs + 2.0 * se_total
        moment_ok &= ok
        moment_rows.append(
            (n, float(lhs), float(xs_se[n]), float(vs_mean[n - 1]), float(vs_se[n - 1]),
             float(rhs), float(rhs + 2.0 * se_total - lhs), ok)
        )

    rows = []
    for n in range(n_iters):
        ratio = float(e_mean[n] / e_mean[n - 1]) if n >= 1 and e_mean[n - 1] > 0 else float("nan")
        rows.append((n, float(e_mean[n]), float(e_se[n]), float(bounds[n]), ratio, allowed[n]))
    _write_csv(
        out / "picard_iterations.csv", "mildsde-picard-v1",
        ["n", "e_n", "stderr", "predicted_bound", "ratio", "ratio_allowed"], rows,
    )
    _write_csv(
        out / "picard_moments.csv", "mildsde-picard-moments-v1",
        ["n", "x_sup_sq_mean", "x_sup_sq_se", "v_sup_sq_mean", "v_sup_sq_se",
         "bound_rhs", "margin", "passed"], moment_rows,
    )
    path_rows = [
        (float(grid.times[j]), *[float(norms[p, j]) for p in range(k)])
        for j in range(grid.n_steps + 1)
    ]
    _write_csv(
        out / "picard_paths.csv", "mildsde-paths-v1",
        ["t"] + [f"path{p}_norm" for p in range(k)], path_rows,
    )

    checks = {"rate_ratio": ratio_ok, "monotone_decay": mono_ok, "moment_bound": moment_ok}
    stats = {
        "c0": c0, "c1": c1, "e_final": float(e_mean[-1]),
        "iterations": n_iters, "paths": config.paths,
    }
    return config, checks, stats


# ---------------------------------------------------------------------------
# energy-inequality campaign


@_campaign("ito-check")
def run_ito_check(config: RunConfig) -> tuple:
    model = model_from_config(config)
    grid = config.grid()
    fine = grid.refine(2)
    tol_coeff = config.ito_tol_coeff if config.ito_tol_coeff is not None else ITO_TOL_COEFF

    def energy_check(nz, chunk_size, keep_slack):
        # the solver feeds the check cell by cell; no energy term is stored
        norm0_sq = weighted_norm_sq(nz.x0, model.weights)
        rep = ito_inequality_check(
            model.semigroup.alpha, nz.grid, norm0_sq[:, None], np.zeros((nz.n_paths, 0)),
            tol_coeff=tol_coeff, keep_slack=keep_slack,
        )
        direct_solve_batch(model, nz, energy=rep, chunk_size=chunk_size)
        return rep

    # the coarse slack of every path: one table in memory shared with the
    # forked helpers, which each batch fills in place over its chunks' rows,
    # so no slack row is pickled, joined or copied (mmap is imported here,
    # where it is used, so that the other campaigns do not load it)
    import mmap

    m = grid.n_steps
    slack = np.frombuffer(mmap.mmap(-1, config.paths * (m + 1) * 8)).reshape(-1, m + 1)

    def batch(ranges):
        noise_fine = draw_noise(
            model, grid=fine, master_seed=config.seed,
            path_indices=[i for r in ranges for i in r],
        )
        c = len(ranges[0])
        rep = energy_check(coarsen_noise(noise_fine, 2), c, _chunk_rows(slack, ranges))
        if not config.refine_check:
            return (rep.violation_mask(),)
        half = energy_check(noise_fine, c, keep_slack=False)
        return rep.violation_mask(), half.violation_mask()

    coarse_mask, *fine_mask = _run_stacked([batch], config.paths, config.chunk_size)[0]
    rate = float(coarse_mask.mean())
    checks = {"violation_rate": rate <= 0.01}
    stats = {
        "violation_rate": rate, "tolerance": tol_coeff * math.sqrt(grid.dt),
        "min_slack": float(slack.min()),
    }
    if config.refine_check:
        # a check that did not run is not reported
        rate_fine = float(fine_mask[0].mean())
        se_bin = math.sqrt(max(rate * (1 - rate), 1.0 / config.paths) / config.paths)
        checks["refinement_non_increasing"] = rate_fine <= rate + 2.0 * se_bin
        stats["violation_rate_half_dt"] = rate_fine

    # in place: each column is partitioned, so min_slack is read before
    qs = np.quantile(slack, [0.0, 0.01, 0.05, 0.5], axis=0, overwrite_input=True)
    _write_csv(
        Path(config.out_dir, "ito_slack.csv"), "mildsde-ito-v1",
        ["t", "slack_min", "slack_q01", "slack_q05", "slack_median"], zip(grid.times, *qs),
    )
    return config, checks, stats


# ---------------------------------------------------------------------------
# closed-form benchmark


def _fitted_order_se(log_dt, mean_sq, se_mean_sq) -> float:
    """Standard error of the least-squares slope of log2 rms against log_dt,
    by the delta method: log2 rms_k = log2(mean_sq_k) / 2 has standard error
    se_mean_sq_k / (2 mean_sq_k ln 2), and the levels, drawn from disjoint
    path indices, are independent, so the slope sum_k c_k log2 rms_k with
    c_k = (x_k - mean x) / sum (x - mean x)^2 has variance sum c_k^2 se_k^2."""
    x = np.asarray(log_dt, dtype=float)
    c = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    se_log2 = np.asarray(se_mean_sq) / (2.0 * np.asarray(mean_sq) * math.log(2.0))
    return float(math.sqrt(np.sum((c * se_log2) ** 2)))


@_campaign("benchmark")
def run_benchmark_oracle(config: RunConfig) -> tuple:
    p = dict(config.model_params)
    exponents = p.pop("dt_exponents", list(range(6, 13)))
    if not (
        isinstance(exponents, list)
        and all(type(e) is int and e >= 0 for e in exponents)
        and len(set(exponents)) >= 2
    ):
        raise ConfigError(
            "dt_exponents must be a list of at least two distinct integers >= 0, "
            f"got {exponents!r}"
        )
    # the builder takes the other parameters; the summary restates them all,
    # so the run can be repeated from it
    config = dataclasses.replace(config, example="linear_scalar")
    model_config = dataclasses.replace(config, model_params=p)
    model = model_from_config(model_config)
    params = _model_kwargs(model_config)
    a, sigma, x0 = params["a"], params["sigma"], params["x0"]
    nu_mean = model.marks.rate * model.marks.mark_mean

    grids = [TimeGrid(config.horizon, 2**lvl) for lvl in exponents]

    def batch(lvl_index, ranges):
        grid = grids[lvl_index]
        offset = lvl_index * config.paths
        noise = draw_noise(model, grid, config.seed, [offset + i for r in ranges for i in r])
        res = direct_solve_batch(model, noise, path_rows=0, chunk_size=len(ranges[0]))
        p = noise.n_paths
        w_end = noise.wiener_at_horizon()[:, 0] if noise.wiener is not None else np.zeros(p)
        # the closed form on the two points (0, T) is its value at T on the grid
        exact = stochastic_exponential(
            x0, a, sigma, nu_mean, grid.times[[0, -1]],
            np.column_stack([np.zeros(p), w_end]),
            noise.jump_row, noise.jump_time, noise.jump_mark,
        )
        # a numpy scalar's ** 2 goes through pow, which can round unlike
        # the array square; the benchmark CSV keeps the scalar form
        return (np.array([d ** 2 for d in res.terminal[:, 0] - exact[:, -1]]),)

    # every grid's batches in one pool, so the helpers are forked once
    per_grid = _run_stacked(
        [functools.partial(batch, i) for i in range(len(grids))], config.paths, config.chunk_size
    )
    errs = [e for (e,) in per_grid]
    rms = [math.sqrt(float(e.mean())) for e in errs]
    mean_sq = [_mean_se(e) for e in errs]  # (mean, standard error) per grid

    # The absolute bound is checked at dt = 2^-10, or at the finest grid
    # listed when 10 is not; the stat names the grid used.
    checked = 10 if 10 in exponents else max(exponents)
    rms_checked = rms[exponents.index(checked)]
    checks = {"absolute_error": rms_checked < 1e-2}
    stats = {f"rms_dt_2e-{checked}": rms_checked}
    if any(rms):
        # an exact scheme leaves no error to fit an order to, and a check
        # that did not run is not reported
        log_dt = -np.asarray(exponents, dtype=float)
        order = float(np.polyfit(log_dt, np.log2(rms), 1)[0])
        checks["strong_order"] = order >= 0.45
        stats["fitted_order"] = order
        stats["fitted_order_se"] = _fitted_order_se(log_dt, *zip(*mean_sq))

    rows = [(lvl, 2.0 ** (-lvl), float(r), config.paths) for lvl, r in zip(exponents, rms)]
    _write_csv(
        Path(config.out_dir, "benchmark.csv"), "mildsde-benchmark-v1",
        ["dt_exponent", "dt", "rms_error", "paths"], rows,
    )
    return config, checks, stats


# ---------------------------------------------------------------------------
# hypothesis checkers


@_campaign("hypothesis-check")
def run_hypothesis_check(config: RunConfig) -> tuple:
    model = model_from_config(config, validate=False)
    mono, growth = model.check(config.seed)
    rows = [
        ("semimonotone", float(mono.max_ratio), float(mono.declared_m), mono.passed),
        ("diffusion_lipschitz", float(growth.diffusion_lipschitz_max),
         float(model.coeffs.diffusion.lipschitz_c), growth.passed_lipschitz),
        ("jump_lipschitz", float(growth.jump_lipschitz_max),
         float(model.coeffs.jump.lipschitz_c), growth.passed_lipschitz),
        ("combined_lipschitz", float(growth.combined_lipschitz_max),
         float(growth.declared_c), growth.passed_lipschitz),
        ("growth", float(growth.growth_max), float(growth.declared_d), growth.passed_growth),
    ]
    # inf <= inf holds, so a constant that overflows would pass its own row
    rows = [(name, obs, dec, ok and math.isfinite(obs) and math.isfinite(dec))
            for name, obs, dec, ok in rows]
    _write_csv(
        Path(config.out_dir, "hypothesis_checks.csv"), "mildsde-hypothesis-v1",
        ["check", "observed", "declared", "passed"], rows,
    )
    passed = {name: ok for name, _, _, ok in rows}
    checks = {"semimonotone": passed["semimonotone"],
              "lipschitz": all(passed[name] for name in
                               ("diffusion_lipschitz", "jump_lipschitz", "combined_lipschitz")),
              "growth": passed["growth"]}
    stats = {"semimonotone_max_ratio": float(mono.max_ratio),
             "combined_lipschitz_max": float(growth.combined_lipschitz_max),
             "growth_max": float(growth.growth_max)}
    return config, checks, stats


# ---------------------------------------------------------------------------
# direct path dump


@_campaign("simulate")
def run_simulate(config: RunConfig) -> tuple:
    model = model_from_config(config)
    grid = config.grid()
    k = min(config.dump_paths, config.paths)

    def batch(ranges):
        # only the rows the CSV dumps and the terminal states leave a batch
        noise = draw_noise(model, grid, config.seed, [i for r in ranges for i in r])
        kept = int(np.count_nonzero(noise.path_index < k))
        res = direct_solve_batch(model, noise, path_rows=kept, chunk_size=len(ranges[0]))
        return res.values, res.terminal

    dumped, terminal = _run_stacked([batch], config.paths, config.chunk_size)[0]
    rows = []
    for p in range(k):
        for j in range(grid.n_steps + 1):
            rows.append((p, float(grid.times[j]), *[float(v) for v in dumped[p, j]]))
    _write_csv(
        Path(config.out_dir, "simulate_paths.csv"), "mildsde-simulate-v1",
        ["path", "t"] + [f"x{i}" for i in range(model.dim)], rows,
    )
    with np.errstate(over="ignore"):
        norms = np.sqrt(weighted_norm_sq(terminal, model.weights))
    if not np.isfinite(norms).all():
        # the states are finite (the solver fails any that is not), but a
        # norm that overflows would put inf in the summary
        raise SolverError(
            f"{model.name}: the norm of the terminal state overflows at "
            f"t={grid.horizon:.6g}, path row {int(np.argmax(~np.isfinite(norms)))}"
        )
    stats = {"terminal_norm_mean": float(norms.mean()),
             "terminal_norm_max": float(norms.max()), "paths": config.paths}
    return config, {}, stats


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: one line, exit 3."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="mildsde", description="simulation and verification campaigns")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--seed", type=int, help="master seed override")
        cmd.add_argument("--out", help="output directory override")

    try:
        args = parser.parse_args(argv)
        config = RunConfig.from_file(args.config) if args.config else RunConfig()
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["out_dir"] = args.out
        if overrides:
            config = dataclasses.replace(config, **overrides)
        summary = _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    print(summary.to_text(), end="")
    return EXIT_OK if summary.passed else EXIT_DIAGNOSTIC


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
