"""ito-check's coarse slack: one table in memory shared by the processes
that fill it.

Every batch writes its rows of the slack straight into the table, in place,
and returns only its violation masks; the parent reads the table after the
shares end. The CSV must be the one that each chunk's slack, solved alone
and joined in chunk order, gives, at any core count and chunk size.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest

from mildsde import cli
from mildsde.cli import RunConfig, _chunk_ranges, main, model_from_config
from mildsde.convolution import ito_inequality_check
from mildsde.noise import coarsen_noise, draw_noise
from mildsde.solver import SolverError, direct_solve_batch
from mildsde.state_space import weighted_norm_sq

# 40 paths: in chunks of 7, five full chunks and a short one of 5
CONFIG = {
    "example": "delay", "dim": 6, "dt": 0.01, "horizon": 1.0, "paths": 40, "seed": 11,
    "model_params": {"jump_rate": 3.0, "mark_std": 0.5, "mark_mean": 0.1,
                     "levy_gaussian_variance": 0.25},
}


def reference_slack(config: dict) -> np.ndarray:
    """The (paths, m+1) coarse slack of config, each chunk solved alone on a
    report that keeps its own table, joined in chunk order."""
    config = RunConfig.from_dict(config)
    model = model_from_config(config)
    fine = config.grid().refine(2)
    parts = []
    for r in _chunk_ranges(config.paths, config.chunk_size):
        nz = coarsen_noise(draw_noise(model, fine, config.seed, r), 2)
        norm0_sq = weighted_norm_sq(nz.x0, model.weights)[:, None]
        rep = ito_inequality_check(model.semigroup.alpha, nz.grid, norm0_sq,
                                   np.zeros((len(r), 0)))
        direct_solve_batch(model, nz, energy=rep, chunk_size=len(r))
        parts.append(rep.slack)
    return np.concatenate(parts)


def slack_csv(slack: np.ndarray, times: np.ndarray) -> bytes:
    """ito_slack.csv of a slack table, from a copy's quantiles."""
    qs = np.quantile(slack, [0.0, 0.01, 0.05, 0.5], axis=0)
    lines = ["# schema: mildsde-ito-v1", "t,slack_min,slack_q01,slack_q05,slack_median"]
    lines += [",".join(repr(float(v)) for v in (t, *q)) for t, q in zip(times, qs.T)]
    return ("\n".join(lines) + "\n").encode()


def run(tmp_path, monkeypatch, capsys, config, cpus):
    """(exit code, stderr, CSV bytes or None, summary stats by key, the
    shared slack table) of one ito-check run with ``cpus`` usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    tables = []
    chunk_rows = cli._chunk_rows

    def recording_chunk_rows(table, ranges):
        tables.append(table)
        return chunk_rows(table, ranges)

    monkeypatch.setattr(cli, "_chunk_rows", recording_chunk_rows)
    out = tmp_path / f"out-{cpus}-{len(list(tmp_path.iterdir()))}"
    path = out.with_suffix(".json")
    path.write_text(json.dumps(dict(config, out_dir=str(out))))
    capsys.readouterr()
    code = main(["ito-check", "--config", str(path)])
    err = capsys.readouterr().err
    monkeypatch.undo()
    # the parent's batches all read the one table
    assert tables and all(t is tables[0] for t in tables)
    csv = out / "ito_slack.csv"
    stats = {}
    if (out / "summary.txt").exists():
        for line in (out / "summary.txt").read_text().splitlines():
            key, _, value = line.partition(" = ")
            stats[key] = value
    return code, err, csv.read_bytes() if csv.exists() else None, stats, tables[0]


@pytest.mark.parametrize("chunk_size, refine", [(7, True), (16, True), (64, True), (16, False)])
def test_csv_is_that_of_the_joined_chunk_slacks(tmp_path, monkeypatch, capsys, chunk_size,
                                                refine):
    config = dict(CONFIG, chunk_size=chunk_size, refine_check=refine)
    slack = reference_slack(config)
    want = slack_csv(slack, RunConfig.from_dict(config).grid().times)
    for cpus in (1, 2):
        code, _, csv, stats, table = run(tmp_path, monkeypatch, capsys, config, cpus)
        assert code in (0, 2) and csv == want
        assert stats["stat.min_slack"] == repr(float(slack.min()))
        assert ("stat.violation_rate_half_dt" in stats) == refine
        # the table holds every path's slack, each column partitioned in
        # place by the quantiles
        assert table.shape == slack.shape
        assert np.sort(table, axis=0).tobytes() == np.sort(slack, axis=0).tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_batches_return_only_their_masks(tmp_path, monkeypatch, capsys, cpus):
    # every value that comes back from a share, pickled from a helper or
    # not, is a tuple of per-path flags; no slack row travels
    values = []
    run_tasks = cli._run_tasks

    def recording_run_tasks(shares):
        out = run_tasks(shares)
        values.extend(v for share in out for v in share)
        return out

    for refine in (True, False):
        config = dict(CONFIG, chunk_size=7, refine_check=refine)
        values.clear()
        monkeypatch.setattr(cli, "_run_tasks", recording_run_tasks)
        assert run(tmp_path, monkeypatch, capsys, config, cpus)[0] in (0, 2)
        # one core: chunks 0-4 and 5; two: chunks 0, 2, 4, then 1, 3 and 5
        assert len(values) == {1: 2, 2: 3}[cpus]
        for value in values:
            assert isinstance(value, tuple) and len(value) == 1 + refine
            assert all(a.dtype == bool and a.ndim == 1 for a in value)


@pytest.mark.parametrize("cpus", [1, 2])
def test_failed_batch_rows_are_rewritten_by_the_parent(tmp_path, monkeypatch, capsys, cpus):
    # every batch of more than one chunk writes its rows, spoils them and
    # fails; the parent solves each chunk again on its own, which rewrites
    # the chunk's rows of the shared table, and raises the batch's error
    config = dict(CONFIG, chunk_size=7)
    solve = cli.direct_solve_batch

    def failing_solve(model, noise, energy=None, **kwargs):
        res = solve(model, noise, energy=energy, **kwargs)
        if energy is not None and energy.slack is not None and len(energy.slack) > 1:
            energy.slack[...] = -1.0
            raise SolverError("stacked batch failed")
        return res

    monkeypatch.setattr(cli, "direct_solve_batch", failing_solve)
    code, err, csv, _, table = run(tmp_path, monkeypatch, capsys, config, cpus)
    assert (code, err, csv) == (4, "solver failure: stacked batch failed\n", None)
    assert table.tobytes() == reference_slack(config).tobytes()


def test_end_phase_traces_well_under_one_slack_table(tmp_path, monkeypatch, capsys):
    # from the end of the shares to the CSV write the parent holds the
    # table it shares, reads its minimum and takes its quantiles in place:
    # it allocates no table-sized array (joining the halves and a copy for
    # the quantiles took twice the table)
    config = dict(CONFIG, paths=256, dt=0.001, chunk_size=64, refine_check=False)
    table_bytes = 256 * 1001 * 8
    np.quantile(np.zeros((3, 2)), 0.5, axis=0)  # its first call imports numpy.ma
    peaks = []
    run_tasks, write_csv = cli._run_tasks, cli._write_csv

    def tracing_run_tasks(shares):
        out = run_tasks(shares)
        tracemalloc.start()
        return out

    def measured_write_csv(*args):
        write_csv(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

    monkeypatch.setattr(cli, "_run_tasks", tracing_run_tasks)
    monkeypatch.setattr(cli, "_write_csv", measured_write_csv)
    try:
        code = run(tmp_path, monkeypatch, capsys, config, 2)[0]
    finally:
        tracemalloc.stop()
    assert code in (0, 2) and len(peaks) == 1
    assert peaks[0] < table_bytes / 4
