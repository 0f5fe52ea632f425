"""Chunked campaign execution: the chunks of a campaign run on forked
helpers plus the calling process, and the outputs, the raised error and the
process table must be exactly those of the serial loop.

The core count comes from ``os.sched_getaffinity``; tests fix it by
monkeypatching so the helpers run on any machine.
"""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from mildsde.cli import _run_chunks, _run_stacked, main
from mildsde.solver import SolverError

JUMPS = {"jump_rate": 3.0, "mark_std": 0.5, "mark_mean": 0.1}
# 7 paths in chunks of 2: four chunks, the last one short.
BASE = {"dt": 0.01, "horizon": 1.0, "paths": 7, "chunk_size": 2, "seed": 21, "dump_paths": 7}

COMMANDS = {
    "picard": dict(BASE, example="reaction_diffusion", dim=4, n_max=3, model_params=JUMPS),
    "ito-check": dict(
        BASE, example="delay", dim=6, model_params=dict(JUMPS, levy_gaussian_variance=0.25)
    ),
    "benchmark": dict(
        BASE, example="linear_scalar", model_params=dict(JUMPS, dt_exponents=[5, 6, 7])
    ),
    "simulate": dict(
        BASE, example="hyperbolic", dim=3, model_params=dict(JUMPS, levy_gaussian_variance=0.04)
    ),
}


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_children():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_command(tmp_path, monkeypatch, capsys, command, config, cpus):
    """Exit code, stderr, CSV bytes by name and summary lines (without the
    wall clock and output directory) of one run, with ``cpus`` usable cores
    (None: as is)."""
    if cpus is not None:
        use_cpus(monkeypatch, cpus)
    out = tmp_path / f"out-{cpus}"
    path = tmp_path / f"config-{cpus}.json"
    path.write_text(json.dumps(dict(config, out_dir=str(out))))
    capsys.readouterr()
    code = main([command, "--config", str(path)])
    err = capsys.readouterr().err
    monkeypatch.undo()
    csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    summary = [
        line for line in (out / "summary.txt").read_text().splitlines()
        if not line.startswith(("wall_clock_s", "config.out_dir"))
    ] if (out / "summary.txt").exists() else []
    return code, err, csvs, summary


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_pooled_and_serial_outputs_match(tmp_path, monkeypatch, capsys, command):
    serial = run_command(tmp_path, monkeypatch, capsys, command, COMMANDS[command], 1)
    assert serial[0] in (0, 2) and serial[2]  # 7 paths may fail a diagnostic
    for cpus in (None, 2, 3):
        assert run_command(tmp_path, monkeypatch, capsys, command, COMMANDS[command], cpus) == serial
    assert_no_children()


def test_solver_divergence_exits_4_with_the_serial_message(tmp_path, monkeypatch, capsys):
    # four one-path chunks of which only chunk 1, a helper's, diverges
    config = {
        "example": "reaction_diffusion", "dim": 4, "dt": 1e-2, "paths": 4, "chunk_size": 1,
        "seed": 1, "n_max": 10, "model_params": {"jump_rate": 20.0, "mark_std": 2.0},
    }
    code, err, _, _ = run_command(tmp_path, monkeypatch, capsys, "picard", config, 1)
    assert code == 4
    assert err.startswith("solver failure: ") and err.count("\n") == 1
    for cpus in (2, 3):
        assert run_command(tmp_path, monkeypatch, capsys, "picard", config, cpus)[:2] == (code, err)
    assert_no_children()


def chunk_owner(failing=()):
    """A chunk function recording where each chunk ran, failing on the
    chunks whose first path index is listed."""

    def fn(path_range):
        if path_range.start in failing:
            raise SolverError(f"chunk at path {path_range.start} failed")
        return path_range, os.getpid()

    return fn


@pytest.mark.parametrize("cpus", [2, 3])
def test_results_come_back_in_chunk_order(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    results = _run_chunks(chunk_owner(), 11, 2)
    assert [r for r, _ in results] == [range(s, min(s + 2, 11)) for s in range(0, 11, 2)]
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid()  # chunk 0 runs in the calling process
    assert pids[::cpus] == [os.getpid()] * len(pids[::cpus])
    assert len(set(pids)) == cpus
    assert_no_children()


@pytest.mark.parametrize(
    "cpus, failing, raised",
    [
        (2, (6,), 6),  # only a helper's chunk (3) fails
        (3, (10,), 10),  # only the second helper's chunk (5) fails
        (2, (4, 2), 2),  # the caller's chunk 2 and the helper's chunk 1
        (2, (6, 4), 4),  # the helper's chunk 3 and the caller's chunk 2
        (3, (10, 8), 8),  # the second helper's chunk 5 and the first's chunk 4
    ],
)
def test_lowest_failing_chunk_is_raised(monkeypatch, cpus, failing, raised):
    use_cpus(monkeypatch, cpus)
    with pytest.raises(SolverError) as pooled:
        _run_chunks(chunk_owner(failing), 12, 2)
    assert str(pooled.value) == f"chunk at path {raised} failed"
    assert_no_children()
    use_cpus(monkeypatch, 1)
    with pytest.raises(SolverError) as serial:
        _run_chunks(chunk_owner(failing), 12, 2)
    assert str(serial.value) == str(pooled.value)


def test_interrupted_caller_stops_its_helpers(monkeypatch):
    use_cpus(monkeypatch, 2)

    def fn(path_range):
        if path_range.start == 0:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _run_chunks(fn, 4, 2)
    assert time.perf_counter() - start < 30
    assert_no_children()


def test_helper_that_dies_is_reported(monkeypatch):
    use_cpus(monkeypatch, 2)

    def fn(path_range):
        if path_range.start == 2:
            os._exit(3)
        return path_range

    with pytest.raises(RuntimeError, match="ended without its results"):
        _run_chunks(fn, 4, 2)
    assert_no_children()


def batch_owner(failing=()):
    """A stacked batch function returning, per row, its path index, the
    first path index of its batch and the process it ran in, plus the rows
    below 5 only (a leading part of the batch); it fails on the batches
    whose first path index is listed."""

    def fn(ranges):
        rows = np.array([i for r in ranges for i in r])
        if rows[0] in failing:
            raise SolverError(f"batch at path {rows[0]} failed")
        return rows, np.full(len(rows), rows[0]), np.full(len(rows), os.getpid()), rows[rows < 5]

    return fn


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_stacked_shares_solve_their_full_chunks_as_one_batch(monkeypatch, cpus):
    # 11 paths in chunks of 2: five full chunks and a short last one
    use_cpus(monkeypatch, cpus)
    results = _run_chunks(batch_owner(), 11, 2, stacked=True)
    chunks = [range(s, min(s + 2, 11)) for s in range(0, 11, 2)]
    assert [r[0].tolist() for r in results] == [list(c) for c in chunks]
    # share k's full chunks ran as one batch that starts at its first chunk,
    # the short last chunk as a batch of its own
    firsts = [int(r[1][0]) for r in results]
    assert firsts == [chunks[k % cpus].start for k in range(5)] + [10]
    assert all(len(set(r[1].tolist())) == 1 for r in results)
    pids = [int(r[2][0]) for r in results]
    assert pids[::cpus] == [os.getpid()] * len(pids[::cpus])
    assert len(set(pids)) == cpus
    # arrays over a leading part of a batch are cut back in chunk order
    assert np.concatenate([r[3] for r in results]).tolist() == [0, 1, 2, 3, 4]
    assert_no_children()


@pytest.mark.parametrize(
    "cpus, failing, raised",
    [
        (2, (2,), 2),  # the helper's batch of chunks 1, 3
        (2, (0, 2), 0),  # the caller's batch and the helper's
        (3, (10,), 10),  # the short last chunk, the second helper's own batch
        (3, (4, 10), 4),  # both batches of the second helper's share
    ],
)
def test_stacked_lowest_failing_batch_is_raised(monkeypatch, cpus, failing, raised):
    use_cpus(monkeypatch, cpus)
    with pytest.raises(SolverError) as pooled:
        _run_chunks(batch_owner(failing), 11, 2, stacked=True)
    assert str(pooled.value) == f"batch at path {raised} failed"
    assert_no_children()


def rows_times(factor):
    """A stacked batch function returning its rows times factor."""

    def fn(ranges):
        return (factor * np.array([i for r in ranges for i in r]),)

    return fn


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_stacked_functions_in_one_pool_match_separate_runs(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    fns = [batch_owner(), rows_times(10), batch_owner()]
    pooled = _run_stacked(fns, 11, 2)
    for fn, results in zip(fns, pooled):
        alone = _run_chunks(fn, 11, 2, stacked=True)
        assert len(results) == len(alone) == 6
        for r, s in zip(results, alone):
            assert r[0].tolist() == s[0].tolist()
    # batch composition is that of a single function's run
    firsts = [int(r[1][0]) for r in pooled[0]]
    assert firsts == [2 * (k % cpus) for k in range(5)] + [10]
    # one set of processes ran the batches of every function
    pids = [{int(r[2][0]) for r in pooled[f]} for f in (0, 2)]
    assert pids[0] == pids[1] and len(pids[0]) == cpus
    assert_no_children()


def failing_at(name, starts):
    """A stacked batch function failing on the batches whose first path
    index is listed."""

    def fn(ranges):
        if ranges[0].start in starts:
            raise SolverError(f"{name} at path {ranges[0].start}")
        return (np.array([i for r in ranges for i in r]),)

    return fn


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize(
    "failing, raised",
    [
        (((), (10,)), "b at path 10"),  # only the second function fails
        (((10,), (0,)), "a at path 10"),  # the first function's batches come first
        (((10, 0), ()), "a at path 0"),  # within a function, by first chunk
    ],
)
def test_stacked_pool_raises_the_first_failing_task(monkeypatch, cpus, failing, raised):
    use_cpus(monkeypatch, cpus)
    fns = [failing_at("a", failing[0]), failing_at("b", failing[1])]
    with pytest.raises(SolverError) as pooled:
        _run_stacked(fns, 11, 2)
    assert str(pooled.value) == raised
    assert_no_children()
