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

from mildsde.cli import _chunkwise, _run_stacked, main
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


def run_chunks(fn, paths, chunk_size):
    """The arrays of the chunk function fn, which maps one chunk's path range
    to a tuple of arrays, joined over the fixed chunks: the stacked runner
    with a batch function that solves its chunks one at a time, as the
    picard campaign does."""
    return _run_stacked([_chunkwise(fn)], paths, chunk_size)[0]


def chunk_owner(failing=()):
    """A chunk function returning, per row, its path index, the first path
    index of its chunk and the process it ran in; it fails on the chunks
    whose first path index is listed."""

    def fn(path_range):
        if path_range.start in failing:
            raise SolverError(f"chunk at path {path_range.start} failed")
        rows = np.array(path_range)
        return rows, np.full(len(rows), path_range.start), np.full(len(rows), os.getpid())

    return fn


@pytest.mark.parametrize("cpus", [2, 3])
def test_results_come_back_in_chunk_order(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    rows, starts, row_pids = run_chunks(chunk_owner(), 11, 2)
    assert rows.tolist() == list(range(11))
    # each chunk got its own range, and the chunks are joined in order
    assert starts.tolist() == [s - s % 2 for s in range(11)]
    pids = row_pids[::2].tolist()  # per chunk, from its first row
    assert pids[0] == os.getpid()  # chunk 0 runs in the calling process
    assert pids[::cpus] == [os.getpid()] * len(pids[::cpus])
    assert len(set(pids)) == cpus
    assert_no_children()


@pytest.mark.parametrize("cpus", [2, 3])
def test_short_last_chunk_runs_with_its_share(monkeypatch, cpus):
    # 11 paths in chunks of 2: the short chunk 5 runs in the process of
    # share 5 % cpus, which holds one full chunk fewer than share 0
    use_cpus(monkeypatch, cpus)
    pids = run_chunks(chunk_owner(), 11, 2)[2][::2].tolist()  # per chunk
    assert pids == [pids[k % cpus] for k in range(6)]
    assert pids[5] != os.getpid()
    assert_no_children()


@pytest.mark.parametrize("cpus, failing", [(1, 6), (2, 6), (2, 4), (3, 10)])
def test_chunk_failing_one_at_a_time_is_not_solved_again(monkeypatch, cpus, failing):
    # a chunk-by-chunk batch names the chunk that failed, so no chunk is
    # solved twice: this process solves only the chunks of its own share,
    # up to the failing one when that is its own
    use_cpus(monkeypatch, cpus)
    solved = []
    fn = chunk_owner((failing,))

    def counted(path_range):
        solved.append(path_range.start)
        return fn(path_range)

    with pytest.raises(SolverError, match=f"chunk at path {failing} failed"):
        run_chunks(counted, 12, 2)
    own = list(range(0, 12, 2 * cpus))  # the first paths of share 0's chunks
    if failing in own:
        own = own[: own.index(failing) + 1]
    assert solved == own
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
        run_chunks(chunk_owner(failing), 12, 2)
    assert str(pooled.value) == f"chunk at path {raised} failed"
    assert_no_children()
    use_cpus(monkeypatch, 1)
    with pytest.raises(SolverError) as serial:
        run_chunks(chunk_owner(failing), 12, 2)
    assert str(serial.value) == str(pooled.value)


def test_interrupted_caller_stops_its_helpers(monkeypatch):
    use_cpus(monkeypatch, 2)

    def fn(path_range):
        if path_range.start == 0:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_chunks(fn, 4, 2)
    assert time.perf_counter() - start < 30
    assert_no_children()


def test_helper_that_dies_is_reported(monkeypatch):
    use_cpus(monkeypatch, 2)

    def fn(path_range):
        if path_range.start == 2:
            os._exit(3)
        return (np.array(path_range),)

    with pytest.raises(RuntimeError, match="ended without its results"):
        run_chunks(fn, 4, 2)
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
    rows, firsts, row_pids, below_5 = _run_stacked([batch_owner()], 11, 2)[0]
    assert rows.tolist() == list(range(11))
    # share k's full chunks ran as one batch that starts at its first chunk,
    # the short last chunk as a batch of its own
    chunk_firsts = [2 * (k % cpus) for k in range(5)]
    assert firsts.tolist() == [f for f in chunk_firsts for _ in range(2)] + [10]
    pids = row_pids[::2].tolist()  # per chunk, from its first row
    assert pids[::cpus] == [os.getpid()] * len(pids[::cpus])
    assert len(set(pids)) == cpus
    # arrays over a leading part of a batch are cut back in chunk order
    assert below_5.tolist() == [0, 1, 2, 3, 4]
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
        _run_stacked([batch_owner(failing)], 11, 2)
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
    for fn, arrays in zip(fns, pooled):
        alone = _run_stacked([fn], 11, 2)[0]
        assert len(arrays) == len(alone)
        assert len(arrays[0]) == len(alone[0]) == 11
        assert arrays[0].tolist() == alone[0].tolist()
    # batch composition is that of a single function's run
    firsts = pooled[0][1][::2].tolist()  # per chunk, from its first row
    assert firsts == [2 * (k % cpus) for k in range(5)] + [10]
    # one set of processes ran the batches of every function
    pids = [set(pooled[f][2].tolist()) for f in (0, 2)]
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


# marks so wide that states overflow in several chunks
OVERFLOW = {"example": "linear_scalar", "dt": 0.01, "paths": 64, "chunk_size": 8,
            "model_params": {"mark_std": 1e200}}


@pytest.mark.parametrize("command, seed", [("benchmark", 0), ("simulate", 1)])
def test_euler_failure_is_the_serial_loops(tmp_path, monkeypatch, capsys, command, seed):
    # a stacked batch fails at the first step where any of its chunks
    # overflows; the error raised is that of the lowest chunk that fails
    # alone, at any core count
    config = dict(OVERFLOW, seed=seed)
    code, err, _, _ = run_command(tmp_path, monkeypatch, capsys, command, config, 1)
    assert code == 4 and err.count("\n") == 1
    for cpus in (2, 3):
        assert run_command(tmp_path, monkeypatch, capsys, command, config, cpus)[:2] == (code, err)
    assert_no_children()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_failing_batch_is_solved_again_chunk_by_chunk(monkeypatch, cpus):
    # a batch fails naming every bad row it holds; the raised error is the
    # one the lowest failing chunk raises alone
    use_cpus(monkeypatch, cpus)

    def fn(ranges):
        rows = [i for r in ranges for i in r]
        bad = [i for i in rows if i in (5, 9)]
        if bad:
            raise SolverError(f"rows {bad}")
        return (np.array(rows),)

    with pytest.raises(SolverError) as raised:
        _run_stacked([fn], 11, 2)
    assert str(raised.value) == "rows [5]"
    assert_no_children()


def test_picard_outputs_hardly_depend_on_chunk_size(tmp_path, monkeypatch, capsys):
    # each row of the implicit step retires on its own first accepted sweep,
    # so a row's solve sees the other rows of its chunk only through the
    # rounding of the products, whose height is the count of live rows.
    # Measured at seeds 1-3 of this config: e_n identical at chunk sizes 7,
    # 16 and 64, path norms within 7e-22 (rows in the cube root's extinction
    # basin). When the step swept a whole chunk until its worst row accepted,
    # e_n moved by 5.7e-6 to 2.7e-3 relative and the path norms by 3e-6 to
    # 8e-6. A row whose acceptance flips on that rounding may move by up to
    # the step's tolerance, so the bounds are loose against the first
    # figures and tight against the second.
    config = dict(example="reaction_diffusion", dim=4, dt=0.01, horizon=1.0, paths=32,
                  n_max=4, seed=3, dump_paths=32, model_params=JUMPS)
    runs = {}
    for size in (7, 16, 64):
        (tmp_path / str(size)).mkdir()
        code, err, csvs, _ = run_command(tmp_path / str(size), monkeypatch, capsys, "picard",
                                         dict(config, chunk_size=size), None)
        assert (code, err) == (0, "")
        runs[size] = [
            np.loadtxt(csvs[name].decode().splitlines()[2:], delimiter=",", ndmin=2)
            for name in ("picard_iterations.csv", "picard_paths.csv")
        ]
    e_ref, paths_ref = runs[64]
    for size in (7, 16):
        e_n, paths = runs[size]
        np.testing.assert_allclose(e_n[:, 1], e_ref[:, 1], rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(paths[:, 1:], paths_ref[:, 1:], rtol=0.0, atol=1e-12)
