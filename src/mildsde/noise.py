"""Reproducible noise: the time grid, per-path streams, mark spaces, and the
frozen realizations both solvers read.

All randomness flows through numpy Generators. Per-path streams are derived
from (master seed, path index) via SeedSequence spawn keys, so paths are
reproducible independently of batching. A realization keeps its jumps once,
as flat arrays sorted by (cell, row, time), and its Wiener increments as
per-row streams: each row's generator state before its Wiener draws, from
which the solvers regenerate the increments a block of steps at a time, so no
campaign holds a (paths, steps, modes) table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .solver import ModelSpec

__all__ = [
    "TimeGrid",
    "MarkSpaceSpec",
    "path_rng",
    "WIENER_BLOCK",
    "WienerStreams",
    "NoiseRealization",
    "draw_noise",
    "coarsen_noise",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_m = horizon."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError("horizon must be > 0")
        if self.n_steps < 1:
            raise ValueError("grid needs at least one step")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def refine(self, factor: int) -> "TimeGrid":
        return TimeGrid(self.horizon, self.n_steps * factor)

    def cell_of(self, t):
        """Cell index whose half-open interval (t_j, t_{j+1}] contains t;
        elementwise (an int array) when t is an array."""
        idx = np.clip(np.ceil(np.asarray(t) / self.dt).astype(int) - 1, 0, self.n_steps - 1)
        return idx if idx.ndim else int(idx)


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Independent stream for one path, stable under batching."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(path_index),))
    return np.random.default_rng(seq)


@dataclass(eq=False)
class MarkSpaceSpec:
    """Finite-activity mark space: total intensity mass plus a mark sampler.

    ``rate`` is the total mass of the intensity measure (jumps arrive as a
    Poisson process with this rate); ``sample_marks(rng, size)`` draws marks
    from the normalized intensity. ``mark_mean`` and ``mark_second_moment``
    are the declared first and second moments of a single mark under that
    normalized law; the compensators are built from the mean.
    """

    rate: float
    sample_marks: Callable[[np.random.Generator, int], np.ndarray]
    mark_second_moment: float
    mark_mean: float

    def __post_init__(self):
        if self.rate < 0.0:
            raise ValueError("intensity mass must be >= 0")
        if self.mark_second_moment < 0.0:
            raise ValueError("second moment must be finite and >= 0")


# Steps per block of regenerated Wiener increments: a block holds
# (paths, WIENER_BLOCK, modes) values, about 1 MB for 512 rows of one mode.
WIENER_BLOCK = 256


@dataclass(eq=False)
class WienerStreams:
    """Wiener increments kept as generators rather than as a table.

    Row r's increments on the grid they were drawn on are the standard
    normals ``generators[r]`` draws from ``states[r]`` on, ``modes`` per step
    and in C order, times ``scale``. Each entry of ``factors`` is a
    coarsening: groups of that many consecutive steps are summed, in the
    order the coarsenings were applied. ``ends`` (rows, modes) holds each
    row's sum of all its increments before any coarsening, added in step
    order when they were drawn.

    A pass over the blocks resets every generator to its recorded state, so
    passes over one set of streams (a realization and its coarsenings share
    it) must not interleave; a pass that is overtaken raises.
    """

    generators: list
    states: list
    ends: np.ndarray
    modes: int
    scale: float
    factors: tuple = ()
    # the current pass, in a list that coarsened copies share
    _pass: list = field(default_factory=lambda: [None])

    def blocks(self, n_steps: int):
        """Yield the increments (rows, b, modes) of consecutive blocks of
        b <= WIENER_BLOCK steps, covering n_steps steps in order. Each block
        lives in a buffer the next block reuses."""
        token = self._pass[0] = object()
        for gen, state in zip(self.generators, self.states):
            gen.bit_generator.state = state
        rows, fine = len(self.generators), math.prod(self.factors)
        buf = np.empty((rows, WIENER_BLOCK * fine, self.modes))
        for start in range(0, n_steps, WIENER_BLOCK):
            if self._pass[0] is not token:
                raise RuntimeError("another pass over these Wiener streams started")
            b = min(WIENER_BLOCK, n_steps - start)
            block = buf[:, : b * fine]
            for gen, row in zip(self.generators, block):
                gen.standard_normal(out=row)
            block *= self.scale
            for f in self.factors:
                block = block.reshape(rows, -1, f, self.modes).sum(axis=2)
            yield block


@dataclass(eq=False)
class NoiseRealization:
    """Frozen noise for a batch of paths on one grid.

    ``wiener`` holds the rows' Wiener increments as streams (None without
    Wiener modes); :meth:`wiener_blocks` regenerates them block by block and
    ``dW`` is the whole (paths, n_steps, modes) table, built only when read.
    ``x0`` (paths, dim) holds one initial state per row, a copy of the
    model's. Jump event e hits path row ``jump_row[e]`` at time
    ``jump_time[e]`` with mark ``jump_mark[e]``, binned into cell
    ``jump_cell[e]``; events are sorted by (cell, row, time), so each cell's
    events form one contiguous slice. ``path_index`` (paths,) holds each
    row's global path index, the stream index :func:`draw_noise` drew it
    from; without one, rows count from 0.
    """

    grid: TimeGrid
    wiener: WienerStreams | None
    x0: np.ndarray
    jump_row: np.ndarray
    jump_cell: np.ndarray
    jump_time: np.ndarray
    jump_mark: np.ndarray
    path_index: np.ndarray | None = None

    def __post_init__(self):
        if self.path_index is None:
            self.path_index = np.arange(self.n_paths)

    @property
    def n_paths(self) -> int:
        return self.x0.shape[0]

    def wiener_blocks(self):
        """The Wiener increments (paths, b, modes) of consecutive blocks of
        b <= WIENER_BLOCK steps, in step order (see
        :meth:`WienerStreams.blocks`)."""
        if self.wiener is None:
            return iter(())
        return self.wiener.blocks(self.grid.n_steps)

    @cached_property
    def dW(self) -> np.ndarray:
        """The Wiener table (paths, n_steps, modes). The solvers never read it;
        building it costs one pass over the streams and its memory."""
        modes = 0 if self.wiener is None else self.wiener.modes
        table = np.zeros((self.n_paths, self.grid.n_steps, modes))
        start = 0
        for block in self.wiener_blocks():
            table[:, start : start + block.shape[1]] = block
            start += block.shape[1]
        return table

    def wiener_at_horizon(self) -> np.ndarray:
        """W(T) of each row and mode (paths, modes): the increments of the
        grid the noise was drawn on, added in step order as ``np.cumsum``
        adds them. A coarsening keeps the drawn grid's sum."""
        if self.wiener is None:
            return np.zeros((self.n_paths, 0))
        return self.wiener.ends

    @cached_property
    def events_by_path(self) -> list[tuple[tuple[float, float], ...]]:
        """Read-only per-path view: the (time, mark) pairs of each row in time
        order. Built once per realization."""
        order = np.argsort(self.jump_row, kind="stable")
        pairs = list(zip(self.jump_time[order].tolist(), self.jump_mark[order].tolist()))
        ends = np.cumsum(np.bincount(self.jump_row, minlength=self.n_paths)).tolist()
        return [tuple(pairs[s:e]) for s, e in zip([0] + ends[:-1], ends)]


def _binned(grid, wiener, x0, row, time, mark, path_index) -> NoiseRealization:
    """Realization with its events binned on ``grid`` and sorted by (cell,
    row); the sort is stable, so events of one row and cell keep their given
    order, which must be time order."""
    cell = grid.cell_of(time)
    order = np.lexsort((row, cell))
    return NoiseRealization(
        grid, wiener, x0, row[order], cell[order], time[order], mark[order], path_index
    )


def draw_noise(
    model: ModelSpec, grid: TimeGrid, master_seed: int, path_indices
) -> NoiseRealization:
    """Draw (Wiener streams, jump events) for each path index; every row
    starts from a copy of ``model.x0``.

    Streams depend only on (master_seed, path_index), so batching never
    changes a path's realization. Draw order per path is fixed:
    Wiener increments, jump count, jump times, marks. The Wiener values are
    drawn here only to reach the jump draws that follow them; the row keeps
    its generator, the state it had before them and their sum, W(T).
    """
    path_indices = list(path_indices)
    p, m = len(path_indices), grid.n_steps
    modes = model.wiener_modes
    marks = model.marks
    rate = marks.rate if marks is not None else 0.0
    x0 = np.zeros((p, model.dim))
    x0[:] = model.x0
    generators, states = [], []
    sqrt_dt = math.sqrt(grid.dt)
    increments = np.empty((m, modes))
    ends = np.zeros((p, modes))
    counts, times, draws = [], [np.zeros(0)], [np.zeros(0)]
    for row, idx in enumerate(path_indices):
        rng = path_rng(master_seed, idx)
        if modes > 0:
            generators.append(rng)
            states.append(rng.bit_generator.state)
            rng.standard_normal(out=increments)
            increments *= sqrt_dt
            ends[row] = np.cumsum(increments, axis=0)[-1]
        count = int(rng.poisson(rate * grid.horizon)) if rate > 0.0 else 0
        if count > 0:
            times.append(np.sort(rng.uniform(0.0, grid.horizon, size=count)))
            draws.append(np.asarray(marks.sample_marks(rng, count), dtype=float))
        counts.append(count)
    wiener = WienerStreams(generators, states, ends, modes, sqrt_dt) if modes > 0 else None
    rows = np.repeat(np.arange(p), counts)
    return _binned(
        grid, wiener, x0, rows, np.concatenate(times), np.concatenate(draws),
        np.array(path_indices, dtype=int),
    )


def coarsen_noise(noise: NoiseRealization, factor: int) -> NoiseRealization:
    """The same realization seen on a grid coarsened by an integer factor.

    Wiener increments aggregate over groups of fine cells, summed block by
    block as the streams are read; jump events are re-binned. Used for
    same-realization refinement comparisons.
    """
    grid = noise.grid
    if grid.n_steps % factor != 0:
        raise ValueError("coarsening factor must divide the step count")
    coarse = TimeGrid(grid.horizon, grid.n_steps // factor)
    wiener = noise.wiener
    if wiener is not None:
        wiener = replace(wiener, factors=wiener.factors + (factor,))
    return _binned(
        coarse, wiener, noise.x0, noise.jump_row, noise.jump_time, noise.jump_mark,
        noise.path_index,
    )
