"""Reproducible noise: the time grid, per-path streams, mark spaces, and the
frozen realizations both solvers read.

All randomness flows through numpy Generators. Path i of master seed s draws
from the PCG64 stream of ``SeedSequence(entropy=s, spawn_key=(i,))``, so
paths are reproducible independently of batching. The four 64-bit seed words
of those streams are computed for a whole batch of path indices at once by
:func:`_seed_words`, which runs numpy's SeedSequence hash (O'Neill's
``seed_seq_fe``: mix the entropy words into a pool of four, then draw the
state words from the pool) over uint32 arrays with one column per path, and
each row's PCG64 is seeded from its words; :func:`path_rng` is the same
seeding for one path. A stream draws, in order: the row's Wiener increments
(``modes`` standard normals per step, in C order), its jump count, its jump
times and its marks.

A realization keeps its jumps once, as flat arrays sorted by (cell, row,
time), and its Wiener increments as per-row streams: each row's seed words,
from which the solvers regenerate the increments a block of steps at a time,
so no campaign holds a (paths, steps, modes) table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
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
    "WIENER_SUM_VALUES",
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


# numpy's SeedSequence constants: the hash of mix_entropy (A), that of
# generate_state (B), and the multipliers of mix; a pool holds four words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MASK32 = 0xFFFFFFFF


def _uint32_words(value: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first, as
    SeedSequence splits its entropy (0 is one word)."""
    if value < 0:
        raise ValueError(f"seed entropy must be >= 0, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _pool_state(entropy: list) -> np.ndarray:
    """The generate_state(4, uint64) words (n, 4) of the SeedSequences whose
    assembled entropy words are the columns of ``entropy``, a list of (n,)
    uint32 arrays: mix_entropy into a pool of four words, then eight 32-bit
    state words from the pool, paired little-endian."""
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ np.uint32(h)
        h = (h * _MULT_A) & _MASK32
        v = v * np.uint32(h)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    state = np.empty((len(entropy[0]), 2 * _POOL), dtype="<u4")
    for i in range(2 * _POOL):
        v = pool[i % _POOL] ^ np.uint32(h)
        h = (h * _MULT_B) & _MASK32
        v = v * np.uint32(h)
        state[:, i] = v ^ (v >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


def _seed_words(master_seed: int, path_indices) -> np.ndarray:
    """The PCG64 seed words (paths, 4) of each path index i:
    ``SeedSequence(entropy=master_seed, spawn_key=(i,)).generate_state(4,
    np.uint64)``, for all indices at once. The master seed is padded to the
    pool size and followed by the index's one or two 32-bit words."""
    idx = np.asarray(path_indices, dtype=np.int64).reshape(-1)
    if idx.size and idx.min() < 0:
        raise ValueError(f"path indices must be >= 0, got {int(idx.min())}")
    run = _uint32_words(int(master_seed))
    run += [0] * (_POOL - len(run))
    words = np.empty((idx.size, 4), dtype=np.uint64)
    wide = idx > _MASK32
    for rows, spawn in ((~wide, 1), (wide, 2)):
        sub = idx[rows]
        if sub.size:
            key = [(sub >> (32 * k)) & _MASK32 for k in range(spawn)]
            entropy = [np.full(sub.size, w, dtype=np.uint32) for w in run]
            words[rows] = _pool_state(entropy + [k.astype(np.uint32) for k in key])
    return words


class _SeedWords:
    """A seed sequence that hands PCG64 the state words computed already."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@functools.cache
def _register_seed_words() -> None:
    """Register _SeedWords as numpy's ISeedSequence, which PCG64 asks of its
    seed. numpy.random is imported here, on first use, rather than with this
    module: imported before the rest of the package, it raised the peak RSS
    of every campaign by about 0.8 MB."""
    np.random.bit_generator.ISeedSequence.register(_SeedWords)


def _generator(words: np.ndarray) -> np.random.Generator:
    """The Generator of the PCG64 stream with these seed words (4,)."""
    _register_seed_words()
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Independent stream for one path, stable under batching: the
    generator ``np.random.default_rng(SeedSequence(entropy=master_seed,
    spawn_key=(path_index,)))`` would be."""
    return _generator(_seed_words(master_seed, [path_index])[0])


@dataclass(eq=False)
class MarkSpaceSpec:
    """Finite-activity mark space: total intensity mass plus a mark sampler.

    ``rate`` is the total mass of the intensity measure (jumps arrive as a
    Poisson process with this rate); ``sample_marks(rng, size)`` draws marks
    from the normalized intensity. ``mark_mean`` and ``mark_second_moment``
    are the declared first and second moments of a single mark under that
    normalized law; the compensators are built from the mean. The rate and
    the second moment must be >= 0; either may be inf.
    """

    rate: float
    sample_marks: Callable[[np.random.Generator, int], np.ndarray]
    mark_second_moment: float
    mark_mean: float

    def __post_init__(self):
        if not self.rate >= 0.0:  # NaN too
            raise ValueError("intensity mass must be >= 0")
        if not self.mark_second_moment >= 0.0:  # NaN too
            raise ValueError("second moment must be >= 0")


# The largest mean numpy's Poisson sampler takes ("lam value too large" above)
POISSON_MEAN_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)

# Steps per block of regenerated Wiener increments: a block holds
# (paths, WIENER_BLOCK, modes) values, about 1 MB for 512 rows of one mode.
WIENER_BLOCK = 256

# Values per block of rows whose Wiener increments draw_noise sums into W(T):
# 512 KB, or one row when a row holds more.
WIENER_SUM_VALUES = 2**16


@dataclass(eq=False)
class WienerStreams:
    """Wiener increments kept as seed words rather than as a table.

    Row r's increments on the grid they were drawn on are the first standard
    normals of the stream seeded with ``words[r]`` (see :func:`_seed_words`),
    ``modes`` per step and in C order, times ``scale``. Each entry of
    ``factors`` is a coarsening: groups of that many consecutive steps are
    summed in step order, in the order the coarsenings were applied.
    ``ends`` (rows, modes) holds each row's sum of all its increments before
    any coarsening, added in step order when they were drawn. Every pass over
    the blocks seeds its own generators, so passes may interleave.
    """

    words: np.ndarray
    ends: np.ndarray
    modes: int
    scale: float
    factors: tuple = ()

    def blocks(self, n_steps: int):
        """Yield the increments (rows, b, modes) of consecutive blocks of
        b <= WIENER_BLOCK steps, covering n_steps steps in order. Each block
        lives in a buffer the next block reuses."""
        generators = [_generator(w) for w in self.words]
        rows, fine = len(generators), math.prod(self.factors)
        buf = np.empty((rows, WIENER_BLOCK * fine, self.modes))
        for start in range(0, n_steps, WIENER_BLOCK):
            b = min(WIENER_BLOCK, n_steps - start)
            block = buf[:, : b * fine]
            for gen, row in zip(generators, block):
                gen.standard_normal(out=row)
            block *= self.scale
            for f in self.factors:
                # each group of f steps summed in step order from +0.0, the
                # bits of block.reshape(rows, -1, f, modes).sum(axis=2) for
                # f < 8, by strided adds that cost a twentieth of it
                coarse = block[:, 0::f] + 0.0
                for i in range(1, f):
                    coarse += block[:, i::f]
                block = coarse
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
    drawn here only to reach the jump draws that follow them and to sum
    W(T); the row keeps its seed words. The rows' increments are drawn into
    a buffer of at most ``WIENER_SUM_VALUES`` values (or one row) and summed
    along the steps there, a block of rows per ``np.cumsum``.
    """
    path_indices = list(path_indices)
    p, m = len(path_indices), grid.n_steps
    modes = model.wiener_modes
    marks = model.marks
    rate = marks.rate if marks is not None else 0.0
    x0 = np.zeros((p, model.dim))
    x0[:] = model.x0
    words = _seed_words(master_seed, path_indices)
    sqrt_dt = math.sqrt(grid.dt)
    per_block = max(1, WIENER_SUM_VALUES // max(1, m * modes))
    buf = np.empty((min(per_block, p), m, modes))
    ends = np.zeros((p, modes))
    counts, times, draws = [], [np.zeros(0)], [np.zeros(0)]
    for start in range(0, p, per_block):
        block = buf[: min(per_block, p - start)]
        for row, w in zip(block, words[start : start + len(block)]):
            rng = _generator(w)
            if modes > 0:
                rng.standard_normal(out=row)
            count = int(rng.poisson(rate * grid.horizon)) if rate > 0.0 else 0
            if count > 0:
                times.append(np.sort(rng.uniform(0.0, grid.horizon, size=count)))
                draws.append(np.asarray(marks.sample_marks(rng, count), dtype=float))
            counts.append(count)
        if modes > 0:
            block *= sqrt_dt
            np.cumsum(block, axis=1, out=block)  # sequential, as one row's cumsum
            ends[start : start + len(block)] = block[:, -1]
    wiener = WienerStreams(words, ends, modes, sqrt_dt) if modes > 0 else None
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
