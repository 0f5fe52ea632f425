"""Computable strongly continuous semigroups with declared growth bounds.

Three structural families are implemented, each exact on its truncation:

* ``DiagonalSemigroup``: independent scalar modes, S_t = diag(exp(mu_k t)).
* ``BlockWaveSemigroup``: per-mode 2x2 rotation-like blocks of the second
  order wave system (position, velocity), unitary in the energy-weighted norm.
* ``DelayShiftSemigroup``: head value coupled to a shifting history segment on
  a uniform grid over (-1, 0], realized as the exact matrix exponential of the
  upwind-discretized transport generator with distributed-delay feedback.

Growth bounds alpha are declared by the caller, never inferred.
:func:`check_contraction` tests a declared bound by sampling when called;
no model builder or campaign calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
import scipy.linalg

from .state_space import WeightedInnerProduct, weighted_norm_sq

__all__ = [
    "Semigroup",
    "DiagonalSemigroup",
    "BlockWaveSemigroup",
    "DelayShiftSemigroup",
    "TiltedSemigroup",
    "ContractionReport",
    "check_contraction",
]


class Semigroup:
    """Common interface: apply S_t, apply the generator, shift exponentially."""

    dim: int
    alpha: float

    def apply(self, t: float, x: np.ndarray) -> np.ndarray:
        """Apply S_t along the last axis of ``x``; any leading batch shape."""
        raise NotImplementedError

    def generator(self, x: np.ndarray) -> np.ndarray:
        """Apply the (truncated) generator A along the last axis of ``x``."""
        raise NotImplementedError

    def shifted(self, delta: float) -> "Semigroup":
        """The semigroup exp(delta*t) S_t, with growth bound alpha + delta."""
        raise NotImplementedError


def _check_time(t: float) -> float:
    if t < 0.0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    return float(t)


class DiagonalSemigroup(Semigroup):
    """S_t acting mode-by-mode as exp(mu_k t)."""

    def __init__(self, eigenvalues, alpha: float):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        if self.eigenvalues.ndim != 1 or self.eigenvalues.size < 1:
            raise ValueError("eigenvalues must be a non-empty 1-D sequence")
        self.dim = self.eigenvalues.size
        self.alpha = float(alpha)
        self._factors: dict[float, np.ndarray] = {}

    def _factor(self, t: float) -> np.ndarray:
        f = self._factors.get(t)
        if f is None:
            f = np.exp(self.eigenvalues * t)
            self._factors[t] = f
        return f

    def apply(self, t: float, x: np.ndarray) -> np.ndarray:
        t = _check_time(t)
        return np.asarray(x, dtype=float) * self._factor(t)

    def generator(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) * self.eigenvalues

    def shifted(self, delta: float) -> "DiagonalSemigroup":
        if delta == 0.0:
            return self
        return DiagonalSemigroup(self.eigenvalues + delta, self.alpha + delta)


class BlockWaveSemigroup(Semigroup):
    """Wave-system group on flattened (position, velocity) mode blocks.

    State layout is ``[u_1..u_n, v_1..v_n]``. Each mode with eigenvalue
    lam > 0 evolves by the 2x2 matrix

        [ cos(w t)        sin(w t)/w ]
        [ -w sin(w t)     cos(w t)   ],   w = sqrt(lam),

    which conserves lam*u^2 + v^2 exactly, so the group is unitary in the
    weighted norm returned by :meth:`energy_weights`.
    """

    def __init__(self, laplacian_eigenvalues, alpha: float = 0.0):
        lam = np.asarray(laplacian_eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size < 1 or not np.all(lam > 0):
            raise ValueError("need a non-empty sequence of positive eigenvalues")
        self.lam = lam
        self.omega = np.sqrt(lam)
        self.n_modes = lam.size
        self.dim = 2 * lam.size
        self.alpha = float(alpha)
        self._factors: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def energy_weights(self) -> np.ndarray:
        return np.concatenate([self.lam, np.ones(self.n_modes)])

    def _factor(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        f = self._factors.get(t)
        if f is None:
            f = (np.cos(self.omega * t), np.sin(self.omega * t))
            self._factors[t] = f
        return f

    def apply(self, t: float, x: np.ndarray) -> np.ndarray:
        t = _check_time(t)
        x = np.asarray(x, dtype=float)
        c, s = self._factor(t)
        u = x[..., : self.n_modes]
        v = x[..., self.n_modes :]
        out = np.empty_like(x)
        out[..., : self.n_modes] = c * u + (s / self.omega) * v
        out[..., self.n_modes :] = -(self.omega * s) * u + c * v
        return out

    def generator(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., : self.n_modes] = x[..., self.n_modes :]
        out[..., self.n_modes :] = -self.lam * x[..., : self.n_modes]
        return out

    def shifted(self, delta: float) -> Semigroup:
        if delta == 0.0:
            return self
        return TiltedSemigroup(self, delta)


class DelayShiftSemigroup(Semigroup):
    """Delay semigroup on head x history, exact on the history truncation.

    State layout is ``[head, v_0 .. v_{m-1}]`` where v_i is the piecewise
    constant history value on the cell ((i*h)-1, ((i+1)*h)-1], h = 1/m, so
    v_{m-1} sits at lag 0 and matches the head on the generator domain. The
    generator couples

        head' = sum_i v_i * h            (distributed delay over (-1, 0])
        v'    = upwind shift toward lag 0, boundary fed by the head,

    and S_t = expm(t * A) exactly, so the one-parameter law holds to floating
    point accuracy. An optional scalar ``shift`` adds delta*I to the generator
    (used by the contraction rescaling).
    """

    def __init__(self, history_cells: int, alpha: float = 1.0, shift: float = 0.0):
        if history_cells < 1:
            raise ValueError("need at least one history cell")
        self.history_cells = int(history_cells)
        self.dim = 1 + self.history_cells
        self.alpha = float(alpha)
        self.shift = float(shift)
        self.cell_width = 1.0 / self.history_cells
        self._matrix = self._build_generator()
        self._expms: dict[float, np.ndarray] = {}

    def _build_generator(self) -> np.ndarray:
        m = self.history_cells
        h = self.cell_width
        a = np.zeros((self.dim, self.dim))
        a[0, 1:] = h
        for i in range(m - 1):
            a[1 + i, 1 + i] = -1.0 / h
            a[1 + i, 2 + i] = 1.0 / h
        a[m, m] = -1.0 / h
        a[m, 0] = 1.0 / h
        if self.shift != 0.0:
            a += self.shift * np.eye(self.dim)
        return a

    def history_lags(self) -> np.ndarray:
        """Right endpoint lag of each history cell, from h-1 up to 0."""
        return -1.0 + self.cell_width * np.arange(1, self.history_cells + 1)

    def natural_weights(self) -> np.ndarray:
        """Weight 1 on the head, cell width on history cells (L2 quadrature)."""
        return np.concatenate([[1.0], np.full(self.history_cells, self.cell_width)])

    def matrix(self, t: float) -> np.ndarray:
        t = _check_time(t)
        e = self._expms.get(t)
        if e is None:
            e = scipy.linalg.expm(t * self._matrix)
            self._expms[t] = e
        return e

    def apply(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.matrix(t).T

    def generator(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self._matrix.T

    def shifted(self, delta: float) -> "DelayShiftSemigroup":
        if delta == 0.0:
            return self
        return DelayShiftSemigroup(
            self.history_cells, alpha=self.alpha + delta, shift=self.shift + delta
        )


class TiltedSemigroup(Semigroup):
    """exp(delta*t) times a base semigroup; closes families under rescaling."""

    def __init__(self, base: Semigroup, delta: float):
        self.base = base
        self.delta = float(delta)
        self.dim = base.dim
        self.alpha = base.alpha + self.delta

    def apply(self, t: float, x: np.ndarray) -> np.ndarray:
        t = _check_time(t)
        return np.exp(self.delta * t) * self.base.apply(t, x)

    def generator(self, x: np.ndarray) -> np.ndarray:
        return self.base.generator(x) + self.delta * np.asarray(x, dtype=float)

    def shifted(self, delta: float) -> Semigroup:
        if self.delta + delta == 0.0:
            return self.base
        return TiltedSemigroup(self.base, self.delta + delta)


@dataclass(frozen=True)
class ContractionReport:
    """Result of sampling the growth bound ||S_t x|| <= exp(alpha t) ||x||."""

    alpha: float
    max_amplification: float   # max over samples of ||S_t x|| / ||x||
    max_bound_ratio: float     # max of ||S_t x|| / (exp(alpha t) ||x||)
    samples: int
    violation: bool


def check_contraction(
    semigroup: Semigroup,
    samples: int,
    t_max: float,
    weights: WeightedInnerProduct | np.ndarray | None = None,
    seed: int = 0,
) -> ContractionReport:
    """Sample random (t, x) and compare ||S_t x|| against exp(alpha t) ||x||.

    The violation flag is set as soon as one sample exceeds the declared bound
    by more than a 1e-9 relative allowance.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    w = weights.weights if isinstance(weights, WeightedInnerProduct) else weights
    rng = np.random.default_rng(seed)
    n_times = min(samples, 64)
    per_time = max(1, samples // n_times)
    ts = rng.uniform(0.0, t_max, size=n_times)
    max_amp = 0.0
    max_ratio = 0.0
    total = 0
    for t in ts:
        x = rng.standard_normal((per_time, semigroup.dim))
        nx = np.sqrt(weighted_norm_sq(x, w))
        ny = np.sqrt(weighted_norm_sq(semigroup.apply(float(t), x), w))
        amp = ny / nx
        max_amp = max(max_amp, float(amp.max()))
        ratio = amp / np.exp(semigroup.alpha * t)
        max_ratio = max(max_ratio, float(ratio.max()))
        total += per_time
    return ContractionReport(
        alpha=semigroup.alpha,
        max_amplification=max_amp,
        max_bound_ratio=max_ratio,
        samples=total,
        violation=bool(max_ratio > 1.0 + 1e-9),
    )
