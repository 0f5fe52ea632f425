"""Computable strongly continuous semigroups with declared growth bounds.

Three structural families are implemented, each exact on its truncation:

* ``DiagonalSemigroup``: independent scalar modes, S_t = diag(exp(mu_k t)).
* ``BlockWaveSemigroup``: per-mode 2x2 rotation-like blocks of the second
  order wave system (position, velocity), unitary in the energy-weighted norm.
* ``DelayShiftSemigroup``: head value coupled to a shifting history segment on
  a uniform grid over (-1, 0], realized as the exact matrix exponential of the
  upwind-discretized transport generator with distributed-delay feedback.

Growth bounds alpha are declared by the caller, never inferred.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Semigroup",
    "DiagonalSemigroup",
    "BlockWaveSemigroup",
    "DelayShiftSemigroup",
]


class Semigroup:
    """Common interface: apply S_t, shift exponentially."""

    dim: int
    alpha: float

    def apply(self, t: float, x: np.ndarray) -> np.ndarray:
        """Apply S_t along the last axis of ``x``; any leading batch shape."""
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
    weighted norm returned by :meth:`energy_weights` and its growth bound
    alpha is 0.
    """

    alpha = 0.0

    def __init__(self, laplacian_eigenvalues):
        lam = np.asarray(laplacian_eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size < 1 or not np.all(lam > 0):
            raise ValueError("need a non-empty sequence of positive eigenvalues")
        self.lam = lam
        self.omega = np.sqrt(lam)
        self.n_modes = lam.size
        self.dim = 2 * lam.size
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
        # Only this semigroup needs scipy: importing it here keeps it out of
        # every other campaign, and a delay campaign pays for it while it
        # builds its model, before any chunk runs.
        from scipy.linalg import expm

        self._expm = expm
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
            e = self._expm(t * self._matrix)
            self._expms[t] = e
        return e

    def apply(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.matrix(t).T

    def shifted(self, delta: float) -> "DelayShiftSemigroup":
        if delta == 0.0:
            return self
        return DelayShiftSemigroup(
            self.history_cells, alpha=self.alpha + delta, shift=self.shift + delta
        )
