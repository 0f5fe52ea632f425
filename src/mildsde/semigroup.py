"""Computable strongly continuous semigroups with declared growth bounds.

Three structural families are implemented, each exact on its truncation:

* ``DiagonalSemigroup``: independent scalar modes, S_t = diag(exp(mu_k t)).
* ``BlockWaveSemigroup``: per-mode 2x2 rotation-like blocks of the second
  order wave system (position, velocity), unitary in the energy-weighted norm.
* ``DelayShiftSemigroup``: head value coupled to a shifting history segment on
  a uniform grid over (-1, 0], realized as the matrix exponential of the
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


# Diagonal Pade approximants r_m of exp: degree m -> (the 1-norm theta_m up
# to which r_m(A) is exp(A) to unit roundoff in double precision, the
# numerator coefficients b_0..b_m). Higham, "The scaling and squaring method
# for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 2005;
# the thetas as tabulated by Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 2009.
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    9: (2.097847961257068e0,
        (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
         2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    13: (5.371920351148152e0,
         (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
}


def _pade_degree(norm: float) -> tuple[int, int]:
    """The lowest Pade degree whose theta bounds ``norm``, and the number s of
    squarings that bring norm / 2**s down to theta_13 when none does."""
    for m, (theta, _) in _PADE.items():
        if norm <= theta:
            return m, 0
    s = 0
    while norm > _PADE[13][0]:
        norm *= 0.5
        s += 1
    return 13, s


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix by scaling and squaring of the diagonal Pade
    approximant r_m = (V - U)^-1 (V + U), with U the odd and V the even part
    of its numerator."""
    m, s = _pade_degree(float(np.linalg.norm(a, 1)))
    b = _PADE[m][1]
    a = a * 0.5**s
    ident = np.eye(len(a))
    a2 = a @ a
    if m < 13:
        # even powers I, A^2, .., A^(m-1)
        even = [ident, a2]
        while len(even) <= m // 2:
            even.append(even[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(even))
        v = sum(b[2 * k] * p for k, p in enumerate(even))
    else:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


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

    and S_t = expm(t * A), by a Pade approximant accurate to unit roundoff,
    so the one-parameter law holds to floating point accuracy. An optional
    scalar ``shift`` adds delta*I to the generator (used by the contraction
    rescaling).
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
            e = _expm(t * self._matrix)
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
