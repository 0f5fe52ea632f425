"""Truncated Hilbert state space: weighted inner products on coefficient arrays.

All numerics run on plain float64 coefficient arrays whose last axis holds
the modes; product spaces are flattened into a single coefficient sequence.
The metric is a vector of per-mode weights (``None`` means unit weights).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "weighted_inner",
    "weighted_norm_sq",
    "hs_norm_sq",
]


def weighted_inner(a: np.ndarray, b: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Weighted inner product <a, b> along the last axis; leading axes
    broadcast."""
    if w is None:
        return np.einsum("...d,...d->...", a, b)
    return np.einsum("...d,d,...d->...", a, np.asarray(w, dtype=float), b)


def weighted_norm_sq(values: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Squared weighted norm along the last axis of a coefficient array.

    Batch helper used by the solvers; accepts any leading shape.
    """
    values = np.asarray(values, dtype=float)
    return weighted_inner(values, values, w)


def hs_norm_sq(cols: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Squared Hilbert-Schmidt norm of mode columns, shape (..., modes, dim)."""
    if w is None:
        return np.einsum("...kd,...kd->...", cols, cols)
    return np.einsum("...kd,d,...kd->...", cols, np.asarray(w, dtype=float), cols)
