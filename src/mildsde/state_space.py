"""Truncated Hilbert state space: weighted inner products on coefficient arrays.

All numerics run on plain float64 coefficient arrays whose last axis holds
the modes; product spaces are flattened into a single coefficient sequence.
The metric is a vector of per-mode weights (``None`` means unit weights).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightedInnerProduct",
    "weighted_norm_sq",
    "hs_norm_sq",
]


@dataclass(frozen=True, eq=False)
class WeightedInnerProduct:
    """Per-mode metric weights; all strictly positive.

    ``weights[k]`` multiplies the product of the k-th coefficients, so the
    all-ones instance is the plain Euclidean (Parseval) inner product.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a 1-D sequence")
        if not np.all(w > 0.0):
            raise ValueError("all inner-product weights must be > 0")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


def weighted_norm_sq(values: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Squared weighted norm along the last axis of a coefficient array.

    Batch helper used by the solvers; accepts any leading shape.
    """
    values = np.asarray(values, dtype=float)
    if w is None:
        return np.einsum("...d,...d->...", values, values)
    return np.einsum("...d,d,...d->...", values, np.asarray(w, dtype=float), values)


def hs_norm_sq(cols: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Squared Hilbert-Schmidt norm of mode columns, shape (..., modes, dim)."""
    if cols.shape[-2] == 0:
        return np.zeros(cols.shape[:-2])
    if w is None:
        return np.einsum("...kd,...kd->...", cols, cols)
    return np.einsum("...kd,d,...kd->...", cols, np.asarray(w, dtype=float), cols)
