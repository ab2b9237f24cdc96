"""Input validation helpers shared across the library.

These functions centralise the error messages and coercion rules so
models and metrics can assume clean ``float64`` arrays after a single
call.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError


def check_matrix(
    X,
    name: str = "X",
    *,
    min_rows: int = 1,
    min_cols: int = 1,
    allow_nan: bool = False,
) -> np.ndarray:
    """Coerce ``X`` to a 2-D float64 array and validate its shape.

    Raises :class:`ValidationError` for wrong dimensionality, empty
    axes, or non-finite entries (unless ``allow_nan``).
    """
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    rows, cols = arr.shape
    if rows < min_rows:
        raise ValidationError(f"{name} needs at least {min_rows} row(s), got {rows}")
    if cols < min_cols:
        raise ValidationError(f"{name} needs at least {min_cols} column(s), got {cols}")
    if not allow_nan and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return arr


def check_vector(
    y,
    name: str = "y",
    *,
    length: Optional[int] = None,
    allow_nan: bool = False,
) -> np.ndarray:
    """Coerce ``y`` to a 1-D float64 array, optionally enforcing length."""
    arr = np.asarray(y, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if length is not None and arr.size != length:
        raise ValidationError(f"{name} must have length {length}, got {arr.size}")
    if not allow_nan and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return arr


def check_binary_labels(y, name: str = "y", *, length: Optional[int] = None) -> np.ndarray:
    """Validate that ``y`` holds only 0/1 labels; returns a float64 array."""
    arr = check_vector(y, name, length=length)
    if not ((arr == 0.0) | (arr == 1.0)).all():
        raise ValidationError(
            f"{name} must contain only 0/1 labels, found values {np.unique(arr)}"
        )
    return arr


def check_protected_indices(
    protected: Optional[Iterable[int]], n_features: int
) -> np.ndarray:
    """Validate protected-attribute column indices against ``n_features``.

    ``None`` or an empty iterable means *no protected attributes*, which
    the paper explicitly allows (l = N).
    """
    if protected is None:
        return np.empty(0, dtype=np.intp)
    idx = np.asarray(list(protected), dtype=np.intp)
    if idx.size == 0:
        return np.empty(0, dtype=np.intp)
    if np.unique(idx).size != idx.size:
        raise ValidationError("protected indices contain duplicates")
    if idx.min() < 0 or idx.max() >= n_features:
        raise ValidationError(
            f"protected indices must lie in [0, {n_features - 1}], got {idx.tolist()}"
        )
    return np.sort(idx)


def nonprotected_indices(protected: np.ndarray, n_features: int) -> np.ndarray:
    """Complement of ``protected`` within ``range(n_features)``."""
    mask = np.ones(n_features, dtype=bool)
    mask[protected] = False
    return np.flatnonzero(mask)
