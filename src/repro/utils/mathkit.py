"""Vectorised numerical kernels used throughout the library.

Everything here is pure numpy, shape-documented, and numerically
stabilised (softmax/log-sum-exp shift by the row maximum, sigmoid is
computed piecewise to avoid overflow).
"""

from __future__ import annotations

import numpy as np

from repro.utils.kernels import minkowski_dists_blocked, weighted_sq_dists_rowstable


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    Rows of the result are probability vectors (non-negative, sum to 1).
    """
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_sum_exp(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable ``log(sum(exp(scores)))`` along ``axis``."""
    scores = np.asarray(scores, dtype=np.float64)
    peak = np.max(scores, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(scores - peak), axis=axis, keepdims=True)) + peak
    return np.squeeze(out, axis=axis)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function ``1 / (1 + exp(-z))``."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def pairwise_sq_euclidean(A: np.ndarray, B: np.ndarray = None) -> np.ndarray:
    """All-pairs squared Euclidean distances.

    Parameters
    ----------
    A: array of shape (m, n)
    B: array of shape (k, n); defaults to ``A``.

    Returns
    -------
    (m, k) matrix ``D`` with ``D[i, j] = ||A[i] - B[j]||^2``, clipped at
    zero to absorb floating-point cancellation.
    """
    A = np.asarray(A, dtype=np.float64)
    B = A if B is None else np.asarray(B, dtype=np.float64)
    aa = np.sum(A * A, axis=1)[:, None]
    bb = np.sum(B * B, axis=1)[None, :]
    D = aa + bb - 2.0 * (A @ B.T)
    np.maximum(D, 0.0, out=D)
    return D


def weighted_minkowski_to_prototypes(
    X: np.ndarray,
    V: np.ndarray,
    alpha: np.ndarray,
    p: float = 2.0,
    root: bool = False,
) -> np.ndarray:
    """Weighted Minkowski distances between records and prototypes.

    Computes ``d[i, k] = sum_n alpha[n] * |X[i, n] - V[k, n]|**p``
    (optionally raised to ``1/p`` when ``root`` is true), which is the
    distance of Definition 7 in the paper.

    Shapes: ``X`` is (m, n), ``V`` is (k, n), ``alpha`` is (n,).
    Returns (m, k).
    """
    X = np.asarray(X, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    # Both kernels are row-stable — chunked evaluation stays bitwise
    # equal to one-shot — and neither builds an (m, k, n) tensor.
    if p == 2.0:
        d = weighted_sq_dists_rowstable(X, V, alpha)
    else:
        # The kernel writes (K, M); its transposed view lands row-major.
        d = np.empty((X.shape[0], V.shape[0]), dtype=np.float64)
        minkowski_dists_blocked(X.T, V, alpha, p, out=d.T)
        np.maximum(d, 0.0, out=d)
    if root:
        d = d ** (1.0 / p)
    return d


def harmonic_mean(a: float, b: float) -> float:
    """Harmonic mean of two non-negative scores; 0 if either is 0."""
    if a <= 0.0 or b <= 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)
