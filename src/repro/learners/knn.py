"""Brute-force k-nearest-neighbour search.

The consistency metric yNN (Section V-C) needs, for every record, its
``k`` nearest neighbours *in the original non-protected attribute
space*.  A vectorised brute-force search is exact and fast enough for
the dataset sizes involved.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.learners.base import BaseEstimator
from repro.utils.mathkit import pairwise_sq_euclidean
from repro.utils.validation import check_matrix


class KNearestNeighbors(BaseEstimator):
    """Exact kNN index over a fixed reference set.

    Parameters
    ----------
    k:
        Number of neighbours returned per query point.
    """

    def __init__(self, k: int = 10):
        if k < 1:
            raise ValidationError("k must be at least 1")
        self.k = int(k)
        self._X: Optional[np.ndarray] = None

    def fit(self, X) -> "KNearestNeighbors":
        """Index the reference points ``X``."""
        self._X = check_matrix(X, "X")
        self._fitted = True
        return self

    def kneighbors(
        self,
        Q=None,
        *,
        exclude_self: bool = False,
        block_size: Optional[int] = None,
    ) -> np.ndarray:
        """Indices of the ``k`` nearest reference points per query row.

        Parameters
        ----------
        Q:
            Query matrix; defaults to the indexed points themselves.
        exclude_self:
            When querying the reference set with itself, drop the
            trivial zero-distance self match (the yNN convention).
        block_size:
            Process at most this many query rows per distance-matrix
            block, bounding peak memory at ``O(block_size * n_ref)``
            instead of materialising the full ``(len(Q), n_ref)``
            matrix.  Each query row's neighbours depend only on that
            row, so blocked results equal the unblocked ones up to
            exact distance ties (BLAS may round the last ulp of a
            distance differently for different block heights, which
            can reorder genuinely tied neighbours).

        Returns
        -------
        Integer array of shape ``(len(Q), k)`` sorted by distance.
        """
        self._check_fitted()
        Q = self._X if Q is None else check_matrix(Q, "Q")
        if Q.shape[1] != self._X.shape[1]:
            raise ValidationError(
                f"query has {Q.shape[1]} features, index has {self._X.shape[1]}"
            )
        n_ref = self._X.shape[0]
        budget = self.k + 1 if exclude_self else self.k
        if budget > n_ref:
            raise ValidationError(
                f"requested {budget} neighbours but index holds only {n_ref} points"
            )
        if exclude_self and Q.shape[0] != n_ref:
            raise ValidationError("exclude_self requires querying the indexed set")
        if block_size is not None:
            block_size = int(block_size)
            if block_size < 1:
                raise ValidationError("block_size must be a positive integer")
        n_q = Q.shape[0]
        if block_size is None or n_q <= block_size:
            return self._kneighbors_block(Q, 0, exclude_self)
        out = np.empty((n_q, self.k), dtype=np.intp)
        for start in range(0, n_q, block_size):
            stop = min(start + block_size, n_q)
            out[start:stop] = self._kneighbors_block(Q[start:stop], start, exclude_self)
        return out

    def _kneighbors_block(
        self, Q: np.ndarray, offset: int, exclude_self: bool
    ) -> np.ndarray:
        """Neighbour indices for query rows ``offset .. offset+len(Q)``."""
        D = pairwise_sq_euclidean(Q, self._X)
        if exclude_self:
            rows = np.arange(Q.shape[0])
            D[rows, offset + rows] = np.inf
        return nearest_from_distances(D, self.k)


def nearest_from_distances(D: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the ``k`` smallest entries of each row of ``D``.

    Each row is sorted nearest first.  Every exact kNN search in the
    package selects through this one function, so ties break by one
    rule: an exact tie at the k-th distance keeps whichever index
    ``argpartition`` leaves in front, and tied neighbours keep that
    order after the stable sort.
    """
    # argpartition for the k smallest, then sort those k by distance.
    part = np.argpartition(D, kth=k - 1, axis=1)[:, :k]
    row_d = np.take_along_axis(D, part, axis=1)
    order = np.argsort(row_d, axis=1, kind="stable")
    return np.take_along_axis(part, order, axis=1)
