"""Individual-fairness metric: consistency (yNN).

Definition (Section V-C, with the paper's footnote-1 bug fix):

    yNN = 1 - (1 / (M k)) * sum_i sum_{j in kNN(x*_i)} |yhat_i - yhat_j|

Neighbours are found in the *original, non-protected* attribute space
``X*`` while the predictions ``yhat`` come from whatever representation
the downstream model was trained on.  A score of 1 means every record
receives the same outcome as all of its qualification-neighbours.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.learners.knn import KNearestNeighbors
from repro.utils.validation import check_matrix, check_vector


# Above this many records, the kNN search runs in row blocks so the
# metric never materialises the full (M, M) distance matrix.
_AUTO_BLOCK_THRESHOLD = 2048
_AUTO_BLOCK_ROWS = 1024


def consistency(
    X_nonprotected, y_hat, k: int = 10, *, block_size: Optional[int] = None
) -> float:
    """Consistency yNN of outcomes ``y_hat`` w.r.t. neighbours in X*.

    Parameters
    ----------
    X_nonprotected:
        Records restricted to their non-protected attributes (the
        space in which "similar individuals" is judged).
    y_hat:
        Outcomes being audited: hard labels, probabilities, or ranking
        scores scaled to [0, 1].
    k:
        Neighbourhood size (the paper uses 10).
    block_size:
        Rows per kNN distance block.  Defaults to an automatic policy:
        full-matrix search for small inputs, blocked search above
        ~2k records so peak memory stays ``O(block * M)``.  Blocked
        and unblocked searches return the same neighbours up to exact
        distance ties.
    """
    X = check_matrix(X_nonprotected, "X_nonprotected")
    y_hat = check_vector(y_hat, "y_hat", length=X.shape[0])
    if X.shape[0] <= k:
        raise ValidationError(
            f"consistency with k={k} needs more than {k} records, got {X.shape[0]}"
        )
    if block_size is None and X.shape[0] > _AUTO_BLOCK_THRESHOLD:
        block_size = _AUTO_BLOCK_ROWS
    index = KNearestNeighbors(k=k).fit(X)
    neighbors = index.kneighbors(exclude_self=True, block_size=block_size)
    return consistency_from_neighbors(y_hat, neighbors)


def consistency_from_neighbors(y_hat: np.ndarray, neighbors: np.ndarray) -> float:
    """yNN of ``y_hat`` given row ``i``'s neighbour indices in ``neighbors[i]``.

    The average :func:`consistency` takes once the kNN search is done;
    a caller that keeps its own distance matrix (the serving
    :class:`~repro.telemetry.fairness.FairnessMonitor`) passes its
    neighbours here.  Inputs are trusted: float64 outcomes, one row of
    in-range indices per outcome.
    """
    diffs = np.abs(y_hat[:, None] - y_hat[neighbors])
    return float(1.0 - diffs.mean())


def consistency_of_scores(X_nonprotected, scores, k: int = 10) -> float:
    """Consistency for unbounded scores, min-max scaled into [0, 1].

    Ranking scores are not probabilities; scaling them first keeps the
    metric within [0, 1] and comparable across models (this mirrors how
    consistency is reported for the learning-to-rank task).
    """
    scores = check_vector(scores, "scores")
    lo, hi = float(scores.min()), float(scores.max())
    if hi > lo:
        scaled = (scores - lo) / (hi - lo)
    else:
        scaled = np.zeros_like(scores)
    return consistency(X_nonprotected, scaled, k=k)
