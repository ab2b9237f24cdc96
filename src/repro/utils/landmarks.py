"""Landmark (anchor) selection.

Two callers choose anchors here: LFR's landmark fairness regulariser
(:class:`repro.utils.kernels.LandmarkFairness`), which approximates the
full ordered-pair loss through ``L`` anchor records, and the serving
drift detector (:func:`refresh_landmarks`, :func:`anchor_assignment_cost`).
Approximation quality hinges on the anchors covering the data's
geometry, so two classic coverage seedings are provided:

* ``"kmeans++"`` — D^2 sampling (Arthur & Vassilvitskii, 2007): each
  new anchor is drawn with probability proportional to its squared
  distance to the closest already-chosen anchor.  Stochastic but
  deterministic under the seed; spreads anchors density-proportionally.
* ``"farthest"`` — farthest-point traversal: each new anchor is the
  record farthest from the chosen set (ties break to the lowest
  index).  Deterministic after the seeded first pick; maximises
  coverage radius.

Both run in ``O(M * L * N)`` time and ``O(M)`` extra memory — no
pairwise matrix — and return **sorted, distinct** indices, so any two
selections of the same anchor set are interchangeable bitwise.  When
``n_landmarks == M`` every record is selected, which is what makes the
landmark oracle collapse exactly onto the full-pair loss at ``L = M``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.rng import RandomStateLike, check_random_state

LANDMARK_METHODS = ("kmeans++", "farthest")


def _sq_dists_to(X: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``||X[i] - row||^2`` for every record, clipped at zero."""
    diff = X - row[None, :]
    return np.einsum("mn,mn->m", diff, diff)


def select_landmarks(
    X: np.ndarray,
    n_landmarks: int,
    *,
    method: str = "kmeans++",
    random_state: RandomStateLike = 0,
) -> np.ndarray:
    """Choose ``n_landmarks`` distinct anchor row indices of ``X``.

    Parameters
    ----------
    X:
        Record matrix, shape (M, N) — typically the non-protected
        attribute columns the fairness target is built from.
    n_landmarks:
        Number of anchors L, ``1 <= L <= M``.
    method:
        ``"kmeans++"`` or ``"farthest"`` (see module docstring).
    random_state:
        Seeds the first pick and, for k-means++, the D^2 sampling.

    Returns
    -------
    Sorted ``int64`` array of L distinct row indices.  Duplicate
    records collapse the distance landscape to zero; remaining picks
    then fall back to the lowest unchosen indices so the result stays
    distinct and deterministic.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValidationError("landmark selection needs a non-empty 2-D matrix")
    m = X.shape[0]
    n_landmarks = int(n_landmarks)
    if n_landmarks < 1:
        raise ValidationError("n_landmarks must be at least 1")
    if n_landmarks > m:
        raise ValidationError(
            f"n_landmarks must be <= number of records ({m}), got {n_landmarks}"
        )
    if method not in LANDMARK_METHODS:
        raise ValidationError(
            f"landmark method must be one of {LANDMARK_METHODS}, got {method!r}"
        )
    rng = check_random_state(random_state)

    chosen = np.empty(n_landmarks, dtype=np.int64)
    taken = np.zeros(m, dtype=bool)
    first = int(rng.integers(m))
    chosen[0] = first
    taken[first] = True
    # Squared distance of every record to its nearest chosen anchor.
    d2 = _sq_dists_to(X, X[first])
    for t in range(1, n_landmarks):
        total = float(d2.sum())
        if total > 0.0:
            if method == "kmeans++":
                nxt = int(rng.choice(m, p=d2 / total))
            else:
                nxt = int(np.argmax(d2))
        else:
            # All remaining records coincide with an anchor: keep the
            # selection distinct via the lowest unchosen index.
            nxt = int(np.flatnonzero(~taken)[0])
        chosen[t] = nxt
        taken[nxt] = True
        np.minimum(d2, _sq_dists_to(X, X[nxt]), out=d2)
        d2[nxt] = 0.0
    return np.sort(chosen)


def anchor_assignment_cost(X: np.ndarray, anchors: np.ndarray) -> float:
    """Mean distance of each record to its nearest anchor.

    The coverage statistic behind the online shift test: anchors chosen
    on the fit-time distribution cover it tightly, so the mean
    nearest-anchor distance of fresh traffic rising well above the
    fit-time value means the incoming records live where no anchor
    does — the landmark approximation (and the representation built on
    it) is being asked about a different distribution.

    O(M * L * N) time, O(M) extra memory — same budget as selection.
    """
    X = np.asarray(X, dtype=np.float64)
    anchors = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValidationError("assignment cost needs a non-empty 2-D matrix")
    if anchors.shape[0] < 1 or anchors.shape[1] != X.shape[1]:
        raise ValidationError(
            "anchors must be a non-empty (L, N) matrix matching X's width"
        )
    d2 = _sq_dists_to(X, anchors[0])
    for row in anchors[1:]:
        np.minimum(d2, _sq_dists_to(X, row), out=d2)
    return float(np.sqrt(np.clip(d2, 0.0, None)).mean())


@dataclass(frozen=True)
class LandmarkRefresh:
    """Outcome of one :func:`refresh_landmarks` decision.

    Attributes
    ----------
    refreshed:
        Whether new anchors were selected over the window.
    indices:
        Sorted anchor row indices **into the window** when refreshed,
        else ``None``.
    anchors:
        Anchor coordinates — freshly selected rows of the window when
        refreshed, otherwise the anchors that were passed in.
    cost:
        Mean nearest-anchor distance of the window under the *incoming*
        anchors (the shift numerator).
    baseline_cost:
        The fit-time (or first-window) reference cost the ratio is
        taken against.
    shift:
        ``cost / baseline_cost`` — 1.0 means the window is covered as
        tightly as the baseline was; values above ``shift_threshold``
        triggered the refresh.
    """

    refreshed: bool
    indices: Optional[np.ndarray]
    anchors: np.ndarray
    cost: float
    baseline_cost: float
    shift: float


def refresh_landmarks(
    window: np.ndarray,
    anchors: Optional[np.ndarray] = None,
    *,
    n_landmarks: int,
    method: str = "kmeans++",
    random_state: RandomStateLike = 0,
    baseline_cost: Optional[float] = None,
    shift_threshold: float = 1.25,
    force: bool = False,
) -> LandmarkRefresh:
    """Re-anchor over a sliding window when the distribution shifted.

    Computes the anchor-assignment cost of ``window`` under the current
    ``anchors``, takes its ratio against ``baseline_cost`` (the cost at
    fit time, or of the first window — any reference captured while
    the anchors still matched the data), and re-runs
    :func:`select_landmarks` over the window iff the ratio exceeds
    ``shift_threshold`` (or ``force`` is set, or no anchors exist yet).

    Cheap by construction: the non-refresh path is one O(M * L * N)
    distance sweep, so callers can evaluate it every control tick and
    only pay the selection when re-anchoring is actually warranted.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2 or window.shape[0] < 1:
        raise ValidationError("landmark refresh needs a non-empty 2-D window")
    if shift_threshold <= 0:
        raise ValidationError("shift_threshold must be positive")
    n_landmarks = min(int(n_landmarks), window.shape[0])
    if anchors is None:
        # Nothing to compare against: bootstrap anchors from the window
        # and report the post-selection cost as its own baseline.
        indices = select_landmarks(
            window, n_landmarks, method=method, random_state=random_state
        )
        selected = window[indices]
        cost = anchor_assignment_cost(window, selected)
        base = cost if baseline_cost is None else float(baseline_cost)
        return LandmarkRefresh(
            refreshed=True,
            indices=indices,
            anchors=selected,
            cost=cost,
            baseline_cost=base,
            shift=1.0 if base == 0.0 else cost / base,
        )
    anchors = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    cost = anchor_assignment_cost(window, anchors)
    if baseline_cost is None or float(baseline_cost) <= 0.0:
        # Degenerate reference (identical records, or none captured):
        # treat the current cost as the baseline rather than dividing
        # by zero — shift is then exactly 1.0 and never flaps.
        baseline = cost if cost > 0.0 else 1.0
    else:
        baseline = float(baseline_cost)
    shift = cost / baseline if baseline > 0.0 else 1.0
    if not force and shift <= float(shift_threshold):
        return LandmarkRefresh(
            refreshed=False,
            indices=None,
            anchors=anchors,
            cost=cost,
            baseline_cost=baseline,
            shift=shift,
        )
    indices = select_landmarks(
        window, n_landmarks, method=method, random_state=random_state
    )
    return LandmarkRefresh(
        refreshed=True,
        indices=indices,
        anchors=window[indices],
        cost=cost,
        baseline_cost=baseline,
        shift=shift,
    )
