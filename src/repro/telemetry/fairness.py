"""Serving-side fairness drift monitor (sliding window).

The offline pipeline proves fairness on the training distribution;
:class:`FairnessMonitor` checks that it survives contact with live
traffic.  The serving engine feeds every ``decide`` call into
:meth:`~FairnessMonitor.observe`; the monitor keeps the last ``window``
served records and computes, on demand:

* **consistency (yNN)** of the served decisions over the non-protected
  features — the paper's individual-fairness metric
  (:func:`repro.metrics.individual.consistency`) applied to the live
  window instead of a test split;
* **group decision rates** per protected-attribute value and the
  max-min **rate gap** — the group-fairness view of the same window.

The first window that reaches ``min_records`` is frozen as the
**baseline**; afterwards a consistency drop or a rate-gap widening
beyond the configured tolerances raises the corresponding drift flag.
Flags surface in three places: the ``fairness`` block of
``/v1/stats``, ``fairness_*`` gauges in the engine's metrics registry
(scraped via ``/v1/metrics``), and a WARNING log record on the rising
edge of either flag.

Metrics are cached per window state; a check reruns only when new
records arrived since the last call, so frequent ``/v1/stats`` polling
is cheap.

A check is incremental and exact.  The monitor keeps the window's
squared-distance matrix over the N* non-protected columns from one
check to the next, so a check recomputes only the rows and columns of
the records that arrived since the last one: O(fresh · window · N*)
distance work, then one O(window²) k-nearest selection over the whole
matrix and the yNN average, both shared with
:func:`~repro.metrics.individual.consistency`.  The matrix costs
8 · window² bytes (2 MiB at the default 512).  Above 2048 records,
where ``consistency`` itself switches to a blocked search, the monitor
allocates no matrix and runs ``consistency`` on the whole window at
each check instead.

The monitor is shared by every request thread of an engine.  Appends
to the window are atomic, so each record's features, group and
decision stay aligned.  Checks are **single-flight**: at most one runs
at a time, outside the append lock.  A check that comes due while
another runs waits for it, then runs only if records arrived that the
finished check did not cover.  So a check runs every ``check_every``
records whatever the load, and the work per record does not depend on
how requests interleave.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.learners.knn import nearest_from_distances
from repro.metrics.individual import (
    _AUTO_BLOCK_THRESHOLD,
    consistency,
    consistency_from_neighbors,
)
from repro.telemetry.logs import get_logger
from repro.telemetry.metrics import MetricsRegistry
from repro.utils import blas
from repro.utils.mathkit import pairwise_sq_euclidean

logger = get_logger("telemetry.fairness")


def _ring_write(
    rings: Sequence[np.ndarray], start: int, values: Sequence[np.ndarray]
) -> None:
    """Write each of ``values`` into its ring from slot ``start``, wrapping once."""
    count = len(values[0])
    stop = start + count
    if stop <= len(rings[0]):
        for ring, value in zip(rings, values):
            ring[start:stop] = value
    else:
        first = len(rings[0]) - start
        for ring, value in zip(rings, values):
            ring[start:] = value[:first]
            ring[: count - first] = value[first:]


class FairnessMonitor:
    """Sliding-window consistency + decision-rate drift detection.

    Parameters
    ----------
    protected_indices:
        Column indices excluded from the consistency neighbourhood
        (the same indices the model treats as protected).
    window:
        Number of most-recent served records retained.
    k:
        Neighbourhood size for the yNN consistency metric; windows
        with fewer than ``k + 2`` records report no consistency yet.
    min_records:
        Window size at which the baseline freezes and drift checks
        begin.
    consistency_drop:
        Absolute drop of window consistency below baseline that flags
        ``consistency_drift``.
    rate_gap_shift:
        Absolute widening of the max-min group decision-rate gap above
        baseline that flags ``rate_drift``.
    check_every:
        Recompute the metrics automatically once this many new
        records accumulated since the last computation (each check
        costs O(fresh · window · N*) distance work plus an O(window²)
        neighbour selection; see the module docstring);
        between refreshes :meth:`drift_flags` answers from the cache,
        so the serving hot path never pays the consistency kernel.
        Checks are single-flight (see the module docstring): under
        concurrent load a check still runs every ``check_every``
        records, one at a time.
    registry:
        Optional registry that receives ``fairness_*`` gauges on every
        metrics refresh (the engine passes its own).

    Up to a window of 2048 the monitor holds a window × window float64
    distance matrix (8 · window² bytes) between checks; above it, none.
    """

    def __init__(
        self,
        protected_indices: Sequence[int],
        *,
        window: int = 512,
        k: int = 10,
        min_records: int = 50,
        consistency_drop: float = 0.10,
        rate_gap_shift: float = 0.15,
        check_every: int = 64,
        registry: Optional[MetricsRegistry] = None,
    ):
        if window < 2:
            raise ValidationError("fairness window needs at least 2 records")
        if k < 1:
            raise ValidationError("consistency neighbourhood k must be >= 1")
        if min_records < 2:
            raise ValidationError("min_records must be >= 2")
        self.protected_indices = sorted(int(i) for i in protected_indices)
        self.window = int(window)
        self.k = int(k)
        self.min_records = int(min_records)
        self.consistency_drop = float(consistency_drop)
        self.rate_gap_shift = float(rate_gap_shift)
        if check_every < 1:
            raise ValidationError("check_every must be >= 1")
        self.check_every = int(check_every)
        self._last_check = 0
        self._registry = registry
        # The window as ring buffers: record r sits in slot
        # r % window.  The feature ring is sized by the first observe().
        self._rows: Optional[np.ndarray] = None
        self._groups = np.empty(self.window, dtype=object)
        self._decisions = np.empty(self.window)
        self._seen = 0
        # Check side: the window's non-protected columns and their
        # squared distances (self-pairs +inf) as of the last check, and
        # the record count they reflect.  No matrix above the
        # threshold at which consistency() itself searches in blocks.
        self._keep: Optional[np.ndarray] = None
        self._window_rows: Optional[np.ndarray] = None
        self._dist: Optional[np.ndarray] = None
        self._synced = 0
        self._cached: Optional[Dict] = None
        self._cached_at = -1
        self._baseline: Optional[Dict] = None
        self._flagged = False
        # _lock keeps the three ring buffers and _seen aligned and is
        # held only for appends and snapshots.  _check_lock lets one
        # check run at a time and guards the check-side state; it is
        # re-entrant because observe() holds it while its check runs
        # through metrics().
        self._lock = threading.Lock()
        self._check_lock = threading.RLock()

    def observe(
        self,
        X: np.ndarray,
        groups: Sequence,
        decisions: Sequence[float],
    ) -> None:
        """Record served rows (features, protected value, decision).

        Rows holding a NaN or infinite feature or decision, or a row
        width other than the first call's, raise
        :class:`~repro.exceptions.ValidationError` and leave the window
        and :attr:`n_seen` unchanged.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim < 2:
            X = X.reshape(1, -1)
        groups = np.asarray(groups).ravel()
        decisions = np.asarray(decisions, dtype=np.float64).ravel()
        n = len(X)
        if X.ndim != 2 or not (n == groups.size == decisions.size):
            raise ValidationError(
                "observe needs a 2-D X with matching rows, groups and decisions"
            )
        # count_nonzero: at request sizes about half the cost of .all().
        if (
            np.count_nonzero(np.isfinite(X)) != X.size
            or np.count_nonzero(np.isfinite(decisions)) != n
        ):
            raise ValidationError("observed rows contain NaN or infinite values")
        if n > self.window:  # only its last `window` records can stay
            X, groups, decisions = (
                X[-self.window :], groups[-self.window :], decisions[-self.window :]
            )
        with self._lock:
            if self._rows is None:
                self._rows = np.empty((self.window, X.shape[1]))
            elif X.shape[1] != self._rows.shape[1]:
                raise ValidationError(
                    f"observed rows have {X.shape[1]} features, the window "
                    f"holds {self._rows.shape[1]}"
                )
            _ring_write(
                (self._rows, self._groups, self._decisions),
                (self._seen + n - len(X)) % self.window,
                (X, groups, decisions),
            )
            self._seen += n
            due = self._seen - self._last_check >= self.check_every
        if not due:
            return
        # Wait for a running check rather than skip this one: the
        # number of checks then follows the record count, not the
        # request timing.
        with self._check_lock:
            with self._lock:
                due = self._seen - self._last_check >= self.check_every
            if due:
                self.metrics()

    @property
    def n_seen(self) -> int:
        """Total records observed (window holds the last ``window``)."""
        return self._seen

    def _snapshot(self, seen: int):
        """Copy what a check needs; the caller holds both locks.

        Only the records written since the matrix was last brought up
        to date are copied, in arrival order, with their slots: they
        are the last ``fresh`` records, so one ring interval.
        """
        n = min(seen, self.window)
        fresh = min(seen - self._synced, n)
        slots = (seen - fresh + np.arange(fresh)) % self.window
        rows = self._rows[slots] if fresh else None
        return seen, slots, rows, self._groups[:n].copy(), self._decisions[:n].copy()

    def _absorb(self, slots: np.ndarray, rows: np.ndarray, n: int) -> None:
        """Write fresh rows into the check-side window and matrix."""
        if self._window_rows is None:
            protected = set(self.protected_indices)
            self._keep = np.array(
                [j for j in range(rows.shape[1]) if j not in protected],
                dtype=np.intp,
            )
            self._window_rows = np.empty((self.window, self._keep.size))
            if self.window <= _AUTO_BLOCK_THRESHOLD and self._keep.size:
                self._dist = np.empty((self.window, self.window))
        fresh = rows[:, self._keep]
        start = int(slots[0])
        _ring_write((self._window_rows,), start, (fresh,))
        if self._dist is not None:
            block = pairwise_sq_euclidean(fresh, self._window_rows[:n])
            # Fresh rows, then fresh columns (a transposed view of the
            # rows): slice writes, as the slots form one ring interval.
            _ring_write(
                (self._dist[:, :n], self._dist[:n].T), start, (block, block)
            )
            self._dist[slots, slots] = np.inf

    def _compute(
        self,
        seen: int,
        slots: np.ndarray,
        rows: Optional[np.ndarray],
        groups: np.ndarray,
        decisions: np.ndarray,
    ) -> Dict:
        n = decisions.size
        # Rolling by -head puts the window in arrival order (a no-op
        # until the ring has wrapped).
        head = seen % self.window
        metrics: Dict = {
            "window_records": n,
            "records_seen": seen,
            "consistency": None,
            "decision_rates": {},
            "rate_gap": None,
        }
        # The window is bounded and the server's cores belong to
        # request handling: one BLAS thread (a full 512 x 99 distance
        # matrix check averaged 7.5 ms on 1 thread, 10.0 ms on 2).
        with blas.limit(1):
            if slots.size:
                self._absorb(slots, rows, n)
                self._synced = seen
            if n > self.k + 1 and self._keep.size:
                if self._dist is not None:
                    neighbors = nearest_from_distances(
                        self._dist[:n, :n], self.k
                    )
                    value = consistency_from_neighbors(decisions, neighbors)
                else:
                    value = consistency(
                        np.roll(self._window_rows[:n], -head, axis=0),
                        np.roll(decisions, -head),
                        k=self.k,
                    )
                metrics["consistency"] = float(value)
        if n:
            # Arrival order, so each rate sums in the order it always did.
            groups = np.roll(groups, -head)
            decisions = np.roll(decisions, -head)
            rates: Dict[str, float] = {}
            for group in sorted(set(groups), key=str):
                rates[str(group)] = float(decisions[groups == group].mean())
            metrics["decision_rates"] = rates
            if len(rates) > 1:
                values = list(rates.values())
                metrics["rate_gap"] = float(max(values) - min(values))
        return metrics

    def metrics(self) -> Dict:
        """Current window metrics + baseline + drift flags (cached).

        Waits for a check that is already running instead of starting
        a second one, then recomputes only if records arrived since.
        """
        with self._check_lock:
            with self._lock:
                seen = self._seen
                stale = self._cached is None or self._cached_at != seen
                if stale:
                    self._last_check = seen
                    snapshot = self._snapshot(seen)
            if stale:
                current = self._compute(*snapshot)
                if (
                    self._baseline is None
                    and current["window_records"] >= self.min_records
                ):
                    self._baseline = {
                        "consistency": current["consistency"],
                        "rate_gap": current["rate_gap"],
                        "records_seen": seen,
                    }
                current["baseline"] = self._baseline
                current["drift"] = self._drift_flags(current)
                self._publish(current)
                self._warn_on_rising_edge(current)
                self._cached = current
                self._cached_at = seen
            return dict(self._cached)

    def _drift_flags(self, current: Dict) -> Dict:
        flags = {"consistency_drift": False, "rate_drift": False, "any": False}
        baseline = self._baseline
        if baseline is None:
            return flags
        base_consistency = baseline.get("consistency")
        now_consistency = current.get("consistency")
        if base_consistency is not None and now_consistency is not None:
            flags["consistency_drift"] = bool(
                base_consistency - now_consistency > self.consistency_drop
            )
        base_gap = baseline.get("rate_gap")
        now_gap = current.get("rate_gap")
        if base_gap is not None and now_gap is not None:
            flags["rate_drift"] = bool(now_gap - base_gap > self.rate_gap_shift)
        flags["any"] = flags["consistency_drift"] or flags["rate_drift"]
        return flags

    def _publish(self, current: Dict) -> None:
        if self._registry is None:
            return
        registry = self._registry
        registry.gauge("fairness_window_records").set(current["window_records"])
        if current["consistency"] is not None:
            registry.gauge("fairness_consistency").set(current["consistency"])
        if current["rate_gap"] is not None:
            registry.gauge("fairness_rate_gap").set(current["rate_gap"])
        for group, rate in current["decision_rates"].items():
            registry.gauge(
                "fairness_decision_rate", {"group": group}
            ).set(rate)
        registry.gauge("fairness_drift").set(
            1.0 if current["drift"]["any"] else 0.0
        )

    def _warn_on_rising_edge(self, current: Dict) -> None:
        flagged = current["drift"]["any"]
        if flagged and not self._flagged:
            logger.warning(
                "fairness drift detected",
                extra={
                    "consistency": current["consistency"],
                    "rate_gap": current["rate_gap"],
                    "baseline": self._baseline,
                    "window_records": current["window_records"],
                },
            )
        self._flagged = flagged

    def drift_flags(self) -> Dict:
        """Last computed drift flags, without recomputing.

        The cheap read for the serving hot path: :meth:`observe`
        refreshes the cache every ``check_every`` records, and
        :meth:`metrics` (the ``/v1/stats`` path) refreshes on demand.
        """
        if self._cached is not None:
            return dict(self._cached["drift"])
        return {"consistency_drift": False, "rate_drift": False, "any": False}

    def drifting(self) -> bool:
        """True while any drift flag is raised."""
        return bool(self.metrics()["drift"]["any"])

    def reset_baseline(self) -> None:
        """Forget the baseline; the next full window freezes a new one."""
        with self._check_lock:
            self._baseline = None
            self._flagged = False
            self._cached = None
            self._cached_at = -1
