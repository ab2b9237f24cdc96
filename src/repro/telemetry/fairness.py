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

Metrics are cached per window state; the O(window²) consistency kernel
reruns only when new records arrived since the last call, so frequent
``/v1/stats`` polling is cheap.

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
from collections import deque
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.metrics.individual import consistency
from repro.telemetry.logs import get_logger
from repro.telemetry.metrics import MetricsRegistry
from repro.utils import blas

logger = get_logger("telemetry.fairness")


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
        Recompute the (O(window²)) metrics automatically once this
        many new records accumulated since the last computation;
        between refreshes :meth:`drift_flags` answers from the cache,
        so the serving hot path never pays the consistency kernel.
        Checks are single-flight (see the module docstring): under
        concurrent load a check still runs every ``check_every``
        records, one at a time.
    registry:
        Optional registry that receives ``fairness_*`` gauges on every
        metrics refresh (the engine passes its own).
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
        self._rows: deque = deque(maxlen=self.window)
        self._groups: deque = deque(maxlen=self.window)
        self._decisions: deque = deque(maxlen=self.window)
        self._seen = 0
        self._cached: Optional[Dict] = None
        self._cached_at = -1
        self._baseline: Optional[Dict] = None
        self._flagged = False
        # _lock keeps the three window deques and _seen aligned and is
        # held only for appends and snapshots.  _check_lock lets one
        # check run at a time; it is re-entrant because observe()
        # holds it while its check runs through metrics().
        self._lock = threading.Lock()
        self._check_lock = threading.RLock()

    def observe(
        self,
        X: np.ndarray,
        groups: Sequence,
        decisions: Sequence[float],
    ) -> None:
        """Record served rows (features, protected value, decision)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        groups = np.asarray(groups).reshape(-1)
        decisions = np.asarray(decisions, dtype=np.float64).reshape(-1)
        if not (X.shape[0] == groups.size == decisions.size):
            raise ValidationError(
                "observe needs matching X rows, groups and decisions"
            )
        with self._lock:
            for row, group, decision in zip(X, groups, decisions):
                self._rows.append(row)
                self._groups.append(group)
                self._decisions.append(float(decision))
            self._seen += X.shape[0]
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

    def _compute(
        self, rows: List, groups: List, decisions: List, seen: int
    ) -> Dict:
        rows = np.asarray(rows, dtype=np.float64)
        decisions = np.asarray(decisions, dtype=np.float64)
        n = rows.shape[0]
        metrics: Dict = {
            "window_records": n,
            "records_seen": seen,
            "consistency": None,
            "decision_rates": {},
            "rate_gap": None,
        }
        if n > self.k + 1:
            protected = set(self.protected_indices)
            keep = [j for j in range(rows.shape[1]) if j not in protected]
            if keep:
                # The window is bounded and the server's cores belong
                # to request handling: one BLAS thread (at 512 x 99 the
                # check averages 7.5 ms on 1 thread, 10.0 ms on 2).
                with blas.limit(1):
                    metrics["consistency"] = float(
                        consistency(rows[:, keep], decisions, k=self.k)
                    )
        if n:
            rates: Dict[str, float] = {}
            for group in sorted(set(groups), key=str):
                mask = np.array([g == group for g in groups])
                rates[str(group)] = float(decisions[mask].mean())
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
                    window = (
                        list(self._rows),
                        list(self._groups),
                        list(self._decisions),
                    )
            if stale:
                current = self._compute(*window, seen)
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
