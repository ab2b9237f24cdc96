"""Serving-side drift response: watch traffic, warm-refit, hot-swap.

This is the closed loop the serving tier was missing: the
:class:`~repro.telemetry.fairness.FairnessMonitor` (PR 6) raises drift
flags, blue/green ``POST /v1/admin/reload`` (PR 7) swaps models with
zero downtime, and ``IFair.partial_fit`` warm-starts refits from the
served weights — the :class:`OnlineController` connects them.

The controller runs on one daemon thread next to the HTTP front end:

1. **Tap** — the HTTP handler hands it the raw bytes of every
   data-plane POST (:meth:`OnlineController.tap` is append-to-deque
   cheap and never raises, so the serving path cannot be degraded by
   it).  A background tick parses the tapped payloads, pushes the
   records through the *frozen* encoder + scaler, and keeps the last
   ``refresh_window`` encoded rows.
2. **Detect** — two independent drift signals: the fairness monitor's
   flags (merged across worker processes through their relabelled
   ``fairness_drift`` gauges) and a covariate-shift statistic — the
   mean nearest-anchor distance of the window over its baseline value
   (:func:`repro.utils.landmarks.anchor_assignment_cost`), with
   ``min(32, W // 4)`` anchors chosen on a window of ``W`` rows.  The
   baseline freezes at the *median* of ``calibration_ticks`` window
   costs and the published ratio is EMA-smoothed
   (``shift_smoothing``), so tick-to-tick window-composition noise
   under interleaved clients cannot trip the threshold on a
   stationary stream.  The ``DriftPolicy.policy`` knob picks which
   signal (or combination) triggers a response.
3. **Respond** — rate-limited by ``cooldown_s``: warm ``partial_fit``
   over the buffered window, landmark re-anchoring over the same
   window, a new *versioned* artifact directory written under
   ``<artifact>/online/vNNNN``, and the existing blue/green reload.
   Every step is wrapped: a failed refit or reload counts
   ``online_refit_failures_total`` and leaves the serving path on the
   current model — chaos storms degrade the *response*, never the
   service.

Only the model is refreshed.  Served traffic carries no labels, so the
scorer and the per-group decision thresholds cannot be legitimately
re-estimated online — they stay frozen from the fitted artifact, and
the refit preserves the representation geometry they were calibrated
on via the warm start.

Observability: ``online_refits_total``, ``drift_reloads_total``,
``online_refit_failures_total`` counters, an ``online_refit_seconds``
histogram, ``online_shift_ratio`` / ``online_window_rows`` gauges (all
in the engine's registry, so ``/v1/metrics`` scrapes them), spans
under ``serving.online.*``, and the ``GET /v1/admin/online`` status
endpoint (``POST`` triggers a manual refit).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from json import JSONDecodeError, loads
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.core.model import IFair
from repro.exceptions import ValidationError
from repro.serving.artifacts import ServingArtifact, save_artifact
from repro.telemetry.logs import get_logger
from repro.telemetry.tracing import get_tracer
from repro.utils.landmarks import anchor_assignment_cost, refresh_landmarks

_LOG = get_logger("serving.online")

#: How a refit/reload is triggered: the fairness ``monitor`` flags, the
#: covariate ``shift`` statistic, ``either`` signal (default), or only
#: when ``both`` agree (the conservative, flap-proof setting).
DRIFT_POLICIES = ("monitor", "shift", "either", "both")

#: Raw payloads buffered between control ticks.  Bounds parent-side
#: memory under request storms; the window itself has its own bound.
_TAP_CAPACITY = 1024

#: Anchors of the covariate-shift statistic, capped at a quarter of the
#: window's rows (see :meth:`OnlineController._n_anchors`).
_SHIFT_ANCHORS = 32


@dataclass(frozen=True)
class DriftPolicy:
    """Knobs of the online drift-response loop.

    Attributes
    ----------
    policy:
        One of :data:`DRIFT_POLICIES` — which drift signal schedules a
        refit.
    refresh_window:
        Sliding-window bound: rows buffered for the shift statistic,
        the landmark re-anchoring, and the ``partial_fit`` refit.
    min_window:
        Rows required before the shift baseline freezes and automatic
        refits are considered (prevents refitting on a handful of
        early requests).
    shift_threshold:
        ``cost / baseline_cost`` ratio above which the window counts
        as shifted (1.0 = covered exactly as tightly as at baseline).
    cooldown_s:
        Minimum seconds between automatic refits — the rate limit that
        keeps a noisy signal from flapping reloads.
    check_interval_s:
        Control-tick period of the background thread.
    calibration_ticks:
        Window-cost samples (one per control tick) pooled into the
        baseline, which freezes at their *median*.  A single window
        realisation is noisy — under interleaved clients the sliding
        window's composition varies tick to tick — and a noisy-low
        baseline inflates every later ratio.  The stream should be
        steady while the baseline calibrates.
    shift_smoothing:
        EMA weight of the newest cost ratio in the published shift
        statistic (1.0 = raw, unsmoothed).  Transient composition
        spikes decay instead of tripping the threshold; a real
        sustained shift still crosses it within a tick or two.
    refit_restarts / refit_max_iter:
        Optimisation budget of the online refit (warm-started, so far
        smaller than the offline fit's).
    """

    policy: str = "either"
    refresh_window: int = 512
    min_window: int = 64
    shift_threshold: float = 1.25
    cooldown_s: float = 30.0
    check_interval_s: float = 0.25
    calibration_ticks: int = 5
    shift_smoothing: float = 0.3
    refit_restarts: int = 1
    refit_max_iter: int = 60

    def __post_init__(self):
        if self.policy not in DRIFT_POLICIES:
            raise ValidationError(
                f"drift policy must be one of {DRIFT_POLICIES}, "
                f"got {self.policy!r}"
            )
        if self.refresh_window < 2:
            raise ValidationError("refresh_window must be at least 2")
        if not 2 <= self.min_window <= self.refresh_window:
            raise ValidationError(
                "min_window must lie in [2, refresh_window]"
            )
        if not self.shift_threshold > 0:
            raise ValidationError("shift_threshold must be positive")
        if self.cooldown_s < 0:
            raise ValidationError("cooldown_s must be non-negative")
        if not self.check_interval_s > 0:
            raise ValidationError("check_interval_s must be positive")
        if self.calibration_ticks < 1:
            raise ValidationError("calibration_ticks must be at least 1")
        if not 0.0 < self.shift_smoothing <= 1.0:
            raise ValidationError("shift_smoothing must lie in (0, 1]")
        if self.refit_restarts < 1 or self.refit_max_iter < 1:
            raise ValidationError(
                "refit_restarts and refit_max_iter must be positive"
            )


class OnlineController:
    """Drive warm refits + blue/green reloads from drift signals.

    Parameters
    ----------
    engine:
        The serving engine whose model is kept fresh.  Needs
        ``artifact`` and ``registry``; automatic *reloads* additionally
        need ``reload`` (the multi-worker dispatcher) — without it the
        controller still refits and versions artifacts, and reports
        ``reload: unsupported`` in its status.
    artifact_path:
        Directory of the served artifact; versioned online artifacts
        are written under ``<artifact_path>/online/vNNNN``.
    policy:
        A :class:`DriftPolicy`; defaults to the default policy.
    """

    def __init__(
        self,
        engine,
        artifact_path: str,
        policy: Optional[DriftPolicy] = None,
        *,
        registry=None,
    ):
        self.engine = engine
        self.artifact_path = str(artifact_path)
        self.policy = policy if policy is not None else DriftPolicy()
        self.registry = registry if registry is not None else engine.registry
        self._refits = self.registry.counter("online_refits_total")
        self._reloads = self.registry.counter("drift_reloads_total")
        self._failures = self.registry.counter("online_refit_failures_total")
        self._refit_seconds = self.registry.histogram("online_refit_seconds")
        self._shift_gauge = self.registry.gauge("online_shift_ratio")
        self._window_gauge = self.registry.gauge("online_window_rows")
        self._tap: Deque[bytes] = deque(maxlen=_TAP_CAPACITY)
        self._tap_lock = threading.Lock()
        self._data_lock = threading.Lock()
        self._refit_lock = threading.Lock()
        # Guards the refit outcome — the counters above, _last_result
        # and _last_error — so status() sees them change together.  It
        # is held only to publish or read, never across a refit.
        self._publish_lock = threading.Lock()
        self._window: Deque[np.ndarray] = deque(
            maxlen=self.policy.refresh_window
        )
        self._pending: Deque[np.ndarray] = deque(
            maxlen=self.policy.refresh_window
        )
        self._anchors: Optional[np.ndarray] = None
        self._baseline_cost: Optional[float] = None
        self._calibration: List[float] = []
        self._shift = 1.0
        self._model: Optional[IFair] = None
        self._version = 0
        self._last_refit_at: Optional[float] = None
        self._last_result: Optional[Dict] = None
        self._last_error: Optional[str] = None
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # serving-path hook

    def tap(self, path: str, raw: bytes) -> None:
        """Hand the controller one data-plane POST body (cheap, safe).

        Called from the HTTP handler threads — one lock round-trip and
        a bounded append; any exception is swallowed because nothing
        about drift response may degrade the request path.
        """
        try:
            if not raw or path.startswith("/v1/admin"):
                return
            with self._tap_lock:
                self._tap.append(raw)
        except Exception:  # pragma: no cover - by-construction unreachable
            pass

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "OnlineController":
        if self._thread is not None:
            raise ValidationError("online controller already started")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-serving-online", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop_event.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=timeout)

    def _loop(self) -> None:
        while not self._stop_event.wait(self.policy.check_interval_s):
            try:
                self.step()
            except Exception as exc:  # chaos-safe: the loop never dies
                with self._publish_lock:
                    self._failures.inc()
                    self._last_error = repr(exc)
                _LOG.warning(
                    "online control tick failed", extra={"error": repr(exc)}
                )

    # ------------------------------------------------------------------
    # control tick

    def step(self) -> Optional[Dict]:
        """One control tick: ingest taps, update signals, maybe refit."""
        self._ingest_tapped()
        self._update_shift()
        if not self._should_refit():
            return None
        return self._refit_and_reload("auto")

    def trigger(self) -> Dict:
        """Manual refit+reload (the ``POST /v1/admin/online`` path).

        Bypasses the drift policy and the cooldown, but still needs at
        least 2 buffered rows to refit on.
        """
        self._ingest_tapped()
        self._update_shift()
        return self._refit_and_reload("manual", force=True)

    def _ingest_tapped(self) -> None:
        with self._tap_lock:
            if not self._tap:
                return
            drained = list(self._tap)
            self._tap.clear()
        artifact = self.engine.artifact
        n_features = artifact.model.prototypes_.shape[1]
        rows: List[np.ndarray] = []
        for raw in drained:
            try:
                payload = loads(raw.decode("utf-8"))
                records = payload.get("records")
                if not isinstance(records, list) or not records:
                    continue
                if artifact.encoder is not None:
                    X = artifact.encoder.transform(
                        np.asarray(records, dtype=object)
                    )
                else:
                    X = np.asarray(records, dtype=np.float64)
                    if X.ndim == 1:
                        X = X.reshape(1, -1)
                if X.ndim != 2 or X.shape[1] != n_features:
                    continue
                if not np.all(np.isfinite(X)):
                    continue
                if artifact.scaler is not None:
                    X = artifact.scaler.transform(X, validate=False)
                rows.extend(np.asarray(X, dtype=np.float64))
            except (UnicodeDecodeError, JSONDecodeError, ValueError, TypeError):
                # Malformed payloads were already rejected by the data
                # plane; the window only learns from servable records.
                continue
        if rows:
            with self._data_lock:
                for row in rows:
                    self._window.append(row)
                    self._pending.append(row)

    def _window_matrix(self) -> Optional[np.ndarray]:
        with self._data_lock:
            if not self._window:
                return None
            return np.asarray(self._window, dtype=np.float64)

    def _update_shift(self) -> None:
        W = self._window_matrix()
        self._window_gauge.set(0 if W is None else int(W.shape[0]))
        if W is None:
            return
        if self._anchors is None:
            if W.shape[0] < self.policy.min_window:
                return
            # First full window: choose anchors, start calibrating.
            bootstrap = refresh_landmarks(
                W,
                None,
                n_landmarks=self._n_anchors(W.shape[0]),
                random_state=0,
            )
            self._anchors = bootstrap.anchors
            self._calibration = []
        cost = anchor_assignment_cost(W, self._anchors)
        if self._baseline_cost is None:
            # Calibration: one cost sample per tick, baseline freezes
            # at their median.  A single window realisation is noisy —
            # the sliding window's duplicate composition varies tick to
            # tick under interleaved clients — and a noisy-low baseline
            # would inflate every later ratio into a spurious refit.
            self._calibration.append(float(cost))
            if len(self._calibration) >= self.policy.calibration_ticks:
                self._baseline_cost = float(np.median(self._calibration))
                self._calibration = []
            self._shift = 1.0
            self._shift_gauge.set(1.0)
            return
        base = self._baseline_cost
        raw = cost / base if base and base > 0.0 else 1.0
        # EMA: transient composition spikes decay instead of tripping
        # the threshold; a sustained real shift crosses it in a tick
        # or two (the post-shift ratio is typically several x).
        alpha = self.policy.shift_smoothing
        self._shift = (1.0 - alpha) * self._shift + alpha * raw
        self._shift_gauge.set(self._shift)

    @staticmethod
    def _n_anchors(window_rows: int) -> int:
        # The coverage statistic needs L well below M: with L ~ M every
        # row is its own anchor, the baseline cost collapses to zero,
        # and the shift ratio degenerates to a constant 1.0.
        return max(1, min(_SHIFT_ANCHORS, int(window_rows) // 4))

    def _drift_flagged(self) -> bool:
        flags = getattr(self.engine, "drift_flags", None)
        if callable(flags):
            return bool(flags().get("any", False))
        monitor = getattr(self.engine, "monitor", None)
        if monitor is not None:
            return bool(monitor.drift_flags().get("any", False))
        return False

    def _shift_flagged(self) -> bool:
        return (
            self._baseline_cost is not None
            and self._shift > self.policy.shift_threshold
        )

    def _should_refit(self) -> bool:
        with self._data_lock:
            window_rows = len(self._window)
            pending = len(self._pending)
        if window_rows < self.policy.min_window or pending == 0:
            return False
        if self._last_refit_at is not None:
            if time.monotonic() - self._last_refit_at < self.policy.cooldown_s:
                return False
        drift = self._drift_flagged()
        shifted = self._shift_flagged()
        if self.policy.policy == "monitor":
            return drift
        if self.policy.policy == "shift":
            return shifted
        if self.policy.policy == "both":
            return drift and shifted
        return drift or shifted

    # ------------------------------------------------------------------
    # refit + reload

    def _ensure_model(self) -> IFair:
        if self._model is not None:
            return self._model
        base_model = self.engine.artifact.model
        params = base_model.get_params()
        params.update(
            n_restarts=self.policy.refit_restarts,
            max_iter=self.policy.refit_max_iter,
            n_jobs=None,
            warm_start_theta=None,
        )
        model = IFair(**params)
        # Seed the warm-start chain from the served weights: the first
        # partial_fit resumes the optimiser from the live model.
        model.prototypes_ = np.array(base_model.prototypes_, copy=True)
        model.alpha_ = np.array(base_model.alpha_, copy=True)
        model.loss_ = float(base_model.loss_)
        self._model = model
        return model

    def _refit_and_reload(self, reason: str, force: bool = False) -> Dict:
        with self._refit_lock:
            now = time.monotonic()
            if not force and self._last_refit_at is not None:
                remaining = self.policy.cooldown_s - (now - self._last_refit_at)
                if remaining > 0:
                    return {"status": "cooldown", "retry_after_s": remaining}
            with self._data_lock:
                if len(self._window) < 2:
                    return {
                        "status": "skipped",
                        "reason": "window holds fewer than 2 rows",
                    }
                if not self._pending:
                    return {
                        "status": "skipped",
                        "reason": "no new rows since the last refit",
                    }
                increment = np.asarray(self._pending, dtype=np.float64)
                self._pending.clear()
            start = time.perf_counter()
            tracer = get_tracer()
            refitted = reloaded = False
            try:
                with tracer.span(
                    "serving.online.refit",
                    reason=reason,
                    n_rows=int(increment.shape[0]),
                ):
                    artifact = self.engine.artifact
                    protected = [
                        int(i)
                        for i in np.asarray(artifact.protected_indices).ravel()
                    ]
                    model = self._ensure_model()
                    model.partial_fit(
                        increment,
                        protected,
                        window_size=self.policy.refresh_window,
                    )
                    self._version += 1
                    path = os.path.join(
                        self.artifact_path, "online", f"v{self._version:04d}"
                    )
                    refreshed = ServingArtifact(
                        model=model,
                        protected_indices=artifact.protected_indices,
                        encoder=artifact.encoder,
                        scaler=artifact.scaler,
                        scorer=artifact.scorer,
                        thresholds=artifact.thresholds,
                        feature_names=list(artifact.feature_names),
                        metadata={
                            **dict(artifact.metadata),
                            "online_version": self._version,
                            "online_reason": reason,
                            "online_refit_loss": float(model.loss_),
                            "online_window_rows": int(model.n_buffered),
                        },
                    )
                    save_artifact(path, refreshed)
                    refitted = True
                    answer: Dict = {
                        "status": "refitted",
                        "reason": reason,
                        "version": self._version,
                        "artifact": path,
                        "loss": float(model.loss_),
                        "window_rows": int(model.n_buffered),
                        "reload": "unsupported",
                    }
                    reload_fn = getattr(self.engine, "reload", None)
                    if callable(reload_fn):
                        with tracer.span("serving.online.reload", version=self._version):
                            reply = reload_fn(path)
                        reloaded = True
                        answer["reload"] = "ok"
                        answer["checksum"] = reply.get("checksum")
                    self._rebaseline()
                    self._publish(
                        answer, None, refitted=True, reloaded=reloaded, failed=False
                    )
                    return answer
            except Exception as exc:
                # Chaos safety: a failed refit/reload must never reach
                # the serving path.  Count it, remember it, move on —
                # the workers keep answering on the current model.
                _LOG.warning(
                    "online refit failed",
                    extra={"reason": reason, "error": repr(exc)},
                )
                failure = {"status": "failed", "reason": reason, "error": repr(exc)}
                self._publish(
                    failure,
                    repr(exc),
                    refitted=refitted,
                    reloaded=reloaded,
                    failed=True,
                )
                return failure
            finally:
                self._last_refit_at = time.monotonic()
                self._refit_seconds.observe(time.perf_counter() - start)

    def _publish(
        self,
        result: Dict,
        error: Optional[str],
        *,
        refitted: bool,
        reloaded: bool,
        failed: bool,
    ) -> None:
        """Make one refit's outcome visible to :meth:`status` at once."""
        with self._publish_lock:
            if refitted:
                self._refits.inc()
            if reloaded:
                self._reloads.inc()
            if failed:
                self._failures.inc()
            self._last_result = result
            self._last_error = error

    def _rebaseline(self) -> None:
        """Re-anchor over the current window and reset the baseline.

        After a refit the model *represents* the shifted distribution,
        so coverage is re-measured from anchors chosen on the window —
        the shift statistic then watches for the *next* departure
        rather than re-reporting the one just handled.
        """
        W = self._window_matrix()
        if W is None:
            return
        refreshed = refresh_landmarks(
            W,
            self._anchors,
            n_landmarks=self._n_anchors(W.shape[0]),
            random_state=self._version,
            force=True,
        )
        self._anchors = refreshed.anchors
        # Seed the new calibration with the cost under the new anchors
        # and let the next ticks complete the median — a single window
        # realisation right after the refit is the noisiest possible
        # baseline (the window still mixes pre- and post-shift rows).
        self._baseline_cost = None
        self._calibration = [
            float(anchor_assignment_cost(W, refreshed.anchors))
        ]
        if len(self._calibration) >= self.policy.calibration_ticks:
            self._baseline_cost = float(np.median(self._calibration))
            self._calibration = []
        self._shift = 1.0
        self._shift_gauge.set(1.0)

    # ------------------------------------------------------------------
    # introspection

    def status(self) -> Dict:
        """JSON-safe controller state (the ``GET /v1/admin/online`` body)."""
        with self._data_lock:
            window_rows = len(self._window)
            pending = len(self._pending)
        cooldown_remaining = 0.0
        if self._last_refit_at is not None:
            cooldown_remaining = max(
                0.0,
                self.policy.cooldown_s
                - (time.monotonic() - self._last_refit_at),
            )
        with self._publish_lock:
            refits = int(self._refits.value)
            reloads = int(self._reloads.value)
            failures = int(self._failures.value)
            last_result = self._last_result
            last_error = self._last_error
        return {
            "enabled": True,
            "running": self._thread is not None,
            "policy": asdict(self.policy),
            "window_rows": window_rows,
            "pending_rows": pending,
            "baseline_cost": self._baseline_cost,
            "calibrating": (
                self._anchors is not None and self._baseline_cost is None
            ),
            "shift": self._shift if self._baseline_cost is not None else None,
            "drift_flagged": self._drift_flagged(),
            "shift_flagged": self._shift_flagged(),
            "refits": refits,
            "reloads": reloads,
            "failures": failures,
            "version": self._version,
            "cooldown_remaining_s": cooldown_remaining,
            "last_result": last_result,
            "last_error": last_error,
        }
