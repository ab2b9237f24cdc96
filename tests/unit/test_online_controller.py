"""The drift-response controller, decoupled from HTTP and workers.

A fake engine exposes exactly the surface the controller consumes
(``artifact``, ``registry``, ``drift_flags``, ``reload``), so every
policy/cooldown/failure branch is exercised deterministically without
sockets or forked processes.
"""

import json
import os

import numpy as np
import pytest

from repro.data.compas import generate_compas
from repro.exceptions import ValidationError
from repro.serving import (
    InferenceEngine,
    fit_serving_pipeline,
    load_artifact,
    save_artifact,
)
from repro.serving.online import DRIFT_POLICIES, DriftPolicy, OnlineController
from repro.telemetry.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def dataset():
    return generate_compas(80, charge_levels=4, random_state=3)


@pytest.fixture(scope="module")
def artifact_dir(dataset, tmp_path_factory):
    artifact = fit_serving_pipeline(
        dataset, n_prototypes=2, max_iter=10, max_pairs=200, random_state=3
    )
    path = str(tmp_path_factory.mktemp("online") / "artifact")
    save_artifact(path, artifact)
    return path


class FakeEngine:
    """The controller-facing slice of an engine/dispatcher."""

    def __init__(self, artifact_path, *, reload_error=None):
        self.artifact = load_artifact(artifact_path)
        self.registry = MetricsRegistry()
        self.drift = False
        self.reloads = []
        self.reload_error = reload_error

    def drift_flags(self):
        return {"any": self.drift}

    def reload(self, path):
        if self.reload_error is not None:
            raise self.reload_error
        self.reloads.append(path)
        self.artifact = load_artifact(path)
        return {"status": "ok", "checksum": self.artifact.checksum}


def _payload(rows):
    return json.dumps({"records": np.asarray(rows).tolist()}).encode()


def _controller(engine, artifact_path, **overrides):
    defaults = dict(
        policy="either",
        refresh_window=64,
        min_window=16,
        cooldown_s=0.0,
        check_interval_s=0.01,
        shift_threshold=1.25,
        # Single-tick baseline + raw ratio: keeps each branch test a
        # one-step affair; calibration/smoothing get their own tests.
        calibration_ticks=1,
        shift_smoothing=1.0,
        refit_restarts=1,
        refit_max_iter=10,
    )
    defaults.update(overrides)
    return OnlineController(engine, artifact_path, DriftPolicy(**defaults))


def _feed(controller, rows):
    controller.tap("/v1/decide", _payload(rows))


def test_policy_validation():
    assert DRIFT_POLICIES == ("monitor", "shift", "either", "both")
    with pytest.raises(ValidationError):
        DriftPolicy(policy="bogus")
    with pytest.raises(ValidationError):
        DriftPolicy(refresh_window=1)
    with pytest.raises(ValidationError):
        DriftPolicy(min_window=128, refresh_window=64)
    with pytest.raises(ValidationError):
        DriftPolicy(shift_threshold=0.0)
    with pytest.raises(ValidationError):
        DriftPolicy(cooldown_s=-1.0)
    with pytest.raises(ValidationError):
        DriftPolicy(check_interval_s=0.0)
    with pytest.raises(ValidationError):
        DriftPolicy(refit_restarts=0)
    with pytest.raises(ValidationError):
        DriftPolicy(calibration_ticks=0)
    with pytest.raises(ValidationError):
        DriftPolicy(shift_smoothing=0.0)
    with pytest.raises(ValidationError):
        DriftPolicy(shift_smoothing=1.5)


def test_tap_is_safe_and_filters_admin(dataset, artifact_dir):
    engine = FakeEngine(artifact_dir)
    controller = _controller(engine, artifact_dir)
    controller.tap("/v1/admin/reload", _payload(dataset.X[:4]))
    controller.tap("/v1/decide", b"")  # empty body
    controller.tap("/v1/decide", b"not json at all")
    controller.tap("/v1/decide", b'{"records": "wrong type"}')
    controller.tap("/v1/decide", _payload(np.full((2, 3), np.nan)))  # bad width
    controller.step()
    assert controller.status()["window_rows"] == 0


_BODIES = {
    "rows": lambda X: {"records": X[:3].tolist()},
    "one-flat-record": lambda X: {"records": X[0].tolist()},
    "wrong-width": lambda X: {"records": X[:2, :-1].tolist()},
    "nan": lambda X: {"records": [[float("nan")] * X.shape[1]]},
    "ragged": lambda X: {"records": [X[0].tolist(), X[1, :-1].tolist()]},
    "strings": lambda X: {"records": [["a"] * X.shape[1]]},
    "empty-row": lambda X: {"records": [[]]},
    "three-d": lambda X: {"records": [X[:2].tolist()]},
    "not-an-object": lambda X: X[:2].tolist(),
}


@pytest.mark.parametrize("body", sorted(_BODIES))
def test_window_takes_exactly_the_records_the_engine_serves(
    dataset, artifact_dir, body
):
    engine = InferenceEngine(load_artifact(artifact_dir))
    controller = _controller(engine, artifact_dir)
    raw = json.dumps(_BODIES[body](dataset.X)).encode()
    status, _ = engine.handle_http("/v1/transform", raw)
    controller.tap("/v1/transform", raw)
    controller.step()
    window_rows = controller.status()["window_rows"]
    assert (status == 200) == (window_rows > 0), (status, window_rows)
    assert status != 200 or window_rows == engine.n_records


def test_ingest_builds_window_and_bounds_it(dataset, artifact_dir):
    engine = FakeEngine(artifact_dir)
    controller = _controller(engine, artifact_dir, refresh_window=32, min_window=16)
    for start in range(0, 80, 8):
        _feed(controller, dataset.X[start : start + 8])
    controller.step()
    status = controller.status()
    assert status["window_rows"] == 32  # bounded sliding window
    assert status["baseline_cost"] > 0.0
    assert status["shift"] == pytest.approx(1.0)


def test_no_signal_means_no_refit(dataset, artifact_dir):
    engine = FakeEngine(artifact_dir)
    controller = _controller(engine, artifact_dir)
    for _ in range(4):
        _feed(controller, dataset.X[:20])
        assert controller.step() is None
    status = controller.status()
    assert status["refits"] == 0
    assert engine.reloads == []


def test_monitor_policy_drives_refit_and_reload(dataset, artifact_dir):
    engine = FakeEngine(artifact_dir)
    controller = _controller(engine, artifact_dir, policy="monitor")
    _feed(controller, dataset.X[:32])
    controller.step()
    engine.drift = True
    _feed(controller, dataset.X[32:48])
    result = controller.step()
    assert result["status"] == "refitted"
    assert result["reload"] == "ok"
    assert engine.reloads == [result["artifact"]]
    # the versioned artifact round-trips and shares the frozen heads
    refreshed = load_artifact(result["artifact"])
    assert refreshed.metadata["online_version"] == 1
    assert refreshed.thresholds is not None
    status = controller.status()
    assert status["refits"] == 1
    assert status["reloads"] == 1
    assert status["failures"] == 0


def test_shift_policy_ignores_monitor_flag(dataset, artifact_dir):
    engine = FakeEngine(artifact_dir)
    controller = _controller(engine, artifact_dir, policy="shift")
    _feed(controller, dataset.X[:32])
    controller.step()
    engine.drift = True  # monitor screams, shift policy doesn't care
    _feed(controller, dataset.X[32:48])
    assert controller.step() is None
    # a genuinely shifted window does trigger
    _feed(controller, dataset.X[:48] + 30.0)
    result = controller.step()
    assert result["status"] == "refitted"


def test_both_policy_needs_agreement(dataset, artifact_dir):
    engine = FakeEngine(artifact_dir)
    controller = _controller(engine, artifact_dir, policy="both")
    _feed(controller, dataset.X[:32])
    controller.step()
    engine.drift = True  # drift alone: not enough
    _feed(controller, dataset.X[32:48])
    assert controller.step() is None
    _feed(controller, dataset.X[:48] + 30.0)  # now both agree
    result = controller.step()
    assert result["status"] == "refitted"


def test_cooldown_rate_limits_refits(dataset, artifact_dir):
    engine = FakeEngine(artifact_dir)
    controller = _controller(engine, artifact_dir, policy="monitor", cooldown_s=3600.0)
    engine.drift = True
    _feed(controller, dataset.X[:32])
    result = controller.step()
    assert result["status"] == "refitted"
    _feed(controller, dataset.X[32:48])
    assert controller.step() is None  # cooling down
    assert controller.status()["refits"] == 1
    assert controller.status()["cooldown_remaining_s"] > 0.0
    # manual trigger bypasses the cooldown
    result = controller.trigger()
    assert result["status"] == "refitted"
    assert controller.status()["refits"] == 2


def test_failed_reload_is_contained(dataset, artifact_dir):
    engine = FakeEngine(artifact_dir, reload_error=RuntimeError("worker storm"))
    controller = _controller(engine, artifact_dir, policy="monitor")
    engine.drift = True
    _feed(controller, dataset.X[:32])
    result = controller.step()  # must not raise
    assert result["status"] == "failed"
    assert "worker storm" in result["error"]
    status = controller.status()
    assert status["refits"] == 1  # the refit itself succeeded
    assert status["failures"] == 1
    assert status["reloads"] == 0
    assert status["last_error"] is not None
    # recovery: the fault clears and the next trigger succeeds
    engine.reload_error = None
    _feed(controller, dataset.X[32:48])
    assert controller.trigger()["status"] == "refitted"
    assert controller.status()["last_error"] is None


class StatusProbingEngine(FakeEngine):
    """Reads the controller's status from inside ``reload``, as an
    HTTP poller of ``GET /v1/admin/online`` can while a refit runs."""

    def __init__(self, artifact_path, **kwargs):
        super().__init__(artifact_path, **kwargs)
        self.controller = None
        self.seen = []

    def reload(self, path):
        self.seen.append(self.controller.status())
        return super().reload(path)


def _outcome_is_consistent(status):
    """The counters a poller sees describe the last_result it sees."""
    last = status["last_result"]
    if last is None:
        return status["refits"] == status["reloads"] == status["failures"] == 0
    return last["version"] == status["refits"] == status["reloads"]


def test_status_during_reload_matches_last_result(dataset, artifact_dir):
    """Mid-refit, status() shows the previous refit's counters and
    result together — never a counted refit whose result is unset."""
    engine = StatusProbingEngine(artifact_dir)
    controller = _controller(engine, artifact_dir, policy="monitor")
    engine.controller = controller
    engine.drift = True
    _feed(controller, dataset.X[:32])
    assert controller.step()["status"] == "refitted"
    _feed(controller, dataset.X[32:64])
    assert controller.trigger()["status"] == "refitted"
    assert len(engine.seen) == 2
    assert all(_outcome_is_consistent(status) for status in engine.seen)
    assert engine.seen[0]["last_result"] is None
    assert engine.seen[1]["last_result"]["version"] == 1
    final = controller.status()
    assert _outcome_is_consistent(final)
    assert final["refits"] == final["reloads"] == 2


def test_trigger_without_rows_is_skipped(artifact_dir):
    engine = FakeEngine(artifact_dir)
    controller = _controller(engine, artifact_dir)
    result = controller.trigger()
    assert result["status"] == "skipped"


def test_refit_rebaselines_shift(dataset, artifact_dir):
    """After responding to a shift the statistic re-arms at 1.0 over
    re-anchored coordinates — it watches for the *next* departure
    instead of re-reporting the handled one (no flapping)."""
    engine = FakeEngine(artifact_dir)
    controller = _controller(engine, artifact_dir, policy="shift")
    _feed(controller, dataset.X[:32])
    controller.step()
    _feed(controller, dataset.X[:48] + 30.0)
    assert controller.step()["status"] == "refitted"
    status = controller.status()
    assert status["shift"] == pytest.approx(1.0)
    assert not status["shift_flagged"]
    # steady (still-shifted) traffic does not re-trigger
    _feed(controller, dataset.X[:16] + 30.0)
    assert controller.step() is None


def test_baseline_calibrates_over_median_of_ticks(dataset, artifact_dir):
    """The baseline freezes at the median of ``calibration_ticks``
    window costs, not the first realisation — one noisy-low snapshot
    must not inflate every later ratio into a spurious refit."""
    engine = FakeEngine(artifact_dir)
    controller = _controller(
        engine, artifact_dir, policy="shift", calibration_ticks=3
    )
    _feed(controller, dataset.X[:32])
    controller.step()  # tick 1: anchors chosen, calibrating
    status = controller.status()
    assert status["calibrating"]
    assert status["baseline_cost"] is None and status["shift"] is None
    assert not status["shift_flagged"]  # calibration never flags
    controller.step()  # tick 2
    assert controller.status()["calibrating"]
    controller.step()  # tick 3: median frozen
    status = controller.status()
    assert not status["calibrating"]
    assert status["baseline_cost"] > 0.0
    assert status["shift"] == pytest.approx(1.0)


def test_shift_is_ema_smoothed(dataset, artifact_dir):
    """A single near-threshold spike is absorbed by the EMA; the same
    ratio *sustained* converges up and triggers within a few ticks."""
    from repro.utils.landmarks import anchor_assignment_cost

    engine = FakeEngine(artifact_dir)
    controller = _controller(
        engine, artifact_dir, policy="shift", shift_smoothing=0.3
    )
    _feed(controller, dataset.X[:32])
    controller.step()  # baseline frozen (calibration_ticks=1)
    _feed(controller, dataset.X[:48] + 30.0)
    controller._ingest_tapped()
    # pin the raw ratio at exactly 1.5 (above the 1.25 threshold)
    W = controller._window_matrix()
    cost = anchor_assignment_cost(W, controller._anchors)
    controller._baseline_cost = cost / 1.5
    controller._update_shift()
    status = controller.status()
    assert status["shift"] == pytest.approx(0.7 * 1.0 + 0.3 * 1.5)
    assert not status["shift_flagged"]  # the one-tick spike is absorbed
    # the ratio persists -> the EMA converges toward 1.5 and triggers
    results = [controller.step() for _ in range(5)]
    refits = [r for r in results if r is not None]
    assert refits and refits[0]["status"] == "refitted"


def test_rebaseline_recalibrates(dataset, artifact_dir):
    """After a refit the baseline is re-calibrated over several ticks
    (the post-refit window is the noisiest possible snapshot)."""
    engine = FakeEngine(artifact_dir)
    controller = _controller(
        engine, artifact_dir, policy="shift", calibration_ticks=3
    )
    _feed(controller, dataset.X[:32])
    for _ in range(3):
        controller.step()
    _feed(controller, dataset.X[:48] + 30.0)
    result = None
    for _ in range(20):
        result = controller.step()
        if result is not None:
            break
    assert result["status"] == "refitted"
    status = controller.status()
    assert status["calibrating"]
    assert status["baseline_cost"] is None
    # steady ticks complete the calibration and the statistic re-arms
    for _ in range(3):
        assert controller.step() is None
    status = controller.status()
    assert not status["calibrating"]
    assert status["baseline_cost"] > 0.0
    assert status["shift"] == pytest.approx(1.0)


def test_metrics_exported(dataset, artifact_dir):
    engine = FakeEngine(artifact_dir)
    controller = _controller(engine, artifact_dir, policy="monitor")
    engine.drift = True
    _feed(controller, dataset.X[:32])
    controller.step()
    snapshot = engine.registry.snapshot()
    assert snapshot["counters"]["online_refits_total"] == 1
    assert snapshot["counters"]["drift_reloads_total"] == 1
    assert snapshot["gauges"]["online_window_rows"] == 32.0
    assert snapshot["histograms"]["online_refit_seconds"]["count"] == 1


def test_start_stop_lifecycle(artifact_dir):
    engine = FakeEngine(artifact_dir)
    controller = _controller(engine, artifact_dir)
    controller.start()
    with pytest.raises(ValidationError):
        controller.start()
    assert controller.status()["running"]
    controller.stop()
    assert not controller.status()["running"]


def test_online_artifacts_are_versioned(dataset, artifact_dir):
    engine = FakeEngine(artifact_dir)
    controller = _controller(engine, artifact_dir, policy="monitor")
    engine.drift = True
    _feed(controller, dataset.X[:32])
    first = controller.step()
    _feed(controller, dataset.X[32:64])
    second = controller.trigger()
    assert first["version"] == 1 and second["version"] == 2
    assert os.path.isdir(os.path.join(artifact_dir, "online", "v0001"))
    assert os.path.isdir(os.path.join(artifact_dir, "online", "v0002"))


def test_landmark_era_artifact_gets_fixed_anchor_count(
    dataset, artifact_dir, tmp_path, make_landmark_era_artifact
):
    """The shift statistic uses min(32, rows // 4) anchors whatever
    landmark count an old artifact recorded, and an online refit of a
    landmark-era artifact runs on the exact full-pair objective."""
    legacy = make_landmark_era_artifact(
        artifact_dir, str(tmp_path / "legacy"), n_landmarks=16
    )
    for rows, expected in ((dataset.X[:40], 10), (np.vstack([dataset.X] * 2), 32)):
        controller = _controller(FakeEngine(legacy), legacy, refresh_window=256)
        _feed(controller, rows)
        controller.step()
        assert controller._anchors.shape[0] == expected
    assert controller.trigger()["status"] == "refitted"
    assert controller._model.pair_mode == "full"
