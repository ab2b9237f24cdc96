"""Unit tests for the serving-side fairness drift monitor."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.telemetry.fairness import FairnessMonitor
from repro.telemetry.metrics import MetricsRegistry


def _feed(monitor, rng, n, *, rate_a=0.5, rate_b=0.5, shift=0.0):
    """Observe n records: 2 informative cols + 1 protected col."""
    X = rng.normal(size=(n, 3)) + shift
    groups = rng.integers(0, 2, size=n)
    decisions = np.where(
        groups == 0,
        (rng.random(n) < rate_a).astype(float),
        (rng.random(n) < rate_b).astype(float),
    )
    monitor.observe(X, groups, decisions)


def test_validation():
    with pytest.raises(ValidationError):
        FairnessMonitor([2], window=1)
    with pytest.raises(ValidationError):
        FairnessMonitor([2], k=0)
    with pytest.raises(ValidationError):
        FairnessMonitor([2], min_records=1)
    with pytest.raises(ValidationError):
        FairnessMonitor([2], check_every=0)
    monitor = FairnessMonitor([2])
    with pytest.raises(ValidationError):
        monitor.observe(np.zeros((3, 3)), [0, 1], [1.0, 0.0, 1.0])


def test_small_window_reports_no_consistency():
    monitor = FairnessMonitor([2], k=10)
    monitor.observe(np.zeros((3, 3)), [0, 1, 0], [1.0, 0.0, 1.0])
    metrics = monitor.metrics()
    assert metrics["window_records"] == 3
    assert metrics["consistency"] is None
    assert set(metrics["decision_rates"]) == {"0", "1"}


def test_baseline_freezes_and_stable_stream_does_not_drift():
    rng = np.random.default_rng(0)
    monitor = FairnessMonitor([2], window=256, min_records=50, check_every=10_000)
    _feed(monitor, rng, 100)
    first = monitor.metrics()
    assert first["baseline"] is not None
    assert first["baseline"]["consistency"] is not None
    _feed(monitor, rng, 100)
    second = monitor.metrics()
    assert second["baseline"] == first["baseline"]  # frozen
    assert not second["drift"]["any"]


def test_rate_drift_on_shifted_stream():
    rng = np.random.default_rng(1)
    monitor = FairnessMonitor(
        [2], window=200, min_records=50, rate_gap_shift=0.15, check_every=10_000
    )
    _feed(monitor, rng, 200, rate_a=0.5, rate_b=0.5)
    assert not monitor.metrics()["drift"]["rate_drift"]
    # group 1's approval rate collapses: the gap widens far past baseline
    _feed(monitor, rng, 200, rate_a=0.9, rate_b=0.1)
    metrics = monitor.metrics()
    assert metrics["drift"]["rate_drift"]
    assert metrics["drift"]["any"]
    assert monitor.drifting()


def test_consistency_drift_on_decision_noise():
    rng = np.random.default_rng(2)
    monitor = FairnessMonitor(
        [1], window=150, k=5, min_records=50, consistency_drop=0.10,
        check_every=10_000,
    )
    # decisions perfectly determined by the first feature -> consistency high
    X = rng.normal(size=(150, 2))
    decisions = (X[:, 0] > 0).astype(float)
    monitor.observe(X, np.zeros(150, dtype=int), decisions)
    base = monitor.metrics()
    assert base["baseline"]["consistency"] > 0.8
    # decisions become coin flips over the same features
    X2 = rng.normal(size=(150, 2))
    monitor.observe(X2, np.zeros(150, dtype=int), rng.integers(0, 2, 150))
    metrics = monitor.metrics()
    assert metrics["consistency"] < base["baseline"]["consistency"]
    assert metrics["drift"]["consistency_drift"]


def test_drift_flags_is_cache_only():
    monitor = FairnessMonitor([2])
    # never computed -> default-false flags, no O(n^2) work
    assert monitor.drift_flags() == {
        "consistency_drift": False,
        "rate_drift": False,
        "any": False,
    }


def test_observe_auto_refreshes_every_check_every():
    rng = np.random.default_rng(3)
    monitor = FairnessMonitor([2], min_records=10, check_every=64)
    _feed(monitor, rng, 64)
    # observe() crossed the check interval, so the cache is warm
    assert monitor._cached is not None
    assert monitor.drift_flags()["any"] is False


def test_gauges_published_to_registry():
    rng = np.random.default_rng(4)
    registry = MetricsRegistry()
    monitor = FairnessMonitor(
        [2], min_records=20, check_every=10_000, registry=registry
    )
    _feed(monitor, rng, 100)
    monitor.metrics()
    snapshot = registry.snapshot()
    assert snapshot["gauges"]["fairness_window_records"] == 100.0
    assert "fairness_consistency" in snapshot["gauges"]
    assert snapshot["gauges"]["fairness_drift"] == 0.0
    assert any(
        key.startswith("fairness_decision_rate|group=")
        for key in snapshot["gauges"]
    )


def test_reset_baseline():
    rng = np.random.default_rng(5)
    monitor = FairnessMonitor([2], min_records=20, check_every=10_000)
    _feed(monitor, rng, 50)
    assert monitor.metrics()["baseline"] is not None
    monitor.reset_baseline()
    _feed(monitor, rng, 1)
    assert monitor.metrics()["baseline"] is not None  # refreezes on full window
    assert monitor.n_seen == 51


def test_empty_window_metrics():
    """metrics() before any observe() answers instead of crashing."""
    monitor = FairnessMonitor([2])
    metrics = monitor.metrics()
    assert metrics["window_records"] == 0
    assert metrics["consistency"] is None
    assert metrics["baseline"] is None
    assert metrics["decision_rates"] == {}
    assert metrics["drift"] == {
        "consistency_drift": False,
        "rate_drift": False,
        "any": False,
    }
    assert not monitor.drifting()


def test_reset_baseline_mid_stream_clears_drift():
    """Operator acknowledgement: re-freezing on the shifted stream
    clears a raised drift flag (the new baseline *is* the new normal)."""
    rng = np.random.default_rng(6)
    monitor = FairnessMonitor(
        [2], window=200, min_records=50, rate_gap_shift=0.15, check_every=10_000
    )
    _feed(monitor, rng, 200, rate_a=0.5, rate_b=0.5)
    assert not monitor.metrics()["drift"]["any"]  # freezes the baseline
    _feed(monitor, rng, 200, rate_a=0.9, rate_b=0.1)
    assert monitor.metrics()["drift"]["any"]
    monitor.reset_baseline()
    _feed(monitor, rng, 200, rate_a=0.9, rate_b=0.1)
    metrics = monitor.metrics()
    assert metrics["baseline"] is not None
    assert not metrics["drift"]["any"]


def test_drift_warning_fires_once_per_rising_edge(caplog, monkeypatch):
    """The drift warning is edge-triggered: one record when the flag
    rises, silence while it stays up, and re-armed after it clears."""
    import logging

    # configure_logging() (exercised elsewhere in the suite) stops the
    # "repro" logger propagating to root, where caplog listens; force
    # propagation so this test is order-independent.
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    rng = np.random.default_rng(7)
    monitor = FairnessMonitor(
        [2], window=200, min_records=50, rate_gap_shift=0.15, check_every=10_000
    )
    _feed(monitor, rng, 200, rate_a=0.5, rate_b=0.5)
    monitor.metrics()  # freezes the baseline on the stable stream
    with caplog.at_level(logging.WARNING, logger="repro.telemetry.fairness"):
        _feed(monitor, rng, 200, rate_a=0.9, rate_b=0.1)
        monitor.metrics()  # rising edge -> exactly one warning
        monitor.metrics()  # still drifting -> no repeat
        monitor.metrics()
    warnings = [
        r for r in caplog.records if "fairness drift detected" in r.getMessage()
    ]
    assert len(warnings) == 1
    # clearing the flag re-arms the edge
    caplog.clear()
    monitor.reset_baseline()
    with caplog.at_level(logging.WARNING, logger="repro.telemetry.fairness"):
        _feed(monitor, rng, 200, rate_a=0.5, rate_b=0.5)
        monitor.metrics()  # flag drops; baseline refreezes on equal rates
        _feed(monitor, rng, 200, rate_a=0.9, rate_b=0.1)
        monitor.metrics()  # second rising edge -> one more warning
        monitor.metrics()
    warnings = [
        r for r in caplog.records if "fairness drift detected" in r.getMessage()
    ]
    assert len(warnings) == 1


def test_concurrent_observers_keep_rows_aligned_and_check_single_flight(
    monkeypatch,
):
    """Request threads share one monitor: every window entry keeps its
    own features, group and decision, and at most one check (its
    neighbour selection included) runs at a time."""
    import sys
    import threading
    import time

    from repro.telemetry import fairness

    flight = {"now": 0, "peak": 0}
    flight_lock = threading.Lock()
    nearest = fairness.nearest_from_distances

    def slow_nearest(D, k):
        with flight_lock:
            flight["now"] += 1
            flight["peak"] = max(flight["peak"], flight["now"])
        time.sleep(0.05)
        with flight_lock:
            flight["now"] -= 1
        return nearest(D, k)

    monkeypatch.setattr(fairness, "nearest_from_distances", slow_nearest)
    n_threads, batches, batch = 4, 3, 64  # more threads than CI cores
    total = n_threads * batches * batch
    monitor = FairnessMonitor([1], window=total, check_every=batch)
    barrier = threading.Barrier(n_threads)

    def observer(tag):
        barrier.wait()
        for _ in range(batches):
            monitor.observe(
                np.full((batch, 2), float(tag)),
                np.full(batch, tag),
                np.full(batch, tag),
            )

    threads = [
        threading.Thread(target=observer, args=(tag,))
        for tag in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' appends
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    assert flight["peak"] == 1
    assert monitor.n_seen == total
    for row, group, decision in zip(
        monitor._rows, monitor._groups, monitor._decisions
    ):
        assert row[0] == group == decision
    metrics = monitor.metrics()
    assert metrics["records_seen"] == metrics["window_records"] == total


def test_check_due_during_another_waits_for_it_and_runs(monkeypatch):
    """The number of checks follows the record count, not the timing:
    a check that comes due while another runs waits for it and then
    covers the records that check did not see."""
    import threading

    from repro.telemetry import fairness

    started, release = threading.Event(), threading.Event()
    checked = []
    nearest = fairness.nearest_from_distances

    def gated_nearest(D, k):
        checked.append(D.shape[0])
        if len(checked) == 1:
            started.set()
            release.wait(10.0)
        return nearest(D, k)

    monkeypatch.setattr(fairness, "nearest_from_distances", gated_nearest)
    monitor = FairnessMonitor([1], window=1024, check_every=64)

    def batch(tag):
        return np.full((64, 2), float(tag)), np.zeros(64), np.zeros(64)

    first = threading.Thread(target=monitor.observe, args=batch(0))
    first.start()
    assert started.wait(10.0)
    second = threading.Thread(target=monitor.observe, args=batch(1))
    second.start()
    second.join(timeout=0.2)
    assert second.is_alive()  # waiting for the running check
    release.set()
    first.join(timeout=10.0)
    second.join(timeout=10.0)
    assert not first.is_alive() and not second.is_alive()

    assert checked == [64, 128]
    assert monitor.metrics()["records_seen"] == 128
    assert checked == [64, 128]  # metrics() answered from the cache


def _rejects_and_keeps_the_window(bad_batches):
    """Rejected batches leave n_seen and every window slot unchanged:
    on a full (wrapped) window, the next check equals a fresh
    computation on the last `window` good records."""
    from repro.metrics.individual import consistency

    rng = np.random.default_rng(8)
    good = rng.normal(size=(80, 3))
    decisions = (good[:, 0] + rng.normal(size=80) > 0).astype(float)
    monitor = FairnessMonitor([2], window=64, k=3, check_every=10_000)
    monitor.observe(good, np.zeros(80), decisions)
    for X, bad_decisions, match in bad_batches:
        with pytest.raises(ValidationError, match=match):
            monitor.observe(X, np.zeros(len(X)), bad_decisions)
        assert monitor.n_seen == 80
    metrics = monitor.metrics()
    assert metrics["window_records"] == 64
    assert metrics["records_seen"] == 80
    assert metrics["consistency"] == consistency(
        good[-64:, :2], decisions[-64:], k=3
    )
    assert metrics["decision_rates"] == {"0.0": float(decisions[-64:].mean())}


def test_non_finite_rows_are_rejected_and_leave_the_window_unchanged():
    batches = []
    for bad_x, bad_d in ((np.nan, 1.0), (np.inf, 1.0), (0.0, np.nan), (0.0, -np.inf)):
        X = np.ones((5, 3))
        X[2, 1] = bad_x
        decisions = np.ones(5)
        decisions[3] = bad_d
        batches.append((X, decisions, "NaN or infinite"))
    _rejects_and_keeps_the_window(batches)


def test_row_width_change_raises_and_leaves_the_window_unchanged():
    _rejects_and_keeps_the_window([(np.ones((4, 4)), np.ones(4), "features")])


def test_window_above_2048_calls_consistency_and_holds_no_matrix(monkeypatch):
    """Above consistency()'s blocked-search threshold the monitor keeps
    the parent's memory bound: no window x window matrix, one
    consistency() call per check on the window in arrival order."""
    from repro.metrics.individual import consistency
    from repro.telemetry import fairness

    calls = []

    def counting_consistency(X, y, k):
        calls.append(X.shape[0])
        return consistency(X, y, k=k)

    monkeypatch.setattr(fairness, "consistency", counting_consistency)
    rng = np.random.default_rng(10)
    window = 2049
    monitor = FairnessMonitor([2], window=window, k=5, check_every=10_000)
    X = rng.normal(size=(window + 300, 3))
    decisions = (X[:, 0] + 0.5 * rng.normal(size=len(X)) > 0).astype(float)
    groups = rng.integers(0, 2, size=len(X))
    for start in range(0, len(X), 450):  # wraps the ring
        stop = start + 450
        monitor.observe(X[start:stop], groups[start:stop], decisions[start:stop])
    metrics = monitor.metrics()
    assert monitor._dist is None
    assert calls == [window]
    assert metrics["window_records"] == window
    assert metrics["consistency"] == consistency(
        X[-window:, :2], decisions[-window:], k=5
    )


def test_threaded_observers_and_readers_end_on_the_reference_metrics():
    """Stress: observer threads (more than cores) and a /v1/stats-style
    reader share one monitor under a tiny switch interval.  The final
    metrics equal a fresh computation on the final window, so no
    check left the incremental distance matrix stale."""
    import sys
    import threading

    from repro.metrics.individual import consistency

    n_threads, batches, window = 6, 30, 150
    rng = np.random.default_rng(11)
    sizes = rng.integers(1, 40, size=(n_threads, batches))
    total = int(sizes.sum())
    # Column 0 (protected) carries a record id; the table gives every
    # record its own features, group and decision.
    features = rng.normal(size=(total, 3))
    group_of = rng.integers(0, 2, size=total)
    decision_of = (features[:, 0] + rng.normal(size=total) > 0).astype(float)
    monitor = FairnessMonitor(
        [0], window=window, k=4, min_records=20, check_every=23
    )
    barrier = threading.Barrier(n_threads + 1)
    done = threading.Event()
    errors = []
    offsets = np.concatenate(([0], np.cumsum(sizes.ravel())))

    def observer(t):
        try:
            barrier.wait()
            for b in range(batches):
                lo, hi = offsets[t * batches + b], offsets[t * batches + b + 1]
                ids = np.arange(lo, hi)
                X = np.column_stack((ids, features[ids]))
                monitor.observe(X, group_of[ids], decision_of[ids])
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    def reader():
        barrier.wait()
        while not done.is_set():
            monitor.metrics()

    threads = [threading.Thread(target=observer, args=(t,)) for t in range(n_threads)]
    poller = threading.Thread(target=reader)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads + [poller]:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        done.set()
        poller.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads + [poller])
    assert not errors

    assert monitor.n_seen == total
    # Arrival order of the final window, read from the ring.
    order = np.roll(np.arange(window), -(total % window))
    ids = monitor._rows[order, 0].astype(int)
    assert np.unique(ids).size == window
    np.testing.assert_array_equal(monitor._rows[order, 1:], features[ids])
    np.testing.assert_array_equal(monitor._decisions[order], decision_of[ids])
    assert list(monitor._groups[order]) == list(group_of[ids])
    metrics = monitor.metrics()
    assert metrics["records_seen"] == total
    assert metrics["window_records"] == window
    assert metrics["consistency"] == consistency(
        features[ids], decision_of[ids], k=4
    )
    rates = {
        str(g): float(decision_of[ids][group_of[ids] == g].mean())
        for g in (0, 1)
    }
    assert metrics["decision_rates"] == rates
