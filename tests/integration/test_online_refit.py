"""Closed-loop online learning over the real HTTP serving tier.

The full drift-response loop, end to end: live traffic through a
``workers=2`` service feeds the controller's sliding window; an
injected covariate shift raises the shift statistic; the controller
warm-refits over the buffered window, writes a versioned artifact, and
drives the blue/green reload — all while clients keep hammering the
service with **zero** failed requests.  The control experiment holds
the distribution steady and must see zero refits and zero reloads
(no flapping).
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.serving import (
    HTTPClient,
    InProcessClient,
    fit_serving_pipeline,
    save_artifact,
    serve_artifact,
)

REFRESH_WINDOW = 64
SHIFT = 25.0


@pytest.fixture(scope="module")
def artifact_dir(tiny_compas, tmp_path_factory):
    artifact = fit_serving_pipeline(
        tiny_compas, n_prototypes=4, max_iter=25, max_pairs=500, random_state=3
    )
    return save_artifact(
        str(tmp_path_factory.mktemp("online") / "compas"), artifact
    )


def _get(host, port, path):
    with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10) as r:
        return json.loads(r.read())


def _serve(artifact_dir):
    return serve_artifact(
        artifact_dir,
        port=0,
        workers=2,
        batch_size=32,
        online_refit=True,
        refresh_window=REFRESH_WINDOW,
        drift_policy="shift",
        refit_cooldown_s=0.5,
    ).start()


def test_shift_triggers_refit_and_zero_downtime_reload(
    tiny_compas, artifact_dir
):
    service = _serve(artifact_dir)
    try:
        host, port = service.address
        checksum0 = _get(host, port, "/v1/health")["artifact_checksum"]
        X, groups = tiny_compas.X, tiny_compas.protected
        errors, responses = [], [0]
        stop = threading.Event()
        shifted = threading.Event()

        def hammer():
            client = HTTPClient(host, port)
            i = 0
            while not stop.is_set():
                lo = (i * 8) % (X.shape[0] - 8)
                rows = X[lo : lo + 8] + (SHIFT if shifted.is_set() else 0.0)
                try:
                    answer = client.decide(
                        rows.tolist(), groups[lo : lo + 8].tolist()
                    )
                    assert len(answer["decisions"]) == 8
                    responses[0] += 1
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(repr(exc))
                    return
                i += 1
                time.sleep(0.005)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            # phase 1: steady traffic fills the window; the baseline
            # calibrates over a few ticks before it freezes
            deadline = time.time() + 30
            while time.time() < deadline:
                status = _get(host, port, "/v1/admin/online")
                if (
                    status["window_rows"] >= REFRESH_WINDOW
                    and not status["calibrating"]
                    and status["baseline_cost"] is not None
                ):
                    break
                time.sleep(0.1)
            assert status["window_rows"] >= REFRESH_WINDOW
            assert status["baseline_cost"] is not None
            assert status["refits"] == 0

            # phase 2: inject covariate shift, wait for the closed loop
            shifted.set()
            deadline = time.time() + 60
            while time.time() < deadline:
                status = _get(host, port, "/v1/admin/online")
                if status["reloads"] >= 1:
                    break
                time.sleep(0.1)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)

        assert not errors, errors  # zero failed requests during the swap
        assert responses[0] > 0
        assert status["refits"] >= 1
        assert status["reloads"] >= 1
        assert status["failures"] == 0
        assert status["last_result"]["status"] == "refitted"
        assert status["last_result"]["reload"] == "ok"

        # the active model changed and serving still answers
        health = _get(host, port, "/v1/health")
        assert health["artifact_checksum"] != checksum0
        assert health["metadata"]["online_version"] >= 1
        after = HTTPClient(host, port).decide(
            (X[:4] + SHIFT).tolist(), groups[:4].tolist()
        )
        assert len(after["decisions"]) == 4

        # consistency recovery: the statistic re-calibrates over the
        # shifted distribution and re-arms near 1.0 instead of
        # re-reporting the handled shift (calibration ticks keep
        # running on the controller thread after traffic stops)
        deadline = time.time() + 15
        while time.time() < deadline:
            status = _get(host, port, "/v1/admin/online")
            if status["shift"] is not None:
                break
            time.sleep(0.1)
        assert status["shift"] == pytest.approx(1.0, abs=0.5)
        assert not status["shift_flagged"]
    finally:
        service.stop()


def test_steady_traffic_never_refits(tiny_compas, artifact_dir):
    """Control experiment: no shift => zero refits, zero reloads."""
    service = _serve(artifact_dir)
    try:
        host, port = service.address
        checksum0 = _get(host, port, "/v1/health")["artifact_checksum"]
        client = HTTPClient(host, port)
        X, groups = tiny_compas.X, tiny_compas.protected
        for i in range(30):
            lo = (i * 8) % (X.shape[0] - 8)
            client.decide(X[lo : lo + 8].tolist(), groups[lo : lo + 8].tolist())
        deadline = time.time() + 10
        status = _get(host, port, "/v1/admin/online")
        while time.time() < deadline and status["window_rows"] < REFRESH_WINDOW:
            status = _get(host, port, "/v1/admin/online")
            time.sleep(0.1)
        time.sleep(1.0)  # several control ticks over the full window
        status = _get(host, port, "/v1/admin/online")
        assert status["refits"] == 0
        assert status["reloads"] == 0
        assert _get(host, port, "/v1/health")["artifact_checksum"] == checksum0
    finally:
        service.stop()


def test_manual_trigger_and_status_endpoint(tiny_compas, artifact_dir):
    service = _serve(artifact_dir)
    try:
        host, port = service.address
        client = HTTPClient(host, port)
        status = _get(host, port, "/v1/admin/online")
        assert status["enabled"] and status["running"]
        assert status["policy"]["policy"] == "shift"

        # nothing buffered yet -> manual refit reports skipped
        answer = client.request("POST", "/v1/admin/online", {})
        assert answer["status"] == "skipped"

        X, groups = tiny_compas.X, tiny_compas.protected
        for i in range(10):
            lo = (i * 8) % (X.shape[0] - 8)
            client.decide(X[lo : lo + 8].tolist(), groups[lo : lo + 8].tolist())
        deadline = time.time() + 10
        while time.time() < deadline:
            if _get(host, port, "/v1/admin/online")["pending_rows"] > 0:
                break
            time.sleep(0.1)
        answer = client.request("POST", "/v1/admin/online", {})
        assert answer["status"] == "refitted"
        assert answer["reload"] == "ok"
        assert _get(host, port, "/v1/admin/online")["refits"] == 1
    finally:
        service.stop()


def test_online_disabled_surfaces_clearly(artifact_dir):
    service = serve_artifact(artifact_dir, port=0, workers=2).start()
    try:
        host, port = service.address
        assert _get(host, port, "/v1/admin/online") == {"enabled": False}
        client = HTTPClient(host, port)
        with pytest.raises(Exception, match="online refit is not enabled"):
            client.request("POST", "/v1/admin/online", {})
    finally:
        service.stop()


def test_in_process_requests_reach_the_window(tiny_compas, artifact_dir):
    """The in-process client feeds the controller's tap, as HTTP does."""
    service = _serve(artifact_dir)
    try:
        client = InProcessClient(service.engine)
        X, groups = tiny_compas.X, tiny_compas.protected
        for lo in range(0, 32, 8):
            client.decide(X[lo : lo + 8].tolist(), groups[lo : lo + 8].tolist())
        deadline = time.time() + 10
        status = client.request("GET", "/v1/admin/online")
        while time.time() < deadline and status["window_rows"] < 32:
            time.sleep(0.05)
            status = client.request("GET", "/v1/admin/online")
        assert status["window_rows"] == 32
    finally:
        service.stop()
