"""Streaming-drift soak: the online refit loop under chaos faults.

The drift-response controller's chaos-safety claim: worker faults
injected while the loop is refitting and hot-swapping must never
degrade the serving path (shed/unavailable replies excepted) and must
never wedge the controller — failed refits/reloads are counted and
retried on later ticks.  The sustained variant rides behind the
``nightly`` marker like the other soaks (HYPOTHESIS_PROFILE=nightly).
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.serving import (
    ChaosConfig,
    HTTPClient,
    ServiceError,
    fit_serving_pipeline,
    save_artifact,
    serve_artifact,
)
from repro.utils.shm import leaked_segments

REFRESH_WINDOW = 64
SHIFT = 25.0
# Recoverable fault storm, same shape as the ISSUE 9 acceptance mix.
CHAOS = dict(crash=0.02, slow=0.05, corrupt=0.01, slow_ms=5.0)


@pytest.fixture(scope="module")
def artifact_dir(tiny_compas, tmp_path_factory):
    artifact = fit_serving_pipeline(
        tiny_compas, n_prototypes=4, max_iter=20, max_pairs=400, random_state=3
    )
    return save_artifact(
        str(tmp_path_factory.mktemp("online-soak") / "compas"), artifact
    )


def _get(host, port, path):
    with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10) as r:
        return json.loads(r.read())


@pytest.mark.nightly
class TestOnlineSoak:
    def test_streaming_drift_soak_under_chaos(self, tiny_compas, artifact_dir):
        service = serve_artifact(
            artifact_dir,
            port=0,
            workers=2,
            batch_size=32,
            max_retries=4,
            breaker_threshold=100,
            chaos=ChaosConfig(seed=29, **CHAOS),
            online_refit=True,
            refresh_window=REFRESH_WINDOW,
            drift_policy="either",
            refit_cooldown_s=1.0,
        ).start()
        try:
            host, port = service.address
            X, groups = tiny_compas.X, tiny_compas.protected
            hard_errors, served, shed = [], [0], [0]
            stop = threading.Event()
            phase_shift = [0.0]

            def hammer(thread_id):
                client = HTTPClient(host, port)
                i = thread_id
                while not stop.is_set():
                    lo = (i * 8) % (X.shape[0] - 8)
                    rows = X[lo : lo + 8] + phase_shift[0]
                    try:
                        answer = client.decide(
                            rows.tolist(), groups[lo : lo + 8].tolist()
                        )
                        assert len(answer["decisions"]) == 8
                        served[0] += 1
                    except ServiceError:
                        shed[0] += 1  # well-formed 429/503 under faults
                    except Exception as exc:  # pragma: no cover
                        hard_errors.append(repr(exc))
                        return
                    i += 1
                    time.sleep(0.002)

            threads = [
                threading.Thread(target=hammer, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            try:
                # several drift/recover cycles under continuous chaos
                for cycle in range(3):
                    phase_shift[0] = 0.0
                    time.sleep(2.0)
                    phase_shift[0] = SHIFT * (cycle + 1)
                    deadline = time.time() + 30
                    while time.time() < deadline:
                        status = _get(host, port, "/v1/admin/online")
                        if status["reloads"] >= cycle + 1:
                            break
                        time.sleep(0.2)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)

            status = _get(host, port, "/v1/admin/online")
            assert not hard_errors, hard_errors[:5]
            assert served[0] > 100
            assert status["refits"] >= 2
            assert status["reloads"] >= 2
            # the loop survived every injected fault: still running,
            # and any failed attempt was counted rather than fatal
            assert status["running"]
            health = _get(host, port, "/v1/health")
            assert health["status"] in ("ok", "degraded")
        finally:
            service.stop()
        assert leaked_segments() == []
