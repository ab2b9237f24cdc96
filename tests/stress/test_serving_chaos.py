"""Chaos stress tests for the deadline-aware serving resilience layer.

The headline claim of ISSUE 9: under injected worker faults — crashes,
hangs, slow replies, corrupt frames — the serving tier never returns a
wrong or dropped answer.  Every request is either served with a body
bitwise identical to a fault-free run, or (when admission control is
engaged) shed with a well-formed 429/503 carrying a retry hint.  The
suite drives the :class:`~repro.serving.chaos.ChaosPlane` through the
dispatcher directly and over a live HTTP service, including blue/green
reloads fired mid-chaos, and finishes every scenario with a
zero-leaked-shm check.

The sustained high-volume variant rides at the bottom behind the
``nightly`` marker (see ``tests/conftest.py``).
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.serving import (
    ChaosConfig,
    EngineDispatcher,
    HTTPClient,
    InferenceEngine,
    InProcessClient,
    ServiceError,
    fit_serving_pipeline,
    load_artifact,
    save_artifact,
    serve_artifact,
)
from repro.utils.shm import leaked_segments

# The ISSUE 9 acceptance fault mix: p(crash)=0.02, p(hang)=0.01,
# p(slow)=0.05 per request, plus a pinch of frame corruption to cover
# the fourth fault kind.  Hangs are "forever" relative to the deadline;
# only the watchdog kill ends them.
CHAOS = dict(crash=0.02, hang=0.01, slow=0.05, corrupt=0.01,
             slow_ms=10.0, hang_s=60.0)

# max_retries=4 makes the per-request failure probability ~(p_fault)^5
# once retries may return to a healthy re-picked worker — effectively
# zero at suite scale, which is what "zero non-shed errors" needs.
# The breaker threshold sits far above the injected death rate: the
# breaker exists for deterministic crash loops (poisoned artifact,
# broken engine), and a chaos soak would trip a default-tuned one on
# perfectly recoverable random faults.
RESILIENCE = dict(deadline_s=0.4, max_retries=4, breaker_threshold=100)


@pytest.fixture(scope="module")
def artifact_dirs(tiny_compas, tmp_path_factory):
    """Blue and green copies of one artifact: reload keeps answers."""
    artifact = fit_serving_pipeline(
        tiny_compas, n_prototypes=4, max_iter=20, max_pairs=400, random_state=3
    )
    root = tmp_path_factory.mktemp("chaos")
    blue = save_artifact(str(root / "blue"), artifact)
    green = save_artifact(str(root / "green"), artifact)
    return blue, green


@pytest.fixture(scope="module")
def engine(artifact_dirs):
    """The fault-free reference: one in-process engine, no chaos."""
    return InferenceEngine(load_artifact(artifact_dirs[0]))


@pytest.fixture(scope="module")
def batches(tiny_compas):
    rng = np.random.default_rng(17)
    rows = [rng.integers(0, tiny_compas.n_records, size=8) for _ in range(16)]
    return [tiny_compas.X[r].tolist() for r in rows]


class TestHungWorker:
    def test_hang_is_deadline_killed_and_peer_answers(
        self, artifact_dirs, batches, tmp_path
    ):
        """A hung worker is killed at the deadline; a peer answers.

        The one-shot ``hang_once`` token arms a single hang: whichever
        worker draws it sleeps far past the deadline.  The watchdog
        must SIGKILL it, reroute the request to the live peer, and the
        probe must respawn the slot — all invisible to the caller.
        """
        token = tmp_path / "hang-token"
        dispatcher = EngineDispatcher(
            load_artifact(artifact_dirs[0]),
            n_workers=2,
            deadline_s=0.3,
            probe_interval_s=0.02,
            backoff_base_s=0.02,
            chaos=ChaosConfig(hang_once=str(token), hang_s=60.0),
        )
        client = InProcessClient(dispatcher)
        try:
            # Token not yet written: the plane is armed but inert.
            baseline = client.score(batches[0])
            before = dispatcher.stats()["resilience"]["deadline_kills"]

            token.write_text("armed")
            start = time.perf_counter()
            answer = client.score(batches[0])
            elapsed = time.perf_counter() - start

            assert not token.exists()  # exactly one worker claimed it
            assert answer == baseline
            # One deadline burn + the peer's service time, no more.
            assert elapsed < 0.3 * 2 + 1.0
            resilience = dispatcher.stats()["resilience"]
            assert resilience["deadline_kills"] == before + 1
            assert "serving_deadline_kills_total" in dispatcher.metrics_text()

            # The probe respawns the killed slot in the background.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                workers = dispatcher.stats()["workers"]
                if workers["alive"] == 2:
                    break
                time.sleep(0.05)
            assert workers["alive"] == 2
            assert workers["respawns"] >= 1
            assert client.score(batches[0]) == baseline
        finally:
            dispatcher.stop()
        assert leaked_segments() == []


class TestSustainedChaos:
    def _hammer(self, dispatcher, engine, batches, per_thread, threads=4):
        """Concurrent clients; returns (errors, mismatches, served)."""
        errors, mismatches, served = [], [], [0]
        lock = threading.Lock()
        barrier = threading.Barrier(threads)
        client = InProcessClient(dispatcher)

        def client_main(k):
            barrier.wait(timeout=30)
            for i in range(per_thread):
                batch = batches[(k + i) % len(batches)]
                try:
                    got = client.score(batch)
                except ServiceError as exc:
                    with lock:
                        errors.append(exc)
                    continue
                expected = engine.score(batch)
                with lock:
                    served[0] += 1
                    if not np.array_equal(got, expected):
                        mismatches.append((k, i))

        workers = [
            threading.Thread(target=client_main, args=(k,))
            for k in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=120)
        return errors, mismatches, served[0]

    def test_zero_errors_bitwise_answers_and_reloads_mid_chaos(
        self, artifact_dirs, engine, batches
    ):
        """The quick acceptance run: ~120 requests under the fault mix.

        No admission bound is set, so *nothing* may be shed: every
        request must come back bitwise equal to the fault-free engine,
        through crashes, hangs, slow replies, corrupt frames, and two
        blue/green reloads fired mid-traffic.
        """
        blue, green = artifact_dirs
        dispatcher = EngineDispatcher(
            load_artifact(blue),
            n_workers=2,
            probe_interval_s=0.02,
            backoff_base_s=0.02,
            chaos=ChaosConfig(seed=7, **CHAOS),
            **RESILIENCE,
        )
        try:
            reload_errors = []

            def reloader():
                # Two blue/green swaps spread across the run; both
                # artifacts are identical so answers never change.
                for target in (green, blue):
                    time.sleep(0.4)
                    try:
                        answer = dispatcher.reload(target)
                        if answer["status"] != "ok":
                            reload_errors.append(answer)
                    except Exception as exc:  # noqa: BLE001 - recorded
                        reload_errors.append(exc)

            flipper = threading.Thread(target=reloader)
            flipper.start()
            errors, mismatches, served = self._hammer(
                dispatcher, engine, batches, per_thread=30
            )
            flipper.join(timeout=60)

            assert errors == []  # zero non-shed errors
            assert mismatches == []  # bitwise identical to fault-free
            assert served == 4 * 30
            assert reload_errors == []

            # decide bodies match too, modulo each worker's private
            # fairness-drift window.
            groups = (np.asarray(batches[0])[:, -1] > 0.5).astype(float).tolist()
            got = InProcessClient(dispatcher).decide(batches[0], groups)
            expected = json.loads(
                json.dumps(engine.decide(batches[0], groups))
            )
            got.pop("fairness_drift")
            expected.pop("fairness_drift")
            assert got == expected

            # The chaos plane really fired: the fault mix at this
            # volume makes at least one retry overwhelmingly likely.
            resilience = dispatcher.stats()["resilience"]
            assert resilience["retries"] >= 1
        finally:
            dispatcher.stop()
        assert leaked_segments() == []

    def test_shed_requests_are_the_only_failures_and_well_formed(
        self, artifact_dirs, engine, batches
    ):
        """With a tight admission bound, failures are 429/503 + hint."""
        dispatcher = EngineDispatcher(
            load_artifact(artifact_dirs[0]),
            n_workers=2,
            max_inflight=1,
            shed_queue_s=0.01,
            chaos=ChaosConfig(slow=1.0, slow_ms=50.0, seed=3),
            **RESILIENCE,
        )
        try:
            errors, mismatches, served = self._hammer(
                dispatcher, engine, batches, per_thread=6
            )
            assert mismatches == []  # whatever was served is exact
            assert served >= 1
            assert errors  # the bound is far below the offered load
            for exc in errors:
                assert exc.status in (429, 503)
                assert exc.retry_after_s is not None
                assert exc.retry_after_s > 0
            assert dispatcher.stats()["resilience"]["shed"] >= len(errors)
        finally:
            dispatcher.stop()
        assert leaked_segments() == []


class TestHTTPUnderChaos:
    def test_client_retry_budget_rides_through_faults(
        self, artifact_dirs, engine, batches
    ):
        """End to end over sockets: HTTPClient + chaos dispatcher.

        The service sheds nothing (no admission bound), so with the
        dispatcher's own reroute retries underneath, the client's
        budget exists only as a second belt — every call must succeed
        and match the fault-free engine.
        """
        service = serve_artifact(
            artifact_dirs[0],
            port=0,
            workers=2,
            chaos=ChaosConfig(seed=11, **CHAOS),
            **RESILIENCE,
        )
        service.start()
        try:
            host, port = service.address
            client = HTTPClient(host, port, retries=3, backoff_s=0.02)
            health = client.health()
            assert health["status"] in ("ok", "degraded")
            assert "resilience" in health
            for i in range(30):
                batch = batches[i % len(batches)]
                got = client.score(batch)
                expected = json.loads(
                    json.dumps(engine.score(batch).tolist())
                )
                assert got == expected
            stats = client.stats()
            assert stats["resilience"]["deadline_s"] == 0.4
        finally:
            service.stop()
        assert leaked_segments() == []


@pytest.mark.nightly
class TestSustainedChaosNightly(TestSustainedChaos):
    def test_high_volume_chaos_with_reload_storm(
        self, artifact_dirs, engine, batches
    ):
        """600+ requests, doubled fault rates, four mid-run reloads."""
        blue, green = artifact_dirs
        chaos = dict(CHAOS, crash=0.04, hang=0.02, slow=0.10, corrupt=0.02)
        dispatcher = EngineDispatcher(
            load_artifact(blue),
            n_workers=2,
            probe_interval_s=0.02,
            backoff_base_s=0.02,
            chaos=ChaosConfig(seed=23, **chaos),
            **RESILIENCE,
        )
        try:
            stop_flipping = threading.Event()
            reload_errors = []

            def reloader():
                targets = (green, blue, green, blue)
                for target in targets:
                    if stop_flipping.wait(timeout=1.0):
                        return
                    try:
                        answer = dispatcher.reload(target)
                        if answer["status"] != "ok":
                            reload_errors.append(answer)
                    except Exception as exc:  # noqa: BLE001 - recorded
                        reload_errors.append(exc)

            flipper = threading.Thread(target=reloader)
            flipper.start()
            try:
                errors, mismatches, served = self._hammer(
                    dispatcher, engine, batches, per_thread=150
                )
            finally:
                stop_flipping.set()
                flipper.join(timeout=120)

            assert errors == []
            assert mismatches == []
            assert served == 4 * 150
            assert reload_errors == []
            resilience = dispatcher.stats()["resilience"]
            assert resilience["retries"] >= 1
        finally:
            dispatcher.stop()
        assert leaked_segments() == []
