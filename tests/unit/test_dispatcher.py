"""Unit tests for the multi-process serving dispatcher.

The dispatcher must be *transparent*: N forked engine workers answer
bitwise-identically to one in-process engine, survive worker crashes,
swap models blue/green without dropping capacity or leaking file
descriptors, and ship per-worker telemetry back into one mergeable
registry — all without creating shared-memory segments.  Requests go
through :class:`InProcessClient`, the service's own request path.
"""

import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ReproError, ValidationError
from repro.serving import dispatcher as dispatcher_module
from repro.serving import (
    ArtifactError,
    ChaosConfig,
    EngineDispatcher,
    InferenceEngine,
    InProcessClient,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    fit_serving_pipeline,
    load_artifact,
    save_artifact,
)
from repro.utils.shm import leaked_segments


@pytest.fixture(scope="module")
def artifact_dir(tiny_compas, tmp_path_factory):
    artifact = fit_serving_pipeline(
        tiny_compas, n_prototypes=4, max_iter=25, max_pairs=500, random_state=3
    )
    return save_artifact(
        str(tmp_path_factory.mktemp("dispatch") / "compas"), artifact
    )


@pytest.fixture(scope="module")
def other_artifact_dir(tiny_compas, tmp_path_factory):
    other = fit_serving_pipeline(
        tiny_compas, n_prototypes=3, max_iter=20, max_pairs=400,
        random_state=11,
    )
    return save_artifact(
        str(tmp_path_factory.mktemp("dispatch") / "other"), other
    )


@pytest.fixture(scope="module")
def engine(artifact_dir):
    return InferenceEngine(load_artifact(artifact_dir))


@pytest.fixture(scope="module")
def dispatcher(artifact_dir):
    with EngineDispatcher(load_artifact(artifact_dir), n_workers=2) as running:
        yield running


@pytest.fixture(scope="module")
def client(dispatcher):
    return InProcessClient(dispatcher)


@pytest.fixture(scope="module")
def records(tiny_compas):
    return tiny_compas.X[:12].tolist()


@pytest.fixture(scope="module")
def groups(tiny_compas):
    return tiny_compas.protected[:12].tolist()


class TestParity:
    def test_transform_bitwise(self, client, engine, records):
        assert np.array_equal(
            client.transform(records), engine.transform(records)
        )

    def test_score_bitwise(self, client, engine, records):
        assert np.array_equal(client.score(records), engine.score(records))

    def test_rank_matches_json_roundtrip(self, client, engine, records):
        expected = json.loads(json.dumps(engine.rank(records, top_k=5)))
        assert client.rank(records, top_k=5) == expected

    def test_decide_matches_modulo_drift_window(
        self, client, engine, records, groups
    ):
        # fairness_drift reflects each worker's private sliding window,
        # which legitimately depends on which worker served what.
        got = client.decide(records, groups)
        expected = json.loads(json.dumps(engine.decide(records, groups)))
        got.pop("fairness_drift")
        expected.pop("fairness_drift")
        assert got == expected

    def test_answer_does_not_depend_on_earlier_traffic(
        self, census_serving_artifact, tiny_census, tmp_path, answers_with_history
    ):
        # Each worker's answer to a 16-record request must not depend on
        # which of its records that worker served before.
        path = save_artifact(str(tmp_path / "census"), census_serving_artifact)
        with EngineDispatcher(load_artifact(path), n_workers=2) as fresh:
            with EngineDispatcher(load_artifact(path), n_workers=2) as warmed:
                first, after = answers_with_history(
                    InProcessClient(fresh),
                    InProcessClient(warmed),
                    tiny_census.X[:16],
                    tiny_census.protected[:16].tolist(),
                )
        for got, expected in zip(after, first):
            np.testing.assert_array_equal(got, expected)

    def test_in_process_client_works_against_dispatcher(
        self, dispatcher, engine, records
    ):
        client = InProcessClient(dispatcher)
        assert client.score(records) == json.loads(
            json.dumps(engine.score(records).tolist())
        )


class TestErrors:
    def test_bad_width_maps_to_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.score([[1.0, 2.0]])
        assert excinfo.value.status == 400

    def test_n_workers_must_be_positive(self, artifact_dir):
        with pytest.raises(ValidationError):
            EngineDispatcher(load_artifact(artifact_dir), n_workers=0)

    def test_stopped_dispatcher_refuses(self, artifact_dir, records):
        dispatcher = EngineDispatcher(load_artifact(artifact_dir), n_workers=1)
        dispatcher.stop()
        dispatcher.stop()  # idempotent
        with pytest.raises(ServiceUnavailableError):
            InProcessClient(dispatcher).score(records)


class TestTelemetry:
    def test_metrics_carry_worker_labels(self, dispatcher, client, records):
        client.score(records)
        text = dispatcher.metrics_text()
        assert 'serving_requests_total{worker="' in text
        assert "serving_dispatch_seconds" in text

    def test_stats_reduce_across_workers(self, dispatcher, client, records):
        for _ in range(4):
            client.score(records)
        stats = dispatcher.stats()
        assert stats["requests"] == sum(
            stats["workers"]["requests"].values()
        )
        assert stats["records"] >= stats["requests"] * len(records)
        assert stats["workers"]["n"] == 2
        assert stats["workers"]["alive"] == 2
        assert "score" in stats["endpoints"]

    def test_one_read_pulls_counts_from_every_worker(self, artifact_dir, records):
        # Replies carry no telemetry: the read itself pings each worker.
        dispatcher = EngineDispatcher(load_artifact(artifact_dir), n_workers=2)
        try:
            for _ in range(6):
                InProcessClient(dispatcher).score(records)
            stats = dispatcher.stats()
            assert stats["requests"] == 6
            assert stats["records"] == 6 * len(records)
            text = dispatcher.metrics_text()
            for index in range(2):
                assert f'serving_requests_total{{worker="{index}"}}' in text
        finally:
            dispatcher.stop()

    def test_read_skips_a_worker_stuck_mid_request(
        self, artifact_dir, records, tmp_path
    ):
        token = tmp_path / "hang-token"
        dispatcher = EngineDispatcher(
            load_artifact(artifact_dir),
            n_workers=2,
            chaos=ChaosConfig(hang_once=str(token), hang_s=1.5),
        )
        client = InProcessClient(dispatcher)
        try:
            client.score(records)
            token.write_text("armed")
            stuck = threading.Thread(target=client.score, args=(records,))
            stuck.start()
            deadline = time.monotonic() + 10.0
            while token.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            assert not token.exists()  # a worker is now hung mid-request
            start = time.perf_counter()
            text = dispatcher.metrics_text()
            elapsed = time.perf_counter() - start
            # deadline_s=None: only the pull bound keeps the read from
            # waiting out the hang.
            assert elapsed < dispatcher_module._PULL_WAIT_S + 0.5
            assert stuck.is_alive()
            assert "serving_requests_total" in text
            stuck.join(timeout=10.0)
            assert not stuck.is_alive()
            # The skipped worker's delta comes in with the next read.
            assert dispatcher.stats()["requests"] == 2
        finally:
            dispatcher.stop()

    def test_health_surface(self, dispatcher, artifact_dir):
        # The surface dispatch() reads for /v1/health.
        assert dispatcher.artifact.checksum
        assert dispatcher.uptime_s >= 0.0
        assert dispatcher.endpoints() == ["transform", "score", "rank", "decide"]
        assert dispatcher.n_workers == 2


class TestCrashRecovery:
    def test_killed_worker_is_respawned_and_requests_survive(
        self, artifact_dir, records
    ):
        dispatcher = EngineDispatcher(load_artifact(artifact_dir), n_workers=2)
        client = InProcessClient(dispatcher)
        try:
            baseline = client.score(records)
            victim = dispatcher._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            # Requests survive throughout: the first to hit the dead
            # slot is rerouted to the live peer, never failed.
            for _ in range(6):
                assert client.score(records) == baseline
            # The probe respawns the slot in the background (backoff +
            # ping verification), so rotation recovers shortly after.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = dispatcher.stats()["workers"]
                if stats["alive"] == 2:
                    break
                time.sleep(0.05)
            assert stats["respawns"] >= 1
            assert stats["alive"] == 2
            assert client.score(records) == baseline
        finally:
            dispatcher.stop()


class TestAdmission:
    def test_overload_is_shed_with_429_and_retry_hint(
        self, artifact_dir, records
    ):
        # One worker that answers slowly (chaos slow fault on every
        # request), one admission slot, a 20 ms queue budget: of three
        # simultaneous calls one is served and the others are shed.
        dispatcher = EngineDispatcher(
            load_artifact(artifact_dir),
            n_workers=1,
            max_inflight=1,
            shed_queue_s=0.02,
            chaos=ChaosConfig(slow=1.0, slow_ms=400.0, seed=5),
        )
        client = InProcessClient(dispatcher)
        try:
            outcomes = []
            barrier = threading.Barrier(3)

            def call():
                barrier.wait()
                try:
                    client.score(records)
                    outcomes.append(("ok", None))
                except ServiceError as exc:
                    outcomes.append((exc.status, exc))

            threads = [threading.Thread(target=call) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            statuses = [status for status, _ in outcomes]
            assert statuses.count("ok") >= 1
            assert statuses.count(429) >= 1
            shed_exc = next(exc for status, exc in outcomes if status == 429)
            assert isinstance(shed_exc, ServiceOverloadedError)
            # The admission gate's own hint, not the reply's default.
            assert shed_exc.retry_after_s == dispatcher._shed_retry_after() > 0
            assert dispatcher.stats()["resilience"]["shed"] >= 1
        finally:
            dispatcher.stop()

    def test_unbounded_by_default(self, dispatcher):
        assert dispatcher.max_inflight is None
        assert dispatcher.stats()["resilience"]["inflight"] == 0


class TestBreaker:
    def test_crash_loop_evicts_then_probe_readmits(
        self, artifact_dir, records
    ):
        dispatcher = EngineDispatcher(
            load_artifact(artifact_dir),
            n_workers=1,
            max_retries=1,
            breaker_threshold=1,
            evict_probation_s=30.0,  # held open until the test heals it
            backoff_base_s=0.02,
            probe_interval_s=0.02,
            chaos=ChaosConfig(crash=1.0, seed=2),
        )
        client = InProcessClient(dispatcher)
        try:
            # Every attempt crashes its worker; with the only slot dead
            # the request surfaces a definitive 503.
            with pytest.raises(ServiceUnavailableError) as excinfo:
                client.score(records)
            assert excinfo.value.status == 503
            assert dispatcher.stats()["resilience"]["evictions"] >= 1
            assert dispatcher.health()["status"] == "unavailable"
            assert dispatcher.health()["workers_evicted"] == [0]
            # Breaker open: refusals are fast (no deadline burn) and
            # carry a retry hint.
            t0 = time.perf_counter()
            with pytest.raises(ServiceUnavailableError) as refused:
                client.score(records)
            assert time.perf_counter() - t0 < 1.0
            assert refused.value.status == 503
            # The probation's revival estimate, not the reply's 1 s
            # default.
            assert refused.value.retry_after_s > 1.0
            # Heal the fault and let probation expire: the probe
            # respawns, ping-verifies, and re-admits the slot.
            dispatcher._chaos = None
            for worker in dispatcher._workers:
                worker.not_before = 0.0
            deadline = time.monotonic() + 15.0
            answer = None
            while time.monotonic() < deadline:
                try:
                    answer = client.score(records)
                    break
                except ServiceError:
                    time.sleep(0.05)
            assert answer is not None
            assert dispatcher.health()["status"] == "ok"
            resilience = dispatcher.stats()["resilience"]
            assert resilience["readmissions"] >= 1
            assert resilience["evicted"] == []
        finally:
            dispatcher.stop()


class TestReload:
    def test_reload_same_artifact_changes_nothing(
        self, dispatcher, client, engine, artifact_dir, records
    ):
        before = client.score(records)
        answer = dispatcher.reload(artifact_dir)
        assert answer["status"] == "ok"
        assert answer["checksum"] == engine.artifact.checksum
        assert answer["previous_checksum"] == engine.artifact.checksum
        assert answer["workers"] == 2
        assert client.score(records) == before

    def test_reload_new_artifact_swaps_checksum_and_answers(
        self, artifact_dir, other_artifact_dir, records
    ):
        other = load_artifact(other_artifact_dir)
        dispatcher = EngineDispatcher(load_artifact(artifact_dir), n_workers=2)
        client = InProcessClient(dispatcher)
        try:
            old = client.score(records)
            answer = dispatcher.reload(other_artifact_dir)
            assert answer["checksum"] == other.checksum
            assert dispatcher.artifact.checksum == other.checksum
            fresh = InferenceEngine(other)
            assert np.array_equal(client.score(records), fresh.score(records))
            assert client.score(records) != old
            # ...and back onto the first artifact.
            assert dispatcher.reload(artifact_dir)["checksum"] != other.checksum
            assert client.score(records) == old
        finally:
            dispatcher.stop()

    def test_reload_missing_artifact_fails_and_keeps_serving(
        self, dispatcher, client, records, tmp_path
    ):
        before = client.score(records)
        with pytest.raises(ArtifactError):
            dispatcher.reload(str(tmp_path / "nope"))
        with pytest.raises(ValidationError):
            dispatcher.reload("")
        assert client.score(records) == before


def _fd_count(pid: int) -> int:
    return len(os.listdir(f"/proc/{pid}/fd"))


class TestReloadChurn:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/<pid>/fd"
    )
    def test_reloads_keep_worker_fd_counts_flat(
        self, artifact_dir, other_artifact_dir, records
    ):
        # A worker that kept each reloaded artifact's resources open
        # would run into the fd limit after enough reloads.
        with EngineDispatcher(load_artifact(artifact_dir), n_workers=2) as tier:
            client = InProcessClient(tier)
            client.score(records)
            pids = [worker.process.pid for worker in tier._workers]
            start = [_fd_count(pid) for pid in pids]
            for i in range(40):
                path = other_artifact_dir if i % 2 == 0 else artifact_dir
                assert tier.reload(path)["workers"] == 2
                client.score(records)
            assert [worker.process.pid for worker in tier._workers] == pids
            grown = [_fd_count(pid) - n for pid, n in zip(pids, start)]
        assert max(grown) <= 2, grown


class TestRequestHeight:
    @staticmethod
    def _answers_by_height(tier, X, n=16):
        """The first ``n`` records' (transform, score) at heights 1, n, len(X)."""
        client = InProcessClient(tier)

        def ask(rows):
            rows = rows.tolist()
            return np.asarray(client.transform(rows)), np.asarray(client.score(rows))

        alone = [ask(X[i : i + 1]) for i in range(n)]
        return {
            1: tuple(np.concatenate(parts) for parts in zip(*alone)),
            n: ask(X[:n]),
            len(X): tuple(answer[:n] for answer in ask(X)),
        }

    def test_served_bits_do_not_depend_on_request_height(
        self, census_serving_artifact, tiny_census, tmp_path
    ):
        # K = 10, N = 101: the served shape, where a BLAS product would
        # give a record other bits alone than inside a larger request.
        path = save_artifact(str(tmp_path / "census"), census_serving_artifact)
        X = np.concatenate([tiny_census.X, tiny_census.X[:56]])
        assert X.shape == (256, 101)
        expected = self._answers_by_height(InferenceEngine(load_artifact(path)), X)
        runs = [expected]
        with EngineDispatcher(load_artifact(path), n_workers=2) as tier:
            runs.append(self._answers_by_height(tier, X))
            tier.reload(path)
            runs.append(self._answers_by_height(tier, X))
        reference = expected[1]
        for run in runs:
            assert sorted(run) == [1, 16, 256]
            for transformed, scores in run.values():
                np.testing.assert_array_equal(transformed, reference[0])
                np.testing.assert_array_equal(scores, reference[1])


class TestCleanup:
    def test_stop_releases_all_segments(self, artifact_dir, records):
        before = set(leaked_segments())
        dispatcher = EngineDispatcher(load_artifact(artifact_dir), n_workers=2)
        InProcessClient(dispatcher).score(records)
        dispatcher.stop()
        assert set(leaked_segments()) <= before

    def test_serving_and_reloading_create_no_segments(
        self, artifact_dir, other_artifact_dir, records
    ):
        before = set(leaked_segments())
        with EngineDispatcher(load_artifact(artifact_dir), n_workers=2) as tier:
            client = InProcessClient(tier)
            client.score(records)
            assert set(leaked_segments()) <= before
            tier.reload(other_artifact_dir)
            client.score(records)
            assert set(leaked_segments()) <= before
