"""Tests for repro.serving.engine (batching, the four verbs)."""

import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.serving.client import InProcessClient
from repro.serving.engine import InferenceEngine, MicroBatcher
from repro.serving.fit import fit_serving_pipeline


@pytest.fixture(scope="module")
def artifact(tiny_compas):
    return fit_serving_pipeline(
        tiny_compas, n_prototypes=4, max_iter=25, max_pairs=500, random_state=3
    )


@pytest.fixture
def engine(artifact):
    return InferenceEngine(artifact, batch_size=16)


class TestMicroBatcher:
    def test_single_caller_passthrough(self):
        calls = []

        def fn(X):
            calls.append(X.shape[0])
            return X * 2.0

        batcher = MicroBatcher(fn)
        out = batcher.submit(np.ones((3, 2)))
        assert np.array_equal(out, 2.0 * np.ones((3, 2)))
        assert calls == [3]

    def test_concurrent_callers_coalesce(self):
        shapes = []
        leader_entered = threading.Event()
        release = threading.Event()

        def fn(X):
            # The first model pass blocks until the test says go, so the
            # four followers pile up behind the in-flight leader.
            if not shapes:
                leader_entered.set()
                assert release.wait(timeout=5.0)
            shapes.append(X.shape[0])
            return X + 1.0

        batcher = MicroBatcher(fn)
        results = {}

        def worker(i):
            results[i] = batcher.submit(np.full((2, 2), float(i)))

        leader = threading.Thread(target=worker, args=(0,))
        leader.start()
        assert leader_entered.wait(timeout=5.0)
        followers = [threading.Thread(target=worker, args=(i,)) for i in range(1, 5)]
        for t in followers:
            t.start()
        while len(batcher._queue) < 4:  # all followers queued behind the leader
            time.sleep(0.001)
        release.set()
        for t in [leader] + followers:
            t.join(timeout=5.0)
        for i in range(5):
            assert np.array_equal(results[i], np.full((2, 2), float(i) + 1.0))
        # one pass for the leader's rows, then the leader hands off and
        # a promoted follower runs one coalesced pass for the rest
        assert shapes == [2, 8]
        assert batcher.n_flushes == 2
        assert batcher.n_coalesced == 3
        # leadership token was released: the batcher is reusable
        assert np.array_equal(
            batcher.submit(np.zeros((1, 2))), np.ones((1, 2))
        )

    def test_sustained_concurrent_stream_terminates(self):
        # Regression: the leader must hand off once its own rows are
        # answered instead of draining later arrivals forever.
        batcher = MicroBatcher(lambda X: X * 2.0)
        mismatches = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(50):
                rows = rng.normal(size=(int(rng.integers(1, 4)), 3))
                out = batcher.submit(rows)
                if not np.array_equal(out, rows * 2.0):
                    mismatches.append(seed)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert not mismatches
        assert batcher._flushing is False

    def test_error_propagates_to_callers(self):
        def fn(X):
            raise ValueError("boom")

        batcher = MicroBatcher(fn)
        with pytest.raises(ValueError, match="boom"):
            batcher.submit(np.ones((1, 1)))
        # the batcher stays usable for the next request
        batcher._fn = lambda X: X
        assert batcher.submit(np.ones((1, 1))).shape == (1, 1)


class TestEngineVerbs:
    def test_transform_matches_offline_pipeline(self, engine, artifact, tiny_compas):
        X = tiny_compas.X[:12]
        expected = artifact.model.transform(artifact.scaler.transform(X))
        assert np.array_equal(engine.transform(X.tolist()), expected)

    def test_score_matches_scorer(self, engine, artifact, tiny_compas):
        X = tiny_compas.X[:12]
        Z = artifact.model.transform(artifact.scaler.transform(X))
        expected = artifact.scorer.predict_proba(Z)
        assert np.allclose(engine.score(X), expected, rtol=0, atol=1e-12)

    def test_rank_orders_by_score(self, engine, tiny_compas):
        X = tiny_compas.X[:10]
        result = engine.rank(X, groups=tiny_compas.protected[:10].tolist())
        scores = np.asarray(result["scores"])
        order = result["order"]
        assert len(order) == 10
        assert np.array_equal(
            np.sort(scores)[::-1], scores[np.asarray(order)]
        )
        assert 0.0 <= result["protected_share"] <= 1.0

    def test_rank_top_k_prefix(self, engine, tiny_compas):
        X = tiny_compas.X[:10]
        full = engine.rank(X)
        top3 = engine.rank(X, top_k=3)
        assert top3["order"] == full["order"][:3]
        assert top3["top_k"] == 3

    def test_decide_respects_group_thresholds(self, engine, artifact, tiny_compas):
        X = tiny_compas.X[:20]
        groups = tiny_compas.protected[:20]
        result = engine.decide(X, groups.tolist())
        scores = np.asarray(result["scores"])
        decisions = np.asarray(result["decisions"])
        for g in (0.0, 1.0):
            threshold = artifact.thresholds.thresholds_[g]
            mask = groups == g
            assert np.array_equal(
                decisions[mask], (scores[mask] > threshold).astype(float)
            )

    def test_single_record_request(self, engine, tiny_compas):
        scores = engine.score(tiny_compas.X[0].tolist())
        assert scores.shape == (1,)

    def test_evaluate_ranking_reuses_batch_engine(self, engine, tiny_compas):
        X = tiny_compas.X[:15]
        evaluation = engine.evaluate_ranking(
            X, tiny_compas.y[:15], tiny_compas.protected[:15], k=5
        )
        assert 0.0 <= evaluation.map_score <= 1.0
        assert -1.0 <= evaluation.kendall <= 1.0

    def test_verbs_unavailable_without_components(self, artifact):
        bare = InferenceEngine(
            type(artifact)(
                model=artifact.model,
                protected_indices=artifact.protected_indices,
                scaler=artifact.scaler,
            )
        )
        assert bare.endpoints() == ["transform"]
        with pytest.raises(ValidationError, match="no scorer"):
            bare.score([[0.0] * artifact.n_features])
        # decide() names the missing thresholds first, then the missing
        # scorer, both before the records are looked at.
        with pytest.raises(ValidationError, match="no decision thresholds"):
            bare.decide([[0.0, 1.0]], [0])
        no_scorer = InferenceEngine(
            type(artifact)(
                model=artifact.model,
                protected_indices=artifact.protected_indices,
                scaler=artifact.scaler,
                thresholds=artifact.thresholds,
            )
        )
        with pytest.raises(ValidationError, match="no scorer"):
            no_scorer.decide([[0.0, 1.0]], [0])

    def test_decide_encodes_once_and_feeds_that_x_to_the_monitor(
        self, artifact, tiny_compas, monkeypatch
    ):
        engine = InferenceEngine(artifact)
        X = tiny_compas.X[:20]
        groups = tiny_compas.protected[:20]
        scores = engine.score(X)
        decisions = artifact.thresholds.predict(scores, groups)
        encode, calls = engine._encode, []

        def counting_encode(records):
            calls.append(len(records))
            return encode(records)

        monkeypatch.setattr(engine, "_encode", counting_encode)
        result = engine.decide(X.tolist(), groups.tolist())
        assert calls == [20]
        assert result["scores"] == scores.tolist()
        assert result["decisions"] == decisions.tolist()
        np.testing.assert_array_equal(engine.monitor._rows[:20], X)
        np.testing.assert_array_equal(engine.monitor._decisions[:20], decisions)

    def test_feature_width_checked(self, engine):
        with pytest.raises(ValidationError, match="features"):
            engine.transform([[1.0, 2.0]])

    def test_non_finite_rejected(self, engine, artifact):
        bad = [[float("nan")] * artifact.n_features]
        with pytest.raises(ValidationError, match="NaN"):
            engine.transform(bad)


class TestEngineCache:
    """The engine keeps no per-record state between requests."""

    def test_answer_does_not_depend_on_earlier_traffic(
        self, census_serving_artifact, tiny_census, answers_with_history
    ):
        # At this shape a record gets other bits alone than inside the
        # 16-record request, so reusing a row an earlier request
        # computed would change the answer.
        fresh, after = answers_with_history(
            InProcessClient(InferenceEngine(census_serving_artifact)),
            InProcessClient(InferenceEngine(census_serving_artifact)),
            tiny_census.X[:16],
            tiny_census.protected[:16].tolist(),
        )
        for got, expected in zip(after, fresh):
            np.testing.assert_array_equal(got, expected)

    def test_fresh_records_leave_no_state_behind(self, census_serving_artifact):
        engine = InferenceEngine(census_serving_artifact)
        rng = np.random.default_rng(0)
        requests = rng.normal(size=(305, 16, census_serving_artifact.n_features))
        for X in requests[300:]:  # warm-up
            engine.score(X)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for X in requests[:300]:
                engine.score(X)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert abs(retained) < 0.5 * 2**20

    def test_chunking_equals_unchunked(self, artifact, tiny_compas):
        small = InferenceEngine(artifact, batch_size=3)
        big = InferenceEngine(artifact, batch_size=10_000)
        X = tiny_compas.X[:25]
        assert np.array_equal(small.transform(X), big.transform(X))

    def test_stats_counts_requests_and_records(self, engine, tiny_compas):
        engine.transform(tiny_compas.X[:5])
        engine.score(tiny_compas.X[:3])
        stats = engine.stats()
        assert stats["requests"] == 2
        assert stats["records"] == 8
