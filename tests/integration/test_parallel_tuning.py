"""Integration tests for process-parallel and halving tuning.

The hard guarantees of ISSUE 4, on real model fits:

* **n_jobs parity** — for a fixed seed, serial and parallel execution
  produce bitwise-identical fitted parameters and the same selected
  candidate, at every layer (``IFair.fit``, ``GridSearch``,
  ``run_classification``);
* **shared-memory hygiene** — no ``/dev/shm`` segment survives a fit,
  including when a candidate build raises;
* **halving agreement** — on the seeded test configuration the
  halving strategy selects the same candidate as exhaustive search
  under all three tuning criteria.
"""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.executor import TaskError, get_shared
from repro.core.model import IFair
from repro.core.tuning import GridSearch, HalvingConfig, TuningCriterion
from repro.learners.linear import RidgeRegression
from repro.learners.logistic import LogisticRegression
from repro.metrics.classification import roc_auc
from repro.metrics.individual import consistency
from repro.pipeline.classification import run_classification
from repro.pipeline.config import ExperimentConfig
from repro.utils import blas
from repro.utils.shm import leaked_segments


def _ifair_build(spec, params):
    shared = get_shared()
    return IFair(init="protected_zero", random_state=spec["seed"], **params).fit(
        shared["X"][shared["train"]], spec["protected"]
    )


def _ifair_evaluate(spec, model):
    shared = get_shared()
    X, y = shared["X"], shared["y"]
    train, val = shared["train"], shared["val"]
    clf = LogisticRegression(l2=1.0).fit(model.transform(X[train]), y[train])
    proba = clf.predict_proba(model.transform(X[val]))
    pred = (proba >= 0.5).astype(np.float64)
    auc = float(roc_auc(y[val], proba))
    ynn = float(consistency(X[val][:, spec["nonprotected"]], pred, k=5))
    return auc, ynn


def _ridge_build(spec, params):
    """IFair on a few rows, then a ridge regressor on its output."""
    shared = get_shared()
    X, y, reg = shared["X"], shared["y"], shared["reg"]
    model = _ifair_build(spec, params)
    ridge = RidgeRegression(l2=1.0).fit(model.transform(X[reg]), y[reg])
    return SimpleNamespace(model=model, ridge=ridge, theta_=model.theta_)


def _ridge_evaluate(spec, candidate):
    shared = get_shared()
    X, y, val = shared["X"], shared["y"], shared["val"]
    pred = candidate.ridge.predict(candidate.model.transform(X[val]))
    mse = float(np.mean((pred - y[val]) ** 2))
    return -mse, float(consistency(X[val][:, spec["nonprotected"]], pred, k=5))


def _ridge_coef(candidate):
    return {"coef": candidate.ridge.coef_.tolist()}


def _raising_build(spec, params):
    raise RuntimeError("candidate build exploded")


@pytest.fixture(scope="module")
def tuning_problem(request):
    rng = np.random.default_rng(11)
    m, n = 120, 8
    X = rng.normal(size=(m, n))
    X[:, n - 1] = (rng.random(m) > 0.5).astype(float)
    y = ((X[:, 0] + 0.5 * X[:, 1] + 0.2 * rng.normal(size=m)) > 0).astype(
        np.float64
    )
    idx = np.arange(m)
    spec = {
        "seed": 11,
        "protected": [n - 1],
        "nonprotected": list(range(n - 1)),
    }
    shared = {"X": X, "y": y, "train": idx[: m // 2], "val": idx[m // 2 :]}
    grid = [
        {
            "lambda_util": lam,
            "mu_fair": mu,
            "n_prototypes": 4,
            "n_restarts": 2,
            "max_iter": 24,
            "max_pairs": 400,
        }
        for lam in (0.01, 1.0, 100.0)
        for mu in (0.01, 1.0, 100.0)
    ]
    return spec, shared, grid


def _search(tuning_problem, **kwargs):
    spec, shared, grid = tuning_problem
    return GridSearch(
        partial(_ifair_build, spec),
        partial(_ifair_evaluate, spec),
        grid,
        shared=shared,
        keep_artifacts=False,
        **kwargs,
    ).run()


class TestNJobsParity:
    """Serial vs parallel must agree bitwise — the ISSUE-4 hard gate."""

    def test_grid_search_results_bitwise_identical(self, tuning_problem):
        serial = _search(tuning_problem)
        parallel = _search(tuning_problem, n_jobs=2)
        for a, b in zip(serial.candidates, parallel.candidates):
            assert a.order == b.order
            assert a.utility == b.utility  # exact float equality
            assert a.fairness == b.fairness
            assert np.array_equal(a.theta, b.theta)  # bitwise theta

    def test_grid_search_winners_identical(self, tuning_problem):
        serial = _search(tuning_problem)
        parallel = _search(tuning_problem, n_jobs=2)
        for criterion in TuningCriterion:
            assert (
                serial.best(criterion).params == parallel.best(criterion).params
            )

    def test_ifair_fit_bitwise_identical_across_backends(self, tuning_problem):
        spec, shared, _ = tuning_problem
        X = shared["X"]

        def fit(n_jobs=None, backend="process"):
            return IFair(
                n_prototypes=4,
                n_restarts=3,
                max_iter=20,
                max_pairs=400,
                n_jobs=n_jobs,
                backend=backend,
                random_state=7,
            ).fit(X, spec["protected"])

        serial, process, thread = fit(), fit(2), fit(3, "thread")
        assert np.array_equal(serial.theta_, process.theta_)
        assert np.array_equal(serial.theta_, thread.theta_)
        assert serial.loss_ == process.loss_ == thread.loss_
        assert [r.loss for r in serial.restarts_] == [
            r.loss for r in process.restarts_
        ]

    def test_grid_search_parity_at_threaded_blas_sizes(self):
        """Candidate evaluation runs at one BLAS thread on every backend.

        A ridge fit on 2000 x 100 rows gives different bits at one and
        two BLAS threads; the caller runs at two threads, whatever the
        host's default, while process workers run at one.
        """
        rng = np.random.default_rng(11)
        m, n = 4200, 100
        X = rng.normal(size=(m, n))
        X[:, n - 1] = (rng.random(m) > 0.5).astype(float)
        y = X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.normal(size=m)
        idx = np.arange(m)
        spec = {"seed": 11, "protected": [n - 1], "nonprotected": list(range(n - 1))}
        shared = {
            "X": X,
            "y": y,
            "train": idx[:200],
            "reg": idx[200:2200],
            "val": idx[2200:],
        }
        grid = [
            {
                "lambda_util": lam,
                "mu_fair": mu,
                "n_prototypes": 4,
                "n_restarts": 1,
                "max_iter": 8,
                "max_pairs": 400,
            }
            for lam in (0.01, 1.0, 100.0)
            for mu in (0.01, 1.0, 100.0)
        ]

        def search(**kwargs):
            return GridSearch(
                partial(_ridge_build, spec),
                partial(_ridge_evaluate, spec),
                grid,
                shared=shared,
                keep_artifacts=False,
                summarize=_ridge_coef,
                **kwargs,
            ).run()

        with blas.limit(2):
            serial = search()
            parallel = search(n_jobs=2)
        for a, b in zip(serial.candidates, parallel.candidates):
            assert a.utility == b.utility
            assert a.fairness == b.fairness
            assert a.info == b.info
            assert np.array_equal(a.theta, b.theta)

    def test_classification_pipeline_parity(self, tiny_compas, fast_config):
        from dataclasses import replace

        serial = run_classification(tiny_compas, fast_config)
        parallel = run_classification(
            tiny_compas, replace(fast_config, tune_jobs=2)
        )
        assert len(serial.candidates) == len(parallel.candidates)
        for a, b in zip(serial.candidates, parallel.candidates):
            assert a.method == b.method and a.params == b.params
            assert a.val_auc == b.val_auc
            assert a.val_consistency == b.val_consistency
            assert a.test.as_row() == b.test.as_row()


class TestSharedMemoryHygiene:
    def test_no_segments_after_parallel_grid_search(self, tuning_problem):
        _search(tuning_problem, n_jobs=2)
        assert leaked_segments() == []

    def test_no_segments_after_parallel_fit(self, tuning_problem):
        spec, shared, _ = tuning_problem
        IFair(
            n_prototypes=4, n_restarts=2, max_iter=10, max_pairs=300,
            n_jobs=2, random_state=0,
        ).fit(shared["X"], spec["protected"])
        assert leaked_segments() == []

    def test_no_segments_after_failing_candidate(self, tuning_problem):
        spec, shared, grid = tuning_problem
        search = GridSearch(
            partial(_raising_build, spec),
            lambda a: (0.0, 0.0),
            grid[:3],
            n_jobs=2,
            shared=shared,
        )
        with pytest.raises(TaskError, match="candidate build exploded"):
            search.run()
        assert leaked_segments() == []


class TestHalvingAgreement:
    @pytest.fixture(scope="class")
    def census_problem(self):
        """The seeded agreement configuration (census has real signal
        structure, so the criteria have clear winners — random
        gaussian data would make winner identity a coin flip between
        near-tied candidates at any budget)."""
        from repro.data.census import generate_census
        from repro.data.splits import stratified_split
        from repro.learners.scaler import StandardScaler

        dataset = generate_census(250, random_state=11)
        split = stratified_split(dataset.y, random_state=11)
        X = StandardScaler().fit(dataset.X[split.train]).transform(dataset.X)
        spec = {
            "seed": 11,
            "protected": [int(i) for i in np.atleast_1d(dataset.protected_indices)],
            "nonprotected": [int(i) for i in dataset.nonprotected_indices],
        }
        shared = {
            "X": X,
            "y": dataset.y,
            "train": split.train,
            "val": split.val,
        }
        grid = [
            {
                "lambda_util": lam,
                "mu_fair": mu,
                "n_prototypes": k,
                "n_restarts": 2,
                "max_iter": 48,
                "max_pairs": 800,
            }
            for lam in (0.01, 1.0, 100.0)
            for mu in (0.01, 1.0, 100.0)
            for k in (4, 8)
        ]
        return spec, shared, grid

    def test_halving_selects_exhaustive_winner_under_all_criteria(
        self, census_problem
    ):
        exhaustive = _search(census_problem)
        halving = _search(
            census_problem,
            strategy="halving",
            halving=HalvingConfig(n_rungs=3, promote_fraction=1 / 3),
        )
        assert halving.strategy == "halving"
        for criterion in TuningCriterion:
            assert (
                halving.best(criterion).order == exhaustive.best(criterion).order
            ), criterion
        # the survivors' final-rung fits are the exhaustive fits
        exhaustive_by_order = {c.order: c for c in exhaustive.candidates}
        for candidate in halving.candidates:
            reference = exhaustive_by_order[candidate.order]
            assert candidate.utility == reference.utility
            assert np.array_equal(candidate.theta, reference.theta)

    def test_refit_best_works_with_shared_reading_builds(self, tuning_problem):
        # Regression: refit_best runs after the search pool (and its
        # shared-memory segments) are gone, so the rebuild must
        # re-establish the executor context for builds that read
        # get_shared().
        spec, shared, grid = tuning_problem
        result = _search(tuning_problem, n_jobs=2, strategy="halving")
        model = result.refit_best(TuningCriterion.OPTIMAL)
        best = result.best(TuningCriterion.OPTIMAL)
        assert isinstance(model, IFair)
        np.testing.assert_array_equal(model.theta_, best.theta)
        assert leaked_segments() == []

    def test_halving_parallel_matches_halving_serial(self, tuning_problem):
        serial = _search(tuning_problem, strategy="halving")
        parallel = _search(tuning_problem, strategy="halving", n_jobs=2)
        assert [c.order for c in serial.candidates] == [
            c.order for c in parallel.candidates
        ]
        for a, b in zip(serial.candidates, parallel.candidates):
            assert a.utility == b.utility and a.fairness == b.fairness


class TestSessionPoolParity:
    """Session pools must be a pure perf knob — results bitwise equal."""

    @pytest.fixture(autouse=True)
    def _clean_session_state(self):
        from repro.core.executor import shutdown_session_pools

        shutdown_session_pools()
        yield
        shutdown_session_pools()
        assert leaked_segments() == []

    def test_grid_search_session_vs_per_call_bitwise(self, tuning_problem):
        per_call = _search(tuning_problem, n_jobs=2)
        session = _search(tuning_problem, n_jobs=2, pool="session")
        for a, b in zip(per_call.candidates, session.candidates):
            assert a.order == b.order
            assert a.utility == b.utility
            assert a.fairness == b.fairness
            assert np.array_equal(a.theta, b.theta)
        for criterion in TuningCriterion:
            assert (
                per_call.best(criterion).params == session.best(criterion).params
            )

    def test_consecutive_session_searches_share_workers(self, tuning_problem):
        from repro.core.executor import PoolBroker

        _search(tuning_problem, n_jobs=2, pool="session")
        pids_first = PoolBroker.instance().lease(2).pool.worker_pids()
        PoolBroker.instance()._release(2)
        _search(tuning_problem, n_jobs=2, pool="session")
        pids_second = PoolBroker.instance().lease(2).pool.worker_pids()
        PoolBroker.instance()._release(2)
        assert pids_first == pids_second

    def test_ifair_fit_session_vs_per_call_bitwise(self, tuning_problem):
        spec, shared, _ = tuning_problem

        def fit(pool):
            return IFair(
                n_prototypes=4,
                n_restarts=3,
                max_iter=20,
                max_pairs=400,
                n_jobs=2,
                pool=pool,
                random_state=7,
            ).fit(shared["X"], spec["protected"])

        per_call, warm_a, warm_b = fit("per-call"), fit("session"), fit("session")
        assert np.array_equal(per_call.theta_, warm_a.theta_)
        assert np.array_equal(per_call.theta_, warm_b.theta_)
        assert per_call.loss_ == warm_a.loss_ == warm_b.loss_

    def test_refit_reuses_tuning_broadcast(self, tuning_problem):
        # The arena must serve the fit of the selected candidate from
        # the segment the search already published (cache hit, no
        # second copy of X).
        from repro.utils.shm import arena

        spec, shared, _ = tuning_problem
        _search(tuning_problem, n_jobs=2, pool="session")
        before = arena().stats()
        IFair(
            n_prototypes=4,
            n_restarts=2,
            max_iter=10,
            max_pairs=300,
            n_jobs=2,
            pool="session",
            random_state=0,
        ).fit(shared["X"], spec["protected"])
        after = arena().stats()
        assert after["hits"] > before["hits"]
        assert after["entries"] == before["entries"]

    def test_halving_session_matches_halving_per_call(self, tuning_problem):
        per_call = _search(
            tuning_problem,
            n_jobs=2,
            strategy="halving",
            halving=HalvingConfig(n_rungs=3, promote_fraction=0.25),
        )
        session = _search(
            tuning_problem,
            n_jobs=2,
            strategy="halving",
            pool="session",
            halving=HalvingConfig(n_rungs=3, promote_fraction=0.25),
        )
        assert [c.order for c in per_call.candidates] == [
            c.order for c in session.candidates
        ]
        for a, b in zip(per_call.candidates, session.candidates):
            assert a.utility == b.utility and a.fairness == b.fairness
            assert np.array_equal(a.theta, b.theta)


class TestServingSessionParity:
    """fit_serving_pipeline(pool="session"): tune + refit on one pool."""

    @pytest.fixture(autouse=True)
    def _clean_session_state(self):
        from repro.core.executor import shutdown_session_pools

        shutdown_session_pools()
        yield
        shutdown_session_pools()
        assert leaked_segments() == []

    def test_tuned_artifact_bitwise_equal_and_refit_warm(self):
        from repro.data.census import generate_census
        from repro.serving.fit import fit_serving_pipeline
        from repro.utils.shm import arena

        dataset = generate_census(80, random_state=3)
        kwargs = dict(
            n_prototypes=4,
            n_restarts=2,
            max_iter=20,
            tune=True,
            tune_jobs=2,
            n_jobs=2,
            tune_strategy="halving",
            random_state=3,
        )
        per_call = fit_serving_pipeline(dataset, **kwargs)
        session = fit_serving_pipeline(dataset, pool="session", **kwargs)
        assert np.array_equal(per_call.model.theta_, session.model.theta_)
        assert per_call.metadata["tuned"] == session.metadata["tuned"]
        # The final full-data fit reused the matrix the tuning search
        # had already broadcast (arena hit), instead of re-publishing.
        assert arena().stats()["hits"] >= 1
