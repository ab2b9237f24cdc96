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

        def fit(n_jobs=None):
            return IFair(
                n_prototypes=4,
                n_restarts=3,
                max_iter=20,
                max_pairs=400,
                n_jobs=n_jobs,
                random_state=7,
            ).fit(X, spec["protected"])

        serial, process = fit(), fit(2)
        assert np.array_equal(serial.theta_, process.theta_)
        assert serial.loss_ == process.loss_
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
