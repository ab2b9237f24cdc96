"""Micro-benchmarks of the core computational kernels.

These time the pieces that dominate the experiment pipeline: the iFair
objective (loss + analytic gradient), a full iFair fit, the transform,
the LFR objective, FA*IR re-ranking, and the O(n log n) Kendall's tau.
Useful for tracking performance regressions independently of the
end-to-end experiments.
"""

import numpy as np
import pytest

from repro.baselines.fair_ranking import FairRanker
from repro.baselines.lfr import LFRObjective
from repro.core.model import IFair
from repro.core.objective import IFairObjective
from repro.metrics.ranking import kendall_tau

RNG = np.random.default_rng(0)
X_MED = RNG.normal(size=(200, 40))
PROTECTED = [38, 39]


@pytest.fixture(scope="module")
def objective():
    return IFairObjective(
        X_MED, PROTECTED, lambda_util=1.0, mu_fair=1.0, n_prototypes=10
    )


@pytest.fixture(scope="module")
def theta(objective):
    return np.random.default_rng(1).uniform(0.1, 0.9, size=objective.n_params)


def test_ifair_loss(benchmark, objective, theta):
    benchmark(objective.loss, theta)


def test_ifair_loss_and_grad(benchmark, objective, theta):
    benchmark(objective.loss_and_grad, theta)


def test_ifair_loss_and_grad_issue_scale(benchmark):
    """The ISSUE-2 acceptance configuration: M=2000, N=40, K=10, p=2."""
    X = np.random.default_rng(3).normal(size=(2000, 40))
    obj = IFairObjective(X, PROTECTED, n_prototypes=10)
    theta = np.random.default_rng(1).uniform(0.1, 0.9, size=obj.n_params)
    obj.loss_and_grad(theta)  # warm the workspace
    benchmark.pedantic(obj.loss_and_grad, args=(theta,), rounds=5, iterations=1)


def test_ifair_fit_small(benchmark):
    X = RNG.normal(size=(80, 12))

    def fit():
        return IFair(
            n_prototypes=5, n_restarts=1, max_iter=25, random_state=0,
            max_pairs=1000,
        ).fit(X, [11])

    benchmark.pedantic(fit, rounds=3, iterations=1)


def test_ifair_transform(benchmark):
    X = RNG.normal(size=(150, 20))
    model = IFair(
        n_prototypes=6, n_restarts=1, max_iter=20, random_state=0, max_pairs=800
    ).fit(X, [19])
    benchmark(model.transform, X)


def test_lfr_loss_and_grad(benchmark):
    X = RNG.normal(size=(150, 20))
    y = (RNG.random(150) > 0.5).astype(float)
    s = (RNG.random(150) > 0.5).astype(float)
    obj = LFRObjective(X, y, s, n_prototypes=8)
    theta = np.random.default_rng(2).uniform(0.1, 0.9, size=obj.n_params)
    benchmark(obj.loss_and_grad, theta)


def test_fair_reranking(benchmark):
    scores = RNG.normal(size=500)
    protected = (RNG.random(500) > 0.6).astype(float)
    ranker = FairRanker(p=0.5)
    benchmark(ranker.rank, scores, protected)


def test_kendall_tau_large(benchmark):
    a = RNG.normal(size=5000)
    b = RNG.normal(size=5000)
    benchmark(kendall_tau, a, b)
