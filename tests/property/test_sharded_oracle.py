"""Property tests for the sharded landmark oracle (ISSUE 8).

Two contracts, per the module docstring of :mod:`repro.core.shards`:

* **Parity** — the sharded decomposition is exact algebra, so for ANY
  contiguous shard plan (one-row shards, empty shards, empty tails
  included) the loss and gradient match the single-process landmark
  objective at rtol 1e-10.
* **Determinism** — at a fixed shard plan the result is a pure
  function of (plan, theta): bitwise identical whether the shards run
  in-process or on 2 or 4 worker processes, including through a whole
  L-BFGS fit.

Example budgets come from the Hypothesis profile in ``tests/conftest.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import IFair
from repro.core.objective import IFairObjective
from repro.core.shards import ShardedLandmarkOracle, plan_shards


def _landmark_objective(X, *, k=3, p=2.0, seed=0, n_landmarks=8):
    return IFairObjective(
        X,
        [X.shape[1] - 1],
        n_prototypes=k,
        p=p,
        pair_mode="landmark",
        n_landmarks=n_landmarks,
        random_state=seed,
    )


def _case(seed, m=24, n=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, n))
    X[:, n - 1] = (rng.random(m) > 0.5).astype(float)
    return X


@st.composite
def shard_plans(draw):
    """(n_rows, plan): arbitrary contiguous tilings of [0, n_rows).

    Duplicate cut points produce empty shards; cuts at 0 or n_rows
    produce empty head/tail shards; adjacent cuts produce 1-row shards.
    """
    m = draw(st.integers(6, 32))
    cuts = sorted(draw(st.lists(st.integers(0, m), max_size=6)))
    bounds = [0] + cuts + [m]
    plan = tuple(
        (bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)
    )
    return m, plan


class TestShardParity:
    @given(shard_plans(), st.integers(0, 2**31 - 1))
    def test_any_plan_matches_single_process(self, case, seed):
        m, plan = case
        X = _case(seed, m=m)
        reference = _landmark_objective(X, seed=seed)
        theta = np.random.default_rng(seed).uniform(
            0.1, 0.9, size=reference.n_params
        )
        loss_ref, grad_ref = reference.loss_and_grad(theta)

        oracle = ShardedLandmarkOracle(reference, plan=plan)
        loss, grad = oracle.loss_and_grad(theta)

        assert loss == pytest.approx(loss_ref, rel=1e-10)
        np.testing.assert_allclose(
            grad, grad_ref, rtol=1e-10, atol=1e-10 * np.abs(grad_ref).max()
        )

    @given(st.integers(0, 2**31 - 1), st.integers(1, 12))
    def test_shard_count_sweep_matches_single_process(self, seed, n_shards):
        """plan_shards at any count — including counts above M."""
        X = _case(seed, m=10)
        reference = _landmark_objective(X, seed=seed)
        theta = np.random.default_rng(seed + 1).uniform(
            0.1, 0.9, size=reference.n_params
        )
        loss_ref, grad_ref = reference.loss_and_grad(theta)
        loss, grad = ShardedLandmarkOracle(
            reference, n_shards=n_shards
        ).loss_and_grad(theta)
        assert loss == pytest.approx(loss_ref, rel=1e-10)
        np.testing.assert_allclose(
            grad, grad_ref, rtol=1e-10, atol=1e-10 * np.abs(grad_ref).max()
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10)
    def test_generic_p_blocked_kernels(self, seed):
        """The p != 2 path shards through the blocked Minkowski kernels."""
        X = _case(seed, m=18)
        reference = _landmark_objective(X, p=3.0, seed=seed)
        theta = np.random.default_rng(seed).uniform(
            0.1, 0.9, size=reference.n_params
        )
        loss_ref, grad_ref = reference.loss_and_grad(theta)
        loss, grad = ShardedLandmarkOracle(
            reference, n_shards=4
        ).loss_and_grad(theta)
        assert loss == pytest.approx(loss_ref, rel=1e-10)
        np.testing.assert_allclose(
            grad, grad_ref, rtol=1e-10, atol=1e-10 * np.abs(grad_ref).max()
        )


class TestFixedPlanDeterminism:
    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_bitwise_across_worker_counts(self, n_jobs):
        """Same fixed plan, different worker counts: every float equal."""
        X = _case(7, m=60, n=6)
        reference = _landmark_objective(X, seed=7, n_landmarks=12)
        theta = np.random.default_rng(8).uniform(
            0.1, 0.9, size=reference.n_params
        )
        serial = ShardedLandmarkOracle(reference, n_shards=4, n_jobs=1)
        loss_1, grad_1 = serial.loss_and_grad(theta)
        with ShardedLandmarkOracle(
            reference, n_shards=4, n_jobs=n_jobs
        ) as oracle:
            loss_j, grad_j = oracle.loss_and_grad(theta)
        assert loss_1 == loss_j
        np.testing.assert_array_equal(grad_1, grad_j)

    def test_full_fit_theta_bitwise_across_oracle_jobs(self):
        """End-to-end: a sharded fit lands on the identical theta."""
        X = _case(11, m=80, n=6)

        def fit(oracle_jobs):
            return IFair(
                n_prototypes=3,
                pair_mode="landmark",
                n_landmarks=12,
                oracle_shards=4,
                oracle_jobs=oracle_jobs,
                n_restarts=1,
                max_iter=8,
                random_state=0,
            ).fit(X, [5])

        serial = fit(None)
        parallel = fit(2)
        np.testing.assert_array_equal(serial.theta_, parallel.theta_)
        assert serial.loss_ == parallel.loss_

    def test_plan_is_independent_of_n_jobs(self):
        X = _case(3, m=50)
        reference = _landmark_objective(X, seed=3)
        a = ShardedLandmarkOracle(reference, n_shards=6, n_jobs=1)
        b = ShardedLandmarkOracle(reference, n_shards=6, n_jobs=4)
        assert a.plan == b.plan == plan_shards(50, 6)
