"""Tests for repro.core.objective (forward pass and packing)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.objective import IFairObjective, _triu_unravel
from repro.exceptions import ValidationError
from repro.utils import kernels
from repro.utils.mathkit import softmax


@pytest.fixture
def objective(make_objective):
    return make_objective(m=12, n=5, k=3, lambda_util=1.0, mu_fair=1.0)


class TestConstruction:
    def test_param_count(self, objective):
        assert objective.n_params == 3 * 5 + 5

    def test_too_many_prototypes_rejected(self, rng):
        with pytest.raises(ValidationError, match="n_prototypes"):
            IFairObjective(rng.normal(size=(5, 3)), n_prototypes=5)

    def test_negative_weights_rejected(self, rng):
        with pytest.raises(ValidationError):
            IFairObjective(rng.normal(size=(10, 3)), lambda_util=-1.0)

    def test_all_protected_rejected(self, rng):
        with pytest.raises(ValidationError, match="non-protected"):
            IFairObjective(rng.normal(size=(10, 2)), [0, 1], n_prototypes=2)

    def test_bad_p_rejected(self, rng):
        with pytest.raises(ValidationError):
            IFairObjective(rng.normal(size=(10, 3)), p=0.5, n_prototypes=2)

    def test_empty_protected_allowed(self, rng):
        obj = IFairObjective(rng.normal(size=(8, 3)), None, n_prototypes=2)
        assert obj.protected.size == 0
        assert obj.nonprotected.size == 3


class TestPacking:
    def test_roundtrip(self, objective, rng):
        V = rng.normal(size=(3, 5))
        alpha = rng.uniform(size=5)
        V2, alpha2 = objective.unpack(objective.pack(V, alpha))
        np.testing.assert_allclose(V, V2)
        np.testing.assert_allclose(alpha, alpha2)

    def test_wrong_shapes_rejected(self, objective, rng):
        with pytest.raises(ValidationError):
            objective.pack(rng.normal(size=(2, 5)), np.ones(5))
        with pytest.raises(ValidationError):
            objective.pack(rng.normal(size=(3, 5)), np.ones(4))
        with pytest.raises(ValidationError):
            objective.unpack(np.zeros(3))


class TestForward:
    def test_memberships_are_distributions(self, objective, rng):
        V = rng.normal(size=(3, 5))
        alpha = rng.uniform(0.1, 1.0, size=5)
        U = objective.memberships(V, alpha)
        assert U.shape == (12, 3)
        np.testing.assert_allclose(U.sum(axis=1), 1.0)
        assert np.all(U >= 0)

    def test_transform_in_prototype_hull(self, objective, rng):
        # x_tilde = U V is a convex combination of prototype rows.
        V = rng.normal(size=(3, 5))
        alpha = rng.uniform(0.1, 1.0, size=5)
        X_tilde = objective.transform(V, alpha)
        lo, hi = V.min(axis=0), V.max(axis=0)
        assert np.all(X_tilde >= lo - 1e-9)
        assert np.all(X_tilde <= hi + 1e-9)

    def test_loss_components_nonnegative(self, objective, rng):
        theta = rng.uniform(0.1, 1.0, size=objective.n_params)
        l_util, l_fair = objective.loss_components(theta)
        assert l_util >= 0.0
        assert l_fair >= 0.0

    def test_loss_is_weighted_sum(self, rng):
        X = rng.normal(size=(10, 4))
        obj = IFairObjective(X, [3], lambda_util=2.0, mu_fair=3.0, n_prototypes=2)
        theta = rng.uniform(0.1, 1.0, size=obj.n_params)
        l_util, l_fair = obj.loss_components(theta)
        assert obj.loss(theta) == pytest.approx(2.0 * l_util + 3.0 * l_fair)

    def test_fair_loss_zero_when_distances_preserved(self, rng):
        # If the transform is the identity on non-protected columns and
        # protected columns match too, the fairness loss depends only on
        # the gap between d(x_i, x_j) and d(x*_i, x*_j).  Build a case
        # with no protected attributes: target distances = full
        # distances, so a perfect reconstruction gives zero fair loss.
        U = softmax(rng.normal(size=(6, 2)), axis=1)
        V = rng.normal(size=(2, 3))
        X = U @ V
        obj = IFairObjective(X, None, n_prototypes=2)
        # Simulate a perfect reconstruction by evaluating the fairness
        # term directly at the factors of X_tilde = X = U V.
        assert obj._fair.loss(X, U, V) == pytest.approx(0.0)

    def test_sampled_pairs_subset_of_full(self, make_data, make_theta):
        X = make_data(10, 4)
        full = IFairObjective(X, None, n_prototypes=2)
        sampled = IFairObjective(X, None, n_prototypes=2, max_pairs=10, random_state=0)
        theta = make_theta(full, low=0.1, high=1.0)
        # Sampled fair loss (unordered pairs) is at most half the full
        # (ordered) fair loss.
        _, fair_full = full.loss_components(theta)
        _, fair_sampled = sampled.loss_components(theta)
        assert fair_sampled <= fair_full / 2.0 + 1e-9

    def test_max_pairs_larger_than_total_is_capped(self, make_data):
        X = make_data(6, 3)
        obj = IFairObjective(X, None, n_prototypes=2, max_pairs=10_000)
        assert obj.effective_pairs == 6 * 5 // 2


class TestPairModes:
    def test_auto_resolves_from_max_pairs(self, make_objective):
        assert make_objective().pair_mode == "full"
        assert make_objective(max_pairs=10).pair_mode == "sampled"

    def test_invalid_mode_rejected(self, make_objective):
        with pytest.raises(ValidationError, match="pair_mode"):
            make_objective(pair_mode="bogus")
        # The retired landmark mode; the message names what remains.
        with pytest.raises(ValidationError, match="'auto', 'full', 'sampled'"):
            make_objective(pair_mode="landmark")

    def test_sampled_requires_max_pairs(self, make_objective):
        with pytest.raises(ValidationError, match="max_pairs"):
            make_objective(pair_mode="sampled")

    def test_max_pairs_rejected_outside_sampled(self, make_objective):
        with pytest.raises(ValidationError, match="max_pairs"):
            make_objective(pair_mode="full", max_pairs=10)

    def test_effective_pairs_per_mode(self, make_objective):
        assert make_objective(m=12).effective_pairs == 144
        assert make_objective(m=12, max_pairs=10).effective_pairs == 10


class TestMemory:
    def test_generic_p_full_pairs_build_no_m_squared_array(self):
        """p != 2 full pairs run the K-space fairness kernel and the
        row-blocked distance kernels: one (M, M) float64 array alone
        would be 128 MB at this M."""
        X = np.random.default_rng(0).normal(size=(4000, 20))
        tracemalloc.start()
        try:
            obj = IFairObjective(X, [19], n_prototypes=8, p=3.0, pair_mode="full")
            obj.loss_and_grad(np.full(obj.n_params, 0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestTriuUnravel:
    def test_enumerates_all_pairs(self):
        m = 7
        total = m * (m - 1) // 2
        ii, jj = _triu_unravel(np.arange(total), m)
        pairs = set(zip(ii.tolist(), jj.tolist()))
        expected = {(i, j) for i in range(m) for j in range(i + 1, m)}
        assert pairs == expected

    def test_i_strictly_less_than_j(self):
        ii, jj = _triu_unravel(np.arange(45), 10)
        assert np.all(ii < jj)


class TestDeferredPrecompute:
    """precompute=False: eager validation, lazy support structures."""

    def _make(self, rng, **kwargs):
        X = rng.normal(size=(30, 5))
        return X, IFairObjective(X, [4], n_prototypes=3, random_state=0, **kwargs)

    def test_losses_identical_to_precomputed(self, rng):
        X = rng.normal(size=(30, 5))
        theta = rng.uniform(0.1, 0.9, size=3 * 5 + 5)
        for kwargs in ({}, {"max_pairs": 50}):
            eager = IFairObjective(X, [4], n_prototypes=3, random_state=0, **kwargs)
            lazy = IFairObjective(
                X, [4], n_prototypes=3, random_state=0, precompute=False, **kwargs
            )
            l_eager, g_eager = eager.loss_and_grad(theta)
            l_lazy, g_lazy = lazy.loss_and_grad(theta)
            assert l_eager == l_lazy
            np.testing.assert_array_equal(g_eager, g_lazy)

    def test_validation_stays_eager(self, rng):
        X = rng.normal(size=(30, 5))
        with pytest.raises(ValidationError):
            IFairObjective(X, [4], max_pairs=0, precompute=False)
        with pytest.raises(ValidationError):
            IFairObjective(X, [4], pair_mode="sampled", precompute=False)

    def test_shape_bookkeeping_needs_no_precompute(self, rng):
        _, obj = self._make(rng, precompute=False)
        assert obj.n_params == 3 * 5 + 5
        assert obj.n_features == 5
        assert not obj._ready
        V, alpha = obj.unpack(np.arange(float(obj.n_params)))
        assert V.shape == (3, 5) and alpha.shape == (5,)
        assert not obj._ready  # still deferred


class TestEnsureReadyFailure:
    def test_failed_build_stays_retryable(self, rng, monkeypatch):
        X = rng.normal(size=(30, 5))
        lazy = IFairObjective(
            X, [4], n_prototypes=3, random_state=0, precompute=False
        )
        calls = {"n": 0}
        real = kernels.FullPairFairness

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise MemoryError("simulated build failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "FullPairFairness", flaky)
        with pytest.raises(MemoryError):
            lazy.ensure_ready()
        assert not lazy._ready  # failure must not latch readiness
        theta = rng.uniform(0.1, 0.9, size=lazy.n_params)
        loss, _ = lazy.loss_and_grad(theta)  # retry succeeds
        assert np.isfinite(loss)
