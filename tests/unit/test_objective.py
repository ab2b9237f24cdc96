"""Tests for repro.core.objective (forward pass and packing)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.objective import IFairObjective, _triu_unravel
from repro.exceptions import ValidationError
from repro.utils import kernels


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
        X = rng.normal(size=(6, 3))
        obj = IFairObjective(X, None, n_prototypes=2)
        # Simulate a perfect reconstruction by evaluating the fairness
        # term directly at X_tilde = X.
        assert obj._fair.loss(X) == pytest.approx(0.0)

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

    def test_sampled_requires_max_pairs(self, make_objective):
        with pytest.raises(ValidationError, match="max_pairs"):
            make_objective(pair_mode="sampled")

    def test_max_pairs_rejected_outside_sampled(self, make_objective):
        with pytest.raises(ValidationError, match="max_pairs"):
            make_objective(pair_mode="full", max_pairs=10)
        with pytest.raises(ValidationError, match="max_pairs"):
            make_objective(pair_mode="landmark", max_pairs=10, n_landmarks=4)

    def test_landmark_params_rejected_outside_landmark(self, make_objective):
        with pytest.raises(ValidationError, match="landmark"):
            make_objective(n_landmarks=4)
        with pytest.raises(ValidationError, match="landmark"):
            make_objective(landmarks=[0, 1])

    def test_invalid_landmark_method_rejected(self, make_objective):
        with pytest.raises(ValidationError, match="landmark_method"):
            make_objective(pair_mode="landmark", landmark_method="bogus")

    def test_explicit_landmarks_validated(self, make_objective):
        with pytest.raises(ValidationError, match="distinct"):
            make_objective(pair_mode="landmark", landmarks=[1, 1, 2])
        with pytest.raises(ValidationError, match="range"):
            make_objective(m=12, pair_mode="landmark", landmarks=[0, 12])

    def test_n_landmarks_capped_at_m(self, make_objective):
        obj = make_objective(m=12, pair_mode="landmark", n_landmarks=999)
        assert obj.n_landmarks == 12
        np.testing.assert_array_equal(obj.landmark_indices, np.arange(12))

    def test_default_landmark_count(self, make_objective):
        assert make_objective(m=12, pair_mode="landmark").n_landmarks == 12
        big = make_objective(m=200, n=3, protected=None, pair_mode="landmark")
        assert big.n_landmarks == IFairObjective.DEFAULT_LANDMARKS

    def test_effective_pairs_per_mode(self, make_objective):
        assert make_objective(m=12).effective_pairs == 144
        assert make_objective(m=12, max_pairs=10).effective_pairs == 10
        # Landmark mode is rescaled to estimate the full ordered sum.
        lm = make_objective(m=12, pair_mode="landmark", n_landmarks=4)
        assert lm.effective_pairs == 144

    def test_non_landmark_modes_expose_no_landmarks(self, make_objective):
        obj = make_objective()
        assert obj.n_landmarks is None
        assert obj.landmark_indices is None

    def test_landmark_fair_loss_scaled_to_full(self, make_objective, make_theta):
        """With anchors = every record the scaled landmark fairness
        loss equals the full ordered-pair loss."""
        full = make_objective(m=12)
        lm = make_objective(m=12, pair_mode="landmark", n_landmarks=12)
        theta = make_theta(full)
        _, fair_full = full.loss_components(theta)
        _, fair_lm = lm.loss_components(theta)
        assert fair_lm == pytest.approx(fair_full, rel=1e-12)

    def test_landmark_never_builds_m_squared_state(self, make_objective):
        obj = make_objective(m=30, pair_mode="landmark", n_landmarks=6)
        assert isinstance(obj._fair, kernels.LandmarkFairness)
        assert obj._fair._d_star.shape == (30, 6)


class TestMemory:
    def test_generic_p_full_pairs_build_no_m_squared_array(self):
        """p != 2 full pairs run the moment form and the row-blocked
        distance kernels: one (M, M) float64 array alone would be
        128 MB at this M."""
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
        for kwargs in (
            {},
            {"max_pairs": 50},
            {"pair_mode": "landmark", "n_landmarks": 8},
        ):
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
            IFairObjective(
                X,
                [4],
                pair_mode="landmark",
                n_landmarks=0,
                precompute=False,
            )
        with pytest.raises(ValidationError):
            IFairObjective(
                X,
                [4],
                pair_mode="landmark",
                landmarks=[1, 1],
                precompute=False,
            )

    def test_shape_bookkeeping_needs_no_precompute(self, rng):
        _, obj = self._make(rng, precompute=False)
        assert obj.n_params == 3 * 5 + 5
        assert obj.n_features == 5
        assert not obj._ready
        V, alpha = obj.unpack(np.arange(float(obj.n_params)))
        assert V.shape == (3, 5) and alpha.shape == (5,)
        assert not obj._ready  # still deferred

    def test_landmark_indices_triggers_build(self, rng):
        X = rng.normal(size=(30, 5))
        lazy = IFairObjective(
            X,
            [4],
            pair_mode="landmark",
            n_landmarks=6,
            random_state=0,
            precompute=False,
        )
        eager = IFairObjective(
            X, [4], pair_mode="landmark", n_landmarks=6, random_state=0
        )
        np.testing.assert_array_equal(lazy.landmark_indices, eager.landmark_indices)


class TestEnsureReadyFailure:
    def test_failed_build_stays_retryable(self, rng, monkeypatch):
        import repro.core.objective as objective_module

        X = rng.normal(size=(30, 5))
        lazy = IFairObjective(
            X,
            [4],
            n_prototypes=3,
            pair_mode="landmark",
            n_landmarks=6,
            random_state=0,
            precompute=False,
        )
        calls = {"n": 0}
        real = objective_module.select_landmarks

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise MemoryError("simulated build failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(objective_module, "select_landmarks", flaky)
        with pytest.raises(MemoryError):
            lazy.ensure_ready()
        assert not lazy._ready  # failure must not latch readiness
        theta = rng.uniform(0.1, 0.9, size=lazy.n_params)
        loss, _ = lazy.loss_and_grad(theta)  # retry succeeds
        assert np.isfinite(loss)
