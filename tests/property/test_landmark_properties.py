"""Property tests for the landmark fairness oracle.

Three families, per the oracle's contract:

* **Convergence** — the scaled landmark loss approaches the full-pair
  loss as L grows, hitting an exact match (machine precision) at
  L = M.  Intermediate L are an approximation, so they are held to a
  *monotone tolerance schedule* rather than pointwise monotonicity.
* **Gradients** — the analytic gradient matches central finite
  differences on every parameter block, for p = 2 (GEMM distance
  kernels) and generic p (row-blocked distance kernels).
* **Ordering invariance** — anchors are stored sorted, so any
  permutation of the same anchor set yields bitwise-identical results.

Example budgets come from the Hypothesis profile in ``tests/conftest.py``.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.objective import IFairObjective


def _objectives(X, *, p=2.0, seed=0, landmarks=None, n_landmarks=None):
    return IFairObjective(
        X,
        [X.shape[1] - 1],
        n_prototypes=3,
        p=p,
        pair_mode="landmark",
        n_landmarks=n_landmarks,
        landmarks=landmarks,
        random_state=seed,
    )


class TestConvergenceToFullPair:
    @given(st.integers(0, 2**31 - 1))
    def test_monotone_tolerance_schedule(self, seed):
        """Relative error vs the full-pair fairness loss must fit under
        a schedule that tightens as L -> M: generous while anchors are
        scarce, machine-exact once every record is an anchor."""
        rng = np.random.default_rng(seed)
        m = 24
        X = rng.normal(size=(m, 5))
        full = IFairObjective(X, [4], n_prototypes=3)
        theta = rng.uniform(0.1, 0.9, size=full.n_params)
        _, fair_full = full.loss_components(theta)

        schedule = [(4, 2.0), (12, 1.0), (m, 1e-10)]
        for n_land, tol in schedule:
            lm = _objectives(X, seed=seed, n_landmarks=n_land)
            _, fair_lm = lm.loss_components(theta)
            rel_err = abs(fair_lm - fair_full) / max(fair_full, 1e-300)
            assert rel_err <= tol, (
                f"L={n_land}: rel err {rel_err:.3e} exceeds schedule {tol:.0e}"
            )

    @given(st.integers(0, 2**31 - 1), st.sampled_from([1.0, 2.0, 3.0]))
    def test_exact_at_full_rank_any_p(self, seed, p):
        """Acceptance criterion, property form: at L = M the landmark
        loss (and gradient) equal the full-pair reference for any p."""
        rng = np.random.default_rng(seed)
        m = 14
        X = rng.normal(size=(m, 4))
        full = IFairObjective(X, [3], n_prototypes=3, p=p)
        lm = _objectives(X, p=p, seed=seed, n_landmarks=m)
        theta = rng.uniform(0.1, 0.9, size=full.n_params)
        loss_full, grad_full = full.loss_and_grad(theta)
        loss_lm, grad_lm = lm.loss_and_grad(theta)
        assert loss_lm == pytest.approx(loss_full, rel=1e-8)
        np.testing.assert_allclose(grad_lm, grad_full, rtol=1e-8, atol=1e-8)


class TestGradientFiniteDifferences:
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([2.0, 1.0, 3.0]),
    )
    def test_grad_matches_central_differences(self, seed, p):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(15, 4))
        objective = _objectives(X, p=p, seed=seed, n_landmarks=6)
        theta = rng.uniform(0.2, 0.8, size=objective.n_params)
        _, grad = objective.loss_and_grad(theta)

        eps = 1e-6
        # Probe a spread of coordinates across the V and alpha blocks.
        coords = list(range(0, objective.n_params, max(1, objective.n_params // 8)))
        coords.append(objective.n_params - 1)  # always one alpha entry
        scale = max(1.0, float(np.max(np.abs(grad))))
        for i in coords:
            up = theta.copy()
            up[i] += eps
            down = theta.copy()
            down[i] -= eps
            numeric = (objective.loss(up) - objective.loss(down)) / (2.0 * eps)
            assert abs(numeric - grad[i]) / scale < 1e-5


class TestOrderingInvariance:
    @given(st.integers(0, 2**31 - 1))
    def test_anchor_permutation_is_bitwise_identical(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(16, 4))
        anchors = rng.choice(16, size=6, replace=False)
        a = _objectives(X, landmarks=anchors)
        b = _objectives(X, landmarks=rng.permutation(anchors))
        theta = rng.uniform(0.1, 0.9, size=a.n_params)

        loss_a, grad_a = a.loss_and_grad(theta)
        loss_b, grad_b = b.loss_and_grad(theta)
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)
        np.testing.assert_array_equal(a.landmark_indices, b.landmark_indices)

    def test_selection_result_feeds_back_identically(self, make_data):
        """Selecting landmarks and passing them back explicitly (in any
        order) reproduces the seeded objective bitwise."""
        X = make_data(20, 5, seed=3)
        seeded = _objectives(X, seed=9, n_landmarks=7)
        explicit = _objectives(X, landmarks=seeded.landmark_indices[::-1].copy())
        theta = np.random.default_rng(1).uniform(0.1, 0.9, size=seeded.n_params)
        loss_a, grad_a = seeded.loss_and_grad(theta)
        loss_b, grad_b = explicit.loss_and_grad(theta)
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)
