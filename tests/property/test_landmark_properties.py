"""Property tests for the landmark fairness kernel.

:class:`repro.utils.kernels.LandmarkFairness` is the kernel of LFR's
optional individual-fairness regulariser: iFair's pair
distance-preservation term estimated through ``L`` anchor records.
Three families, per the kernel's contract:

* **Convergence** — the scaled landmark loss approaches the full-pair
  loss as L grows, hitting an exact match (machine precision) at
  L = M.  Intermediate L are an approximation, so they are held to a
  *monotone tolerance schedule* rather than pointwise monotonicity.
* **Gradients** — the analytic gradient with respect to the transform
  matches central finite differences.
* **Ordering invariance** — anchors are stored sorted, so any
  permutation of the same anchor set yields bitwise-identical results.

The transforms are those of the iFair objective (``X_tilde = U V``),
so the kernel is checked on the inputs a fairness term meets in a fit.
Example budgets come from the Hypothesis profile in ``tests/conftest.py``.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.objective import IFairObjective
from repro.utils import kernels
from repro.utils.landmarks import select_landmarks


def _full_and_transform(X, rng, *, p=2.0):
    """A full-pair objective on ``X`` and a transform it produces."""
    full = IFairObjective(X, [X.shape[1] - 1], n_prototypes=3, p=p)
    theta = rng.uniform(0.1, 0.9, size=full.n_params)
    return full, theta, full.transform(*full.unpack(theta))


def _landmark(X, n_landmarks, *, seed=0):
    """The landmark kernel on X's non-protected columns, seeded anchors."""
    X_star = X[:, :-1]
    idx = select_landmarks(X_star, n_landmarks, random_state=seed)
    return kernels.LandmarkFairness(X_star, idx)


class TestConvergenceToFullPair:
    @given(st.integers(0, 2**31 - 1))
    def test_monotone_tolerance_schedule(self, seed):
        """Relative error vs the full-pair fairness loss must fit under
        a schedule that tightens as L -> M: generous while anchors are
        scarce, machine-exact once every record is an anchor."""
        rng = np.random.default_rng(seed)
        m = 24
        X = rng.normal(size=(m, 5))
        full, theta, X_tilde = _full_and_transform(X, rng)
        _, fair_full = full.loss_components(theta)

        schedule = [(4, 2.0), (12, 1.0), (m, 1e-10)]
        for n_land, tol in schedule:
            fair_lm = _landmark(X, n_land, seed=seed).loss(X_tilde)
            rel_err = abs(fair_lm - fair_full) / max(fair_full, 1e-300)
            assert rel_err <= tol, (
                f"L={n_land}: rel err {rel_err:.3e} exceeds schedule {tol:.0e}"
            )

    @given(st.integers(0, 2**31 - 1), st.sampled_from([1.0, 2.0, 3.0]))
    def test_exact_at_full_rank_any_p(self, seed, p):
        """At L = M the landmark loss and its transform gradient equal
        the full-pair kernel's, on transforms fitted at any p."""
        rng = np.random.default_rng(seed)
        m = 14
        X = rng.normal(size=(m, 4))
        full, theta, X_tilde = _full_and_transform(X, rng, p=p)
        V, alpha = full.unpack(theta)
        U = full.memberships(V, alpha)
        grad_full = np.zeros_like(X_tilde)
        loss_full = kernels.FullPairFairness(X[:, :-1]).add_grad(
            X_tilde, U, V, grad_full, 1.0
        )
        loss_lm, grad_lm = _landmark(X, m, seed=seed).loss_and_grad_x(X_tilde)
        assert loss_lm == pytest.approx(loss_full, rel=1e-8)
        np.testing.assert_allclose(grad_lm, grad_full, rtol=1e-8, atol=1e-8)


class TestGradientFiniteDifferences:
    @given(st.integers(0, 2**31 - 1))
    def test_grad_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(15, 4))
        _, _, X_tilde = _full_and_transform(X, rng)
        landmark = _landmark(X, 6, seed=seed)
        _, grad = landmark.loss_and_grad_x(X_tilde)
        grad = grad.copy()  # a workspace buffer the probes below reuse

        eps = 1e-6
        scale = max(1.0, float(np.max(np.abs(grad))))
        # Probe a spread of entries, anchor rows included.
        for flat in range(0, X_tilde.size, max(1, X_tilde.size // 10)):
            i, n = divmod(flat, X_tilde.shape[1])
            up = X_tilde.copy()
            up[i, n] += eps
            down = X_tilde.copy()
            down[i, n] -= eps
            numeric = (landmark.loss(up) - landmark.loss(down)) / (2.0 * eps)
            assert abs(numeric - grad[i, n]) / scale < 1e-5


class TestOrderingInvariance:
    @given(st.integers(0, 2**31 - 1))
    def test_anchor_permutation_is_bitwise_identical(self, seed):
        rng = np.random.default_rng(seed)
        X_star = rng.normal(size=(16, 3))
        X_tilde = rng.normal(size=(16, 4))
        anchors = rng.choice(16, size=6, replace=False)
        a = kernels.LandmarkFairness(X_star, anchors)
        b = kernels.LandmarkFairness(X_star, rng.permutation(anchors))

        loss_a, grad_a = a.loss_and_grad_x(X_tilde)
        grad_a = grad_a.copy()
        loss_b, grad_b = b.loss_and_grad_x(X_tilde)
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)
        np.testing.assert_array_equal(a.anchor_idx, b.anchor_idx)

    def test_selection_result_feeds_back_identically(self, make_data):
        """Selecting landmarks and passing them back explicitly (in any
        order) reproduces the seeded kernel bitwise."""
        X = make_data(20, 5, seed=3)
        seeded = _landmark(X, 7, seed=9)
        explicit = kernels.LandmarkFairness(X[:, :-1], seeded.anchor_idx[::-1].copy())
        X_tilde = np.random.default_rng(1).normal(size=(20, 5))
        loss_a, grad_a = seeded.loss_and_grad_x(X_tilde)
        loss_b, grad_b = explicit.loss_and_grad_x(X_tilde)
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)
