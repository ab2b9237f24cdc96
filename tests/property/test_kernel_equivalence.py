"""Property tests: the production oracle is exact-equivalent to the reference.

The iFair oracle has one production path — GEMM distance kernels at
``p == 2``, row-blocked Minkowski kernels otherwise, and the pair
mode's fairness kernel (centred K-space form / sparse scatter).  The
test oracle in ``tests/oracle_reference.py`` evaluates the same
formulas with ``(M, K, N)`` einsum tensors and a dense ``D*``.  These
tests pin the two together at ``rtol = 1e-10`` for the loss and the
full gradient, across Minkowski exponents, both pair modes (full /
sampled), and protected sets, so any algebra drift in the kernels is
caught immediately.

Example budgets come from the Hypothesis profile registered in
``tests/conftest.py`` (``default``; ``HYPOTHESIS_PROFILE=nightly``
runs the scheduled high-budget sweep).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.objective import IFairObjective
from repro.utils import kernels

from oracle_reference import ReferenceObjective, dense_landmark_reference

RTOL = 1e-10
ATOL = 1e-10


def _pair_kwargs(pair_config):
    """Translate a drawn pair configuration into objective kwargs."""
    kind, value = pair_config
    if kind == "full":
        return {}
    return {"max_pairs": value}


def _pair(X, protected, *, p, pair_config, lam=1.0, mu=1.0, k=3, seed=0):
    """The same objective in production and as the test oracle."""
    kwargs = dict(
        lambda_util=lam,
        mu_fair=mu,
        n_prototypes=k,
        p=p,
        random_state=seed,
        **_pair_kwargs(pair_config),
    )
    fast = IFairObjective(X, protected, **kwargs)
    ref = ReferenceObjective(X, protected, **kwargs)
    return fast, ref


@st.composite
def equivalence_cases(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    m = draw(st.integers(6, 20))
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, min(4, m - 1)))
    p = draw(st.sampled_from([2.0, 1.0, 3.0]))
    pair_config = draw(
        st.sampled_from(
            [
                ("full", None),
                ("sampled", 5),
                ("sampled", 25),
            ]
        )
    )
    lam = draw(st.sampled_from([0.0, 0.5, 1.0, 10.0]))
    mu = draw(st.sampled_from([0.0, 0.5, 1.0, 10.0]))
    n_protected = draw(st.integers(0, max(0, n - 1)))
    return seed, m, n, k, p, pair_config, lam, mu, n_protected


class TestFastMatchesReference:
    @given(equivalence_cases())
    def test_loss_and_grad_equivalent(self, case):
        seed, m, n, k, p, pair_config, lam, mu, n_protected = case
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(m, n))
        protected = list(range(n - n_protected, n))
        fast, ref = _pair(
            X, protected, p=p, pair_config=pair_config, lam=lam, mu=mu, k=k, seed=seed
        )
        theta = rng.uniform(0.1, 0.9, size=fast.n_params)

        loss_fast, grad_fast = fast.loss_and_grad(theta)
        loss_ref, grad_ref = ref.loss_and_grad(theta)
        assert loss_fast == pytest.approx(loss_ref, rel=RTOL, abs=ATOL)
        np.testing.assert_allclose(grad_fast, grad_ref, rtol=RTOL, atol=ATOL)

    @given(equivalence_cases())
    def test_forward_only_equivalent(self, case):
        seed, m, n, k, p, pair_config, lam, mu, n_protected = case
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(m, n))
        protected = list(range(n - n_protected, n))
        fast, ref = _pair(
            X, protected, p=p, pair_config=pair_config, lam=lam, mu=mu, k=k, seed=seed
        )
        theta = rng.uniform(0.1, 0.9, size=fast.n_params)

        assert fast.loss(theta) == pytest.approx(ref.loss(theta), rel=RTOL, abs=ATOL)
        util_f, fair_f = fast.loss_components(theta)
        util_r, fair_r = ref.loss_components(theta)
        assert util_f == pytest.approx(util_r, rel=RTOL, abs=ATOL)
        assert fair_f == pytest.approx(fair_r, rel=RTOL, abs=ATOL)
        V, alpha = fast.unpack(theta)
        np.testing.assert_allclose(
            fast.memberships(V, alpha), ref.memberships(V, alpha), rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(
            fast.transform(V, alpha), ref.transform(V, alpha), rtol=RTOL, atol=ATOL
        )

    def test_empty_and_full_protected_sets(self, make_data, make_theta):
        """Edge protected sets, all pair modes, loss + grad at 1e-10."""
        X = make_data(14, 5, seed=7)
        for protected in (None, [], [4], [2, 3, 4]):
            for pair_config in (("full", None), ("sampled", 8)):
                fast, ref = _pair(
                    X, protected, p=2.0, pair_config=pair_config, seed=11
                )
                theta = make_theta(fast, seed=13)
                loss_fast, grad_fast = fast.loss_and_grad(theta)
                loss_ref, grad_ref = ref.loss_and_grad(theta)
                assert loss_fast == pytest.approx(loss_ref, rel=RTOL, abs=ATOL)
                np.testing.assert_allclose(grad_fast, grad_ref, rtol=RTOL, atol=ATOL)

    def test_fast_path_is_actually_selected(self, make_data, monkeypatch):
        """GEMM distance kernels at p = 2, row-blocked ones otherwise."""
        calls = []
        for name in (
            "weighted_sq_dists_gemm",
            "sq_dist_backward",
            "minkowski_dists_blocked",
            "minkowski_backward_blocked",
        ):
            original = getattr(kernels, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(kernels, name, spy)
        X = make_data(10, 4, seed=0)
        for p, expected in (
            (2.0, ["weighted_sq_dists_gemm", "sq_dist_backward"]),
            (3.0, ["minkowski_dists_blocked", "minkowski_backward_blocked"]),
        ):
            for pair_config in (("full", None), ("sampled", 8)):
                objective = IFairObjective(
                    X, [3], n_prototypes=2, p=p, **_pair_kwargs(pair_config)
                )
                calls.clear()
                objective.loss_and_grad(np.full(objective.n_params, 0.5))
                assert calls == expected

    def test_workspace_reuse_is_stateless(self, make_data):
        """Calling the fast oracle repeatedly (as L-BFGS does) must not
        let reused buffers leak state between evaluations."""
        rng = np.random.default_rng(3)
        X = make_data(12, 4, seed=3)
        fast, ref = _pair(X, [3], p=2.0, pair_config=("full", None))
        thetas = [rng.uniform(0.1, 0.9, size=fast.n_params) for _ in range(4)]
        for theta in thetas + thetas[::-1]:
            loss_fast, grad_fast = fast.loss_and_grad(theta)
            loss_ref, grad_ref = ref.loss_and_grad(theta)
            assert loss_fast == pytest.approx(loss_ref, rel=RTOL, abs=ATOL)
            np.testing.assert_allclose(grad_fast, grad_ref, rtol=RTOL, atol=ATOL)

    def test_landmark_workspace_reuse_is_stateless(self, make_data, monkeypatch):
        """Same guard for LFR's landmark kernel (blocked buffers and
        anchor gather are all workspace-backed), over several blocks."""
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 5 * 4)
        rng = np.random.default_rng(5)
        X_star = make_data(12, 4, seed=5)[:, :3]
        idx = np.array([0, 3, 5, 8, 11])
        landmark = kernels.LandmarkFairness(X_star, idx)
        transforms = [rng.normal(size=(12, 4)) for _ in range(4)]
        for X_tilde in transforms + transforms[::-1]:
            loss, grad = landmark.loss_and_grad_x(X_tilde)
            loss_ref, grad_ref = dense_landmark_reference(
                X_tilde, X_star, idx, landmark.scale
            )
            assert loss == pytest.approx(loss_ref, rel=RTOL, abs=ATOL)
            np.testing.assert_allclose(grad, grad_ref, rtol=RTOL, atol=ATOL)
