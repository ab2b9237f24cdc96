"""Tests for repro.utils.kernels (the GEMM + landmark kernel layer)."""

import math
import threading

import numpy as np
import pytest

from repro.utils import kernels
from repro.utils.mathkit import softmax

from oracle_reference import dense_landmark_reference as _dense_landmark_reference


@pytest.fixture
def case(make_kernel_case):
    return make_kernel_case(m=25, k=4, n=6)


def _tensor_dists(X, V, alpha):
    diff = X[:, None, :] - V[None, :, :]
    return (diff * diff) @ alpha


class TestForwardKernels:
    def test_gemm_matches_tensor(self, case):
        X, V, alpha = case
        np.testing.assert_allclose(
            kernels.weighted_sq_dists_gemm(X, V, alpha),
            _tensor_dists(X, V, alpha),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_rowstable_matches_tensor(self, case):
        X, V, alpha = case
        np.testing.assert_allclose(
            kernels.weighted_sq_dists_rowstable(X, V, alpha),
            _tensor_dists(X, V, alpha),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_gemm_precomputed_square_and_out(self, case):
        X, V, alpha = case
        out = np.empty((X.shape[0], V.shape[0]))
        got = kernels.weighted_sq_dists_gemm(X, V, alpha, x_sq=X * X, out=out)
        assert got is out
        np.testing.assert_allclose(got, _tensor_dists(X, V, alpha), rtol=1e-12)

    def test_distances_nonnegative(self, rng):
        # Cancellation-prone case: records equal to a prototype.
        V = rng.normal(size=(3, 5))
        X = np.repeat(V, 4, axis=0)
        alpha = rng.uniform(0.1, 1.0, size=5)
        assert np.all(kernels.weighted_sq_dists_gemm(X, V, alpha) >= 0.0)
        assert np.all(kernels.weighted_sq_dists_rowstable(X, V, alpha) >= 0.0)

    @pytest.mark.parametrize("block", [1, 3, 7, 25])
    @pytest.mark.parametrize("n_features", [6, 40])  # tensor / einsum branch
    def test_rowstable_is_bitwise_chunk_stable(self, rng, block, n_features):
        X = rng.normal(size=(25, n_features))
        V = rng.normal(size=(8, n_features))
        alpha = rng.uniform(0.1, 1.0, size=n_features)
        full = kernels.weighted_sq_dists_rowstable(X, V, alpha)
        chunked = np.vstack(
            [
                kernels.weighted_sq_dists_rowstable(X[s : s + block], V, alpha)
                for s in range(0, X.shape[0], block)
            ]
        )
        assert np.array_equal(full, chunked)

    def test_rowstable_einsum_branch_matches_tensor(self, rng):
        # Force the einsum branch (K * N above the dispatch threshold).
        X = rng.normal(size=(12, 50))
        V = rng.normal(size=(6, 50))
        alpha = rng.uniform(0.1, 1.0, size=50)
        np.testing.assert_allclose(
            kernels.weighted_sq_dists_rowstable(X, V, alpha),
            _tensor_dists(X, V, alpha),
            rtol=1e-12,
            atol=1e-12,
        )


class TestSoftmaxNegInplace:
    def test_matches_mathkit_softmax_bitwise(self, case):
        X, V, alpha = case
        d = kernels.weighted_sq_dists_gemm(X, V, alpha)
        expected = softmax(-d, axis=1)
        got = kernels.softmax_neg_inplace(d)
        assert got is d  # in-place, same buffer
        assert np.array_equal(got, expected)


class TestBackwardKernel:
    def test_matches_einsum_reference(self, case, rng):
        X, V, alpha = case
        P = rng.normal(size=(X.shape[0], V.shape[0]))
        diff = X[:, None, :] - V[None, :, :]
        ref_alpha = -np.einsum("mk,mkn->n", P, diff * diff)
        ref_V = 2.0 * alpha[None, :] * np.einsum("mk,mkn->kn", P, diff)
        got_alpha, got_V = kernels.sq_dist_backward(P, X, V, alpha)
        np.testing.assert_allclose(got_alpha, ref_alpha, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(got_V, ref_V, rtol=1e-10, atol=1e-10)


class TestPairScatter:
    def test_diffs_bitwise_equal_fancy_indexing(self, rng):
        X = rng.normal(size=(20, 5))
        ii = rng.integers(0, 20, size=40)
        jj = rng.integers(0, 20, size=40)
        ps = kernels.PairScatter(ii, jj, X)
        assert np.array_equal(ps.diffs(X), X[ii] - X[jj])

    def test_scatter_matches_add_at(self, rng):
        m, n, n_pairs = 20, 5, 60
        ii = rng.integers(0, m, size=n_pairs)
        jj = rng.integers(0, m, size=n_pairs)
        contrib = rng.normal(size=(n_pairs, n))
        expected = rng.normal(size=(m, n))
        got = expected.copy()
        np.add.at(expected, ii, contrib)
        np.add.at(expected, jj, -contrib)
        kernels.PairScatter(ii, jj, expected).scatter_add(got, contrib)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_repeated_indices_accumulate(self):
        G = np.zeros((3, 2))
        ii = np.array([0, 0, 0])
        jj = np.array([2, 2, 1])
        kernels.PairScatter(ii, jj, G).scatter_add(G, np.ones((3, 2)))
        np.testing.assert_allclose(G[0], [3.0, 3.0])
        np.testing.assert_allclose(G[1], [-1.0, -1.0])
        np.testing.assert_allclose(G[2], [-2.0, -2.0])


class TestWorkspace:
    def test_buffers_are_reused(self):
        ws = kernels.Workspace()
        a = ws.take("a", (4, 3))
        assert ws.take("a", (4, 3)) is a
        # Shape change reallocates; original name keeps the new buffer.
        b = ws.take("a", (5, 3))
        assert b is not a
        assert ws.take("a", (5, 3)) is b

    def test_distinct_names_distinct_buffers(self):
        ws = kernels.Workspace()
        assert ws.take("x", (2, 2)) is not ws.take("y", (2, 2))

    def test_thread_local_isolation(self):
        ws = kernels.Workspace()
        main_buf = ws.take("d", (8, 8))
        seen = {}

        def worker():
            seen["buf"] = ws.take("d", (8, 8))

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["buf"] is not main_buf


class TestBlockedMinkowskiKernels:
    """Row-blocked generic-p kernels vs the (M, K, N) tensor forms."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_forward_matches_tensor(self, make_kernel_case, p):
        X, V, alpha = make_kernel_case(m=30, k=4, n=5)
        diff = X[:, None, :] - V[None, :, :]
        expected = (np.abs(diff) ** p) @ alpha
        np.testing.assert_allclose(
            kernels.minkowski_dists_blocked(X, V, alpha, p),
            expected,
            rtol=1e-12,
            atol=1e-12,
        )

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_backward_matches_tensor(self, make_kernel_case, p):
        X, V, alpha = make_kernel_case(m=30, k=4, n=5)
        P = np.random.default_rng(9).normal(size=(30, 4))
        diff = X[:, None, :] - V[None, :, :]
        absdiff = np.abs(diff)
        ref_alpha = -np.einsum("mk,mkn->n", P, absdiff ** p)
        deriv = np.sign(diff) * absdiff ** (p - 1.0)
        ref_V = p * alpha[None, :] * np.einsum("mk,mkn->kn", P, deriv)
        got_alpha, got_V = kernels.minkowski_backward_blocked(P, X, V, alpha, p)
        np.testing.assert_allclose(got_alpha, ref_alpha, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(got_V, ref_V, rtol=1e-10, atol=1e-10)

    def test_blocking_is_row_exact(self, make_kernel_case, monkeypatch):
        """A tiny block budget (forcing many blocks) must not change
        per-row results — each row is an independent contraction."""
        X, V, alpha = make_kernel_case(m=23, k=3, n=4)
        one_shot = kernels.minkowski_dists_blocked(X, V, alpha, 3.0)
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 16)
        many_blocks = kernels.minkowski_dists_blocked(X, V, alpha, 3.0)
        assert np.array_equal(one_shot, many_blocks)


class TestLandmarkFairness:
    @pytest.fixture
    def landmark_case(self, make_data):
        X_star = make_data(18, 4, seed=21)
        X_tilde = make_data(18, 4, seed=22)
        idx = np.array([0, 3, 7, 11, 17])
        return X_star, X_tilde, idx

    def test_loss_matches_dense_reference(self, landmark_case):
        X_star, X_tilde, idx = landmark_case
        lf = kernels.LandmarkFairness(X_star, idx, scale=18 / 5)
        expected, _ = _dense_landmark_reference(X_tilde, X_star, idx, 18 / 5)
        assert lf.loss(X_tilde) == pytest.approx(expected, rel=1e-12)

    def test_grad_matches_dense_reference(self, landmark_case):
        X_star, X_tilde, idx = landmark_case
        lf = kernels.LandmarkFairness(X_star, idx, scale=18 / 5)
        exp_loss, exp_G = _dense_landmark_reference(X_tilde, X_star, idx, 18 / 5)
        loss, G = lf.loss_and_grad_x(X_tilde)
        assert loss == pytest.approx(exp_loss, rel=1e-12)
        np.testing.assert_allclose(G, exp_G, rtol=1e-10, atol=1e-10)

    def test_anchor_order_is_irrelevant(self, landmark_case):
        X_star, X_tilde, idx = landmark_case
        a = kernels.LandmarkFairness(X_star, idx, scale=1.0)
        b = kernels.LandmarkFairness(X_star, idx[::-1].copy(), scale=1.0)
        assert a.loss(X_tilde) == b.loss(X_tilde)
        la, Ga = a.loss_and_grad_x(X_tilde)
        lb, Gb = b.loss_and_grad_x(X_tilde)
        assert la == lb
        assert np.array_equal(Ga, Gb.copy())

    def test_default_scale_is_m_over_l(self, landmark_case):
        X_star, _, idx = landmark_case
        assert kernels.LandmarkFairness(X_star, idx).scale == pytest.approx(18 / 5)

    def test_blocking_matches_one_shot(self, landmark_case, monkeypatch):
        X_star, X_tilde, idx = landmark_case
        one = kernels.LandmarkFairness(X_star, idx, scale=2.0)
        loss_one, G_one = one.loss_and_grad_x(X_tilde)
        G_one = G_one.copy()
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 8)  # ~1 row per block
        many = kernels.LandmarkFairness(X_star, idx, scale=2.0)
        loss_many, G_many = many.loss_and_grad_x(X_tilde)
        assert loss_one == pytest.approx(loss_many, rel=1e-13)
        np.testing.assert_allclose(G_one, G_many, rtol=1e-12, atol=1e-12)

    def test_at_full_rank_matches_full_pair_moments(self, make_data):
        """Anchors = every record: the landmark loss is the full
        ordered-pair loss (here checked against the moment form)."""
        X_star = make_data(16, 3, seed=31)
        X_tilde = make_data(16, 3, seed=32)
        lf = kernels.LandmarkFairness(X_star, np.arange(16), scale=1.0)
        moment = kernels.FullPairFairness(X_star)
        assert lf.loss(X_tilde) == pytest.approx(moment.loss(X_tilde), rel=1e-10)

    def test_invalid_anchors_rejected(self, make_data):
        X_star = make_data(10, 3)
        with pytest.raises(ValueError, match="distinct"):
            kernels.LandmarkFairness(X_star, [1, 1])
        with pytest.raises(ValueError, match="range"):
            kernels.LandmarkFairness(X_star, [0, 10])
        with pytest.raises(ValueError, match="anchor"):
            kernels.LandmarkFairness(X_star, [])


class TestCompensatedSum:
    def test_exact_on_trivial_sums(self):
        acc = kernels.CompensatedSum()
        for value in (1.5, 2.25, -0.75):
            acc.add(value)
        assert acc.result == 3.0

    def test_chaining_and_initial_value(self):
        assert kernels.CompensatedSum(1.0).add(2.0).add(3.0).result == 6.0

    def test_keeps_ten_digits_where_naive_loses_everything(self):
        """The accumulator contract behind the ROADMAP watch-item:
        summing many small addends in the shadow of huge cancelling
        ones must keep >= 10 significant digits."""
        tiny = [1e-4] * 100_000
        seq = [1e12] + tiny + [-1e12]
        exact = math.fsum(seq)
        assert exact == pytest.approx(10.0, rel=1e-12)

        naive = 0.0
        for value in seq:
            naive += value
        # Every tiny addend falls below half an ulp of 1e12 and is
        # rounded away: the naive loop keeps essentially zero digits.
        assert abs(naive - exact) / exact > 1e-2

        acc = kernels.CompensatedSum()
        for value in seq:
            acc.add(value)
        assert abs(acc.result - exact) / exact < 1e-10


class TestNearCancellationRegression:
    """The ROADMAP watch-item: a fit driving D_tilde -> D* to many
    digits destroys the moment expansion's significance; the landmark
    oracle computes the error entries directly (with compensated
    cross-block accumulation) and must keep >= 10 significant digits.
    """

    @pytest.fixture
    def near_cancellation(self, make_data):
        m, n = 60, 4
        X_star = make_data(m, n, seed=41)
        # D_tilde -> D*: the transform nearly reproduces the targets.
        X_tilde = X_star + 1e-4 * make_data(m, n, seed=42)
        return X_star, X_tilde

    def _exact_direct_loss(self, X_star, X_tilde):
        """fsum over directly computed squared errors (same expanded-
        square formula as the kernel, exact summation)."""
        idx = np.arange(X_star.shape[0])
        aa = np.einsum("mn,mn->m", X_tilde, X_tilde)
        dt = np.maximum(aa[:, None] + aa[None, :] - 2.0 * X_tilde @ X_tilde.T, 0.0)
        ss = np.einsum("mn,mn->m", X_star, X_star)
        ds = np.maximum(ss[:, None] + ss[None, :] - 2.0 * X_star @ X_star.T, 0.0)
        E = dt - ds
        return math.fsum((E * E).ravel().tolist())

    def test_landmark_oracle_keeps_ten_digits(self, near_cancellation):
        X_star, X_tilde = near_cancellation
        exact = self._exact_direct_loss(X_star, X_tilde)
        lf = kernels.LandmarkFairness(X_star, np.arange(60), scale=1.0)
        assert abs(lf.loss(X_tilde) - exact) / exact < 1e-10
        loss_grad, _ = lf.loss_and_grad_x(X_tilde)
        assert abs(loss_grad - exact) / exact < 1e-10

    def test_moment_form_demonstrably_loses_digits(self, near_cancellation):
        """The watch-item is real: on the same inputs the moment
        expansion's cancellation error is orders of magnitude above
        the landmark oracle's."""
        X_star, X_tilde = near_cancellation
        exact = self._exact_direct_loss(X_star, X_tilde)
        moment = kernels.FullPairFairness(X_star)
        moment_err = abs(moment.loss(X_tilde) - exact) / exact
        assert moment_err > 1e-9
