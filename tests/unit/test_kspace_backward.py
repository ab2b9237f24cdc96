"""Numerics of the oracle's K-space backward pass.

:meth:`IFairObjective.loss_and_grad` centres the records once,
contracts the gradient through ``X_tilde = U V`` in K-space, and keeps
the utility loss a direct residual on the raw records (see the
``repro.core.objective`` module docstring).  These tests pin what that
design is for:

* records far from the origin keep a gradient accurate to working
  precision, measured against a long-double evaluation of the
  reference formulas;
* the utility loss keeps its digits as ``X_tilde -> X``;
* no pair mode writes an ``(M, N)`` array per call besides the
  residual, and the objective holds no raw ``X**2``;
* ``loss`` and ``loss_and_grad`` run the same forward pass.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.core.objective import IFairObjective

from oracle_reference import ReferenceObjective

LD = np.longdouble


def _longdouble_loss_and_grad(X, nonprotected, V, alpha, lam, mu, pairs):
    """The reference formulas (``oracle_reference``) at p = 2, in long
    double, with every pair difference taken directly."""
    X, V, alpha = X.astype(LD), V.astype(LD), alpha.astype(LD)
    diff = X[:, None, :] - V[None, :, :]
    sq = diff * diff
    scores = -np.einsum("mkn,n->mk", sq, alpha)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    U = e / e.sum(axis=1, keepdims=True)
    X_tilde = U @ V
    resid = X_tilde - X
    X_star = X[:, nonprotected]
    if pairs is None:
        dt = X_tilde[:, None, :] - X_tilde[None, :, :]
        ds = X_star[:, None, :] - X_star[None, :, :]
        E = (dt * dt).sum(axis=2) - (ds * ds).sum(axis=2)
        l_fair = (E * E).sum()
        g_fair = 8 * np.einsum("ij,ijn->in", E, dt)
    else:
        ii, jj = pairs
        dt = X_tilde[ii] - X_tilde[jj]
        ds = X_star[ii] - X_star[jj]
        err = (dt * dt).sum(axis=1) - (ds * ds).sum(axis=1)
        l_fair = (err * err).sum()
        g_fair = np.zeros_like(X_tilde)
        np.add.at(g_fair, ii, 4 * err[:, None] * dt)
        np.add.at(g_fair, jj, -4 * err[:, None] * dt)
    loss = lam * (resid * resid).sum() + mu * l_fair
    G = 2 * lam * resid + mu * g_fair
    C = G @ V.T
    P = U * (C - (U * C).sum(axis=1, keepdims=True))
    grad_V = U.T @ G + 2 * alpha * np.einsum("mk,mkn->kn", P, diff)
    grad_alpha = -np.einsum("mk,mkn->n", P, sq)
    return loss, np.concatenate([grad_V.ravel(), grad_alpha])


class TestOffsetRecords:
    """An (M, N) backward on the raw records lost 1.5-3.6e-10 of the
    gradient at +1e3."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("offset", [1e2, 1e3])
    @pytest.mark.parametrize("pair_mode", ["full", "sampled"])
    def test_gradient_matches_long_double_reference(self, pair_mode, offset, seed):
        m, n, k = 40, 6, 3
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(m, n)) + offset
        kwargs = dict(lambda_util=1.0, mu_fair=0.5, n_prototypes=k, random_state=seed)
        if pair_mode == "sampled":
            kwargs["max_pairs"] = 300
        objective = IFairObjective(X, [n - 1], **kwargs)
        pairs = ReferenceObjective(X, [n - 1], **kwargs)._pairs
        # Prototypes where the records are, so memberships stay soft.
        V = rng.normal(size=(k, n)) + offset
        alpha = rng.uniform(0.1, 0.5, size=n)
        theta = np.concatenate([V.ravel(), alpha])

        loss, grad = objective.loss_and_grad(theta)
        ref_loss, ref_grad = _longdouble_loss_and_grad(
            X, objective.nonprotected, V, alpha, 1.0, 0.5, pairs
        )
        grad_err = np.max(np.abs(grad - ref_grad)) / np.max(np.abs(ref_grad))
        assert float(grad_err) <= 1e-12
        assert float(abs(loss - ref_loss) / ref_loss) <= 1e-12


class TestNearReconstruction:
    def test_utility_loss_keeps_its_digits(self):
        """One-hot memberships and records 1e-4 from their prototypes:
        a Gram expansion of L_util read 2.2e-6 relative error here."""
        m, n, k = 60, 6, 4
        rng = np.random.default_rng(7)
        V = rng.normal(size=(k, n))
        assign = np.arange(m) % k
        X = V[assign] + 1e-4 * rng.normal(size=(m, n))
        objective = IFairObjective(X, None, mu_fair=0.0, n_prototypes=k)
        # Large weights saturate the softmax: U is exactly one-hot.
        alpha = np.full(n, 1e6)
        assert np.array_equal(objective.memberships(V, alpha), np.eye(k)[assign])

        l_util, _ = objective.loss_components(objective.pack(V, alpha))
        resid = V[assign].astype(LD) - X.astype(LD)
        exact = (resid * resid).sum()
        assert float(abs(LD(l_util) - exact) / exact) <= 1e-14


class TestBuffers:
    M, N, K = 20_000, 40, 10

    def _warm(self, **kwargs):
        X = np.random.default_rng(0).normal(size=(self.M, self.N))
        objective = IFairObjective(
            X, [self.N - 2, self.N - 1], n_prototypes=self.K, random_state=0, **kwargs
        )
        theta = np.random.default_rng(1).uniform(0.1, 0.9, size=objective.n_params)
        objective.loss_and_grad(theta)
        return X, objective, theta

    @pytest.mark.parametrize("kwargs", [{}, {"max_pairs": 2000}], ids=["full", "sampled"])
    def test_one_record_sized_buffer(self, kwargs):
        X, objective, _ = self._warm(**kwargs)
        pools = [objective._ws, objective._fair._ws]
        shapes = [b.shape for ws in pools for b in ws._local.pool.values()]
        assert shapes.count((self.M, self.N)) == 1
        x_sq = X * X
        assert not any(
            isinstance(value, np.ndarray)
            and value.shape == X.shape
            and np.array_equal(value, x_sq)
            for value in vars(objective).values()
        )

    @pytest.mark.parametrize("kwargs", [{}, {"max_pairs": 2000}], ids=["full", "sampled"])
    def test_warm_call_writes_no_record_sized_temporary(self, kwargs):
        _, objective, theta = self._warm(**kwargs)
        tracemalloc.start()
        try:
            objective.loss_and_grad(theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * self.M * self.N / 2


class TestOneForwardPass:
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"max_pairs": 40}],
        ids=["full", "sampled"],
    )
    def test_loss_equals_loss_and_grad(self, make_data, p, kwargs):
        X = make_data(20, 5, seed=3) + 50.0
        objective = IFairObjective(
            X, [4], lambda_util=0.7, mu_fair=1.3, n_prototypes=3, p=p, **kwargs
        )
        theta = np.random.default_rng(2).uniform(0.1, 0.9, size=objective.n_params)
        loss, _ = objective.loss_and_grad(theta)
        assert objective.loss(theta) == loss
        l_util, l_fair = objective.loss_components(theta)
        assert math.isfinite(l_util) and math.isfinite(l_fair)
