"""The test oracle of the iFair objective: einsum tensors and a dense D*.

Production (:class:`repro.core.objective.IFairObjective`) evaluates the
loss through the GEMM / row-blocked distance kernels and the K-space
and sparse-scatter fairness kernels; LFR's regulariser uses the
blocked-landmark kernel (:func:`dense_landmark_reference`).  This module keeps
the straightforward evaluation of the same formulas — ``(M, K, N)``
difference tensors, the dense ``(M, M)`` target ``D*``, ``np.add.at``
scatters — so tests can hold production to it.  It is slow and
memory-hungry on purpose; use it on small inputs only.

Test modules import it as ``oracle_reference`` (``tests/`` is on
``sys.path`` once ``tests/conftest.py`` is loaded);
``tests/golden/regenerate.py`` adds ``tests/`` itself.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.objective import IFairObjective, _triu_unravel
from repro.utils.mathkit import pairwise_sq_euclidean, softmax
from repro.utils.rng import check_random_state


def dense_landmark_reference(X_tilde, X_star, idx, scale):
    """Straightforward dense evaluation of the landmark term."""
    dt = np.sum((X_tilde[:, None, :] - X_tilde[idx][None, :, :]) ** 2, axis=2)
    ds = np.sum((X_star[:, None, :] - X_star[idx][None, :, :]) ** 2, axis=2)
    E = dt - ds
    loss = scale * float(np.sum(E * E))
    G = np.zeros_like(X_tilde)
    row = E.sum(axis=1)
    G += 4.0 * scale * (row[:, None] * X_tilde - E @ X_tilde[idx])
    np.add.at(
        G,
        idx,
        -4.0 * scale * (E.T @ X_tilde - E.sum(axis=0)[:, None] * X_tilde[idx]),
    )
    return loss, G


class ReferenceObjective:
    """:class:`IFairObjective`'s constructor and evaluation surface,
    computed by the reference formulas.

    A deferred production objective (``precompute=False``) validates
    the parameters and packs theta; nothing it computes enters the
    loss.  Sampled pairs are drawn with the production recipe from the
    same ``random_state``.
    """

    def __init__(self, X, protected_indices=None, *, random_state=0, **kwargs):
        spec = IFairObjective(
            X, protected_indices, random_state=random_state, precompute=False, **kwargs
        )
        self._spec = spec
        self.X = spec.X
        self.p = spec.p
        self.lambda_util = spec.lambda_util
        self.mu_fair = spec.mu_fair
        self.pair_mode = spec.pair_mode
        self.n_params = spec.n_params
        X_star = spec.X[:, spec.nonprotected]
        self._pairs = None
        m = X_star.shape[0]
        if self.pair_mode == "full":
            self._d_star = pairwise_sq_euclidean(X_star)
        else:
            total = m * (m - 1) // 2
            flat = check_random_state(random_state).choice(
                total, size=min(int(kwargs["max_pairs"]), total), replace=False
            )
            ii, jj = _triu_unravel(flat, m)
            self._pairs = (ii, jj)
            diff = X_star[ii] - X_star[jj]
            self._d_star = np.sum(diff * diff, axis=1)

    @property
    def effective_pairs(self) -> int:
        if self._pairs is not None:
            return int(self._pairs[0].size)
        return self.X.shape[0] ** 2

    def unpack(self, theta):
        return self._spec.unpack(theta)

    def _tensors(self, V, alpha):
        """(d, powed, deriv) with the (M, K, N) difference tensors."""
        diff = self.X[:, None, :] - V[None, :, :]
        if self.p == 2.0:
            powed = diff * diff
            deriv = diff  # sign(diff)*|diff|^(p-1) for p=2
        else:
            absdiff = np.abs(diff)
            powed = absdiff ** self.p
            deriv = np.sign(diff) * absdiff ** (self.p - 1.0)
        return powed @ alpha, powed, deriv

    def memberships(self, V, alpha):
        return softmax(-self._tensors(V, alpha)[0], axis=1)

    def transform(self, V, alpha):
        return self.memberships(V, alpha) @ V

    def _fair(self, X_tilde) -> Tuple[float, np.ndarray]:
        """(L_fair, dL_fair/dX_tilde) of the pair mode."""
        if self._pairs is None:
            E = pairwise_sq_euclidean(X_tilde) - self._d_star
            row = E.sum(axis=1)
            return float(np.sum(E * E)), 8.0 * (row[:, None] * X_tilde - E @ X_tilde)
        ii, jj = self._pairs
        pair_diff = X_tilde[ii] - X_tilde[jj]
        err = np.sum(pair_diff * pair_diff, axis=1) - self._d_star
        contrib = 4.0 * err[:, None] * pair_diff
        G = np.zeros_like(X_tilde)
        np.add.at(G, ii, contrib)
        np.add.at(G, jj, -contrib)
        return float(np.sum(err * err)), G

    def loss_components(self, theta) -> Tuple[float, float]:
        V, alpha = self.unpack(theta)
        X_tilde = self.transform(V, alpha)
        resid = self.X - X_tilde
        return float(np.sum(resid * resid)), self._fair(X_tilde)[0]

    def loss(self, theta) -> float:
        l_util, l_fair = self.loss_components(theta)
        return self.lambda_util * l_util + self.mu_fair * l_fair

    def loss_and_grad(self, theta) -> Tuple[float, np.ndarray]:
        V, alpha = self.unpack(theta)
        d, powed, deriv = self._tensors(V, alpha)
        U = softmax(-d, axis=1)
        X_tilde = U @ V
        resid = X_tilde - self.X
        l_fair, g_fair = self._fair(X_tilde)
        loss = self.lambda_util * float(np.sum(resid * resid)) + self.mu_fair * l_fair

        # dL/dX_tilde, then through X_tilde = U V and the softmax.
        G = 2.0 * self.lambda_util * resid + self.mu_fair * g_fair
        grad_V = U.T @ G
        C = G @ V.T
        P = U * (C - np.sum(U * C, axis=1, keepdims=True))
        # dL/dd = -P; d = powed @ alpha; dd_ik/dv_kn = -p * alpha_n * deriv_ikn.
        grad_alpha = -np.einsum("mk,mkn->n", P, powed)
        grad_V += self.p * alpha[None, :] * np.einsum("mk,mkn->kn", P, deriv)
        return loss, np.concatenate([grad_V.ravel(), grad_alpha])
