r"""LFR — Learning Fair Representations (Zemel et al., ICML 2013).

The paper's main prior-work comparator.  LFR learns K prototypes
``V`` (K x N), attribute weights ``alpha`` (N,) and per-prototype label
probabilities ``w`` (K,) by minimising

.. math::

    L = A_x L_x + A_y L_y + A_z L_z

with, using the same softmax memberships ``U`` as iFair,

* :math:`L_x = \sum_i \|x_i - \hat x_i\|^2`, :math:`\hat X = U V`
  (reconstruction / individual-fairness proxy),
* :math:`L_y = -\sum_i y_i \log \hat y_i + (1 - y_i) \log (1 - \hat
  y_i)`, :math:`\hat y = U w` (classifier accuracy),
* :math:`L_z = \sum_k | \overline{U}^{S=1}_k - \overline{U}^{S=0}_k |`
  (statistical parity of cluster occupancy between the protected group
  S=1 and its complement).

Unlike iFair, LFR is tied to a binary classification target and one
pre-specified protected group — exactly the limitation the paper
addresses.  Gradients are analytic (the L_z term uses the sign
subgradient); they are validated against finite differences in the
property tests at points where no |.| argument is near zero.

The distance matrix and its gradients use the same GEMM fast kernels
as the iFair objective (:mod:`repro.utils.kernels`) — LFR's distance
is always the ``p = 2`` weighted squared Euclidean, so no
``(M, K, N)`` tensor is ever materialised.

As an extension beyond Zemel et al., the objective accepts an optional
*individual*-fairness regulariser ``mu_fair > 0``: iFair's pair
distance-preservation term estimated through ``L`` landmark anchors
(:class:`repro.utils.kernels.LandmarkFairness`, O(M * L * N) per call,
target distances on all attributes since LFR has no protected-column
notion).  iFair itself sums the term exactly (``pair_mode="full"``).
The default ``mu_fair = 0`` keeps the classic LFR objective
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.learners.base import ParamsMixin
from repro.utils import blas, kernels
from repro.utils.landmarks import select_landmarks
from repro.utils.mathkit import softmax, weighted_minkowski_to_prototypes
from repro.utils.rng import RandomStateLike, check_random_state, spawn_seeds
from repro.utils.validation import check_binary_labels, check_matrix

_CLIP = 1e-6


class LFRObjective:
    """Loss/gradient oracle for LFR on one training set."""

    def __init__(
        self,
        X,
        y,
        protected,
        *,
        a_x: float = 0.01,
        a_y: float = 1.0,
        a_z: float = 0.5,
        n_prototypes: int = 10,
        mu_fair: float = 0.0,
        n_landmarks: Optional[int] = None,
        landmark_method: str = "kmeans++",
        random_state: RandomStateLike = 0,
    ):
        self.X = check_matrix(X, "X")
        m, n = self.X.shape
        self.y = check_binary_labels(y, "y", length=m)
        self.protected = check_binary_labels(protected, "protected", length=m)
        if a_x < 0 or a_y < 0 or a_z < 0:
            raise ValidationError("A_x, A_y, A_z must be non-negative")
        if mu_fair < 0:
            raise ValidationError("mu_fair must be non-negative")
        if not np.any(self.protected == 1) or not np.any(self.protected == 0):
            raise ValidationError("LFR needs both protected and unprotected samples")
        if n_prototypes < 1 or n_prototypes >= m:
            raise ValidationError("n_prototypes must be in [1, n_records)")
        self.a_x = float(a_x)
        self.a_y = float(a_y)
        self.a_z = float(a_z)
        self.n_prototypes = int(n_prototypes)
        self.mu_fair = float(mu_fair)
        self._mask1 = self.protected == 1
        self._mask0 = ~self._mask1
        # The GEMM kernels take column-major records and their square.
        self._Xt = np.ascontiguousarray(self.X.T)
        self._Xt_sq = self._Xt * self._Xt
        self._ws = kernels.Workspace()
        self._fair: Optional[kernels.LandmarkFairness] = None
        if self.mu_fair > 0.0:
            # LFR has no protected-column notion, so the individual-
            # fairness target distances use every attribute.
            n_land = min(m, 128) if n_landmarks is None else min(int(n_landmarks), m)
            idx = select_landmarks(
                self.X, n_land, method=landmark_method, random_state=random_state
            )
            self._fair = kernels.LandmarkFairness(self.X, idx, scale=m / idx.size)

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_params(self) -> int:
        """Packed parameters: [V.ravel(), alpha, w]."""
        return self.n_prototypes * self.n_features + self.n_features + self.n_prototypes

    def pack(self, V, alpha, w) -> np.ndarray:
        return np.concatenate(
            [np.asarray(V).ravel(), np.asarray(alpha).ravel(), np.asarray(w).ravel()]
        )

    def unpack(self, theta) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        theta = np.asarray(theta, dtype=np.float64).ravel()
        if theta.size != self.n_params:
            raise ValidationError(
                f"theta must have {self.n_params} entries, got {theta.size}"
            )
        k, n = self.n_prototypes, self.n_features
        V = theta[: k * n].reshape(k, n)
        alpha = theta[k * n : k * n + n]
        w = theta[k * n + n :]
        return V, alpha, w

    def _memberships(self, V, alpha) -> np.ndarray:
        """(M, K) memberships: the transposed view of the kernels' (K, M)
        result, which aliases the distance buffer."""
        d = kernels.weighted_sq_dists_gemm(
            self._Xt,
            V,
            alpha,
            x_sq=self._Xt_sq,
            out=self._ws.take("d", (V.shape[0], self.X.shape[0])),
        )
        return kernels.softmax_neg_inplace(d).T

    def _forward_parts(self, theta):
        """One membership evaluation feeding every loss component."""
        V, alpha, w = self.unpack(theta)
        U = self._memberships(V, alpha)
        X_hat = U @ V
        resid = X_hat - self.X
        l_x = float(np.sum(resid * resid))
        y_hat = np.clip(U @ w, _CLIP, 1.0 - _CLIP)
        l_y = float(
            -np.sum(self.y * np.log(y_hat) + (1.0 - self.y) * np.log(1.0 - y_hat))
        )
        gap = U[self._mask1].mean(axis=0) - U[self._mask0].mean(axis=0)
        l_z = float(np.sum(np.abs(gap)))
        return X_hat, l_x, l_y, l_z

    def forward(self, theta) -> Tuple[float, float, float]:
        """(L_x, L_y, L_z) — unweighted components."""
        _, l_x, l_y, l_z = self._forward_parts(theta)
        return l_x, l_y, l_z

    def loss(self, theta) -> float:
        X_hat, l_x, l_y, l_z = self._forward_parts(theta)
        total = self.a_x * l_x + self.a_y * l_y + self.a_z * l_z
        if self._fair is not None:
            total += self.mu_fair * self._fair.loss(X_hat)
        return total

    def loss_and_grad(self, theta) -> Tuple[float, np.ndarray]:
        """Analytic loss and gradient (sign subgradient for L_z)."""
        V, alpha, w = self.unpack(theta)
        U = self._memberships(V, alpha)
        m = self.X.shape[0]

        X_hat = U @ V
        resid = X_hat - self.X
        l_x = float(np.sum(resid * resid))

        y_lin = U @ w
        y_hat = np.clip(y_lin, _CLIP, 1.0 - _CLIP)
        l_y = float(
            -np.sum(self.y * np.log(y_hat) + (1.0 - self.y) * np.log(1.0 - y_hat))
        )

        mean1 = U[self._mask1].mean(axis=0)
        mean0 = U[self._mask0].mean(axis=0)
        gap = mean1 - mean0
        l_z = float(np.sum(np.abs(gap)))

        loss = self.a_x * l_x + self.a_y * l_y + self.a_z * l_z

        # --- gradient w.r.t. U (collect all three paths) ---
        G_x = 2.0 * self.a_x * resid  # dL/dX_hat
        if self._fair is not None:
            # Landmark individual-fairness extension, through X_hat.
            l_fair, g_fair = self._fair.loss_and_grad_x(X_hat)
            loss += self.mu_fair * l_fair
            g_fair *= self.mu_fair
            G_x = G_x + g_fair
        C = G_x @ V.T  # via X_hat = U V
        # L_y path: dL_y/dy_hat, zero where clipped.
        inside = (y_lin > _CLIP) & (y_lin < 1.0 - _CLIP)
        dLy_dyhat = np.where(
            inside, (y_hat - self.y) / (y_hat * (1.0 - y_hat)), 0.0
        )
        C += self.a_y * dLy_dyhat[:, None] * w[None, :]
        # L_z path: subgradient through the group means.
        sign = np.sign(gap)
        n1 = int(self._mask1.sum())
        n0 = m - n1
        Gz = np.where(self._mask1[:, None], sign[None, :] / n1, -sign[None, :] / n0)
        C += self.a_z * Gz

        # --- through the softmax and the distances (GEMM form) ---
        P = U * (C - np.sum(U * C, axis=1, keepdims=True))  # dL/d(-d) -> dL/ds
        grad_alpha, grad_V_dist = kernels.sq_dist_backward(
            P.T, self._Xt, V, alpha, x_sq=self._Xt_sq
        )
        grad_V = U.T @ G_x
        grad_V += grad_V_dist

        # --- w gradient ---
        grad_w = U.T @ (self.a_y * dLy_dyhat)

        return loss, np.concatenate([grad_V.ravel(), grad_alpha, grad_w])


@dataclass
class LFRRestart:
    """Diagnostics for one optimisation restart."""

    seed: int
    loss: float
    converged: bool


class LFR(ParamsMixin):
    """LFR estimator: representation + built-in classifier.

    Parameters mirror Zemel et al.: ``a_x``/``a_y``/``a_z`` weight
    reconstruction, accuracy and parity; ``n_prototypes`` is K.
    ``fit`` requires labels and a protected-group indicator — the very
    coupling iFair removes.  ``mu_fair > 0`` additionally enables the
    landmark individual-fairness regulariser (``n_landmarks`` anchors,
    seeded by ``landmark_method`` under ``random_state``); the default
    ``0`` is the classic objective.

    ``get_params(deep=True)`` / ``set_params`` follow the sklearn
    estimator protocol (see :class:`repro.learners.base.ParamsMixin`),
    so instances survive ``sklearn.base.clone``.
    """

    def __init__(
        self,
        n_prototypes: int = 10,
        a_x: float = 0.01,
        a_y: float = 1.0,
        a_z: float = 0.5,
        *,
        mu_fair: float = 0.0,
        n_landmarks: Optional[int] = None,
        landmark_method: str = "kmeans++",
        n_restarts: int = 3,
        max_iter: int = 200,
        tol: float = 1e-6,
        random_state: RandomStateLike = 0,
    ):
        if n_restarts < 1:
            raise ValidationError("n_restarts must be at least 1")
        self.n_prototypes = int(n_prototypes)
        self.a_x = float(a_x)
        self.a_y = float(a_y)
        self.a_z = float(a_z)
        self.mu_fair = float(mu_fair)
        self.n_landmarks = n_landmarks
        self.landmark_method = landmark_method
        self.n_restarts = int(n_restarts)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.random_state = random_state

        self.prototypes_: Optional[np.ndarray] = None
        self.alpha_: Optional[np.ndarray] = None
        self.label_weights_: Optional[np.ndarray] = None
        self.loss_: float = np.inf
        self.restarts_: List[LFRRestart] = []

    def fit(self, X, y, protected) -> "LFR":
        """Learn prototypes, weights, and label probabilities."""
        objective = LFRObjective(
            X,
            y,
            protected,
            a_x=self.a_x,
            a_y=self.a_y,
            a_z=self.a_z,
            n_prototypes=self.n_prototypes,
            mu_fair=self.mu_fair,
            n_landmarks=self.n_landmarks,
            landmark_method=self.landmark_method,
            random_state=self.random_state,
        )
        k, n = objective.n_prototypes, objective.n_features
        optimize = blas.import_scipy("optimize")
        bounds = optimize.Bounds(
            np.concatenate([np.full(k * n, -np.inf), np.zeros(n + k)]),
            np.concatenate([np.full(k * n + n, np.inf), np.ones(k)]),
        )
        best_loss, best_theta = np.inf, None
        self.restarts_ = []
        for seed in spawn_seeds(self.random_state, self.n_restarts):
            rng = check_random_state(seed)
            theta0 = objective.pack(
                rng.uniform(0, 1, size=(k, n)),
                rng.uniform(0, 1, size=n),
                rng.uniform(0, 1, size=k),
            )
            result = optimize.minimize(
                objective.loss_and_grad,
                theta0,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": self.max_iter, "gtol": self.tol},
            )
            self.restarts_.append(
                LFRRestart(seed=seed, loss=float(result.fun), converged=bool(result.success))
            )
            if result.fun < best_loss:
                best_loss, best_theta = float(result.fun), result.x
        self.prototypes_, self.alpha_, self.label_weights_ = objective.unpack(best_theta)
        self.loss_ = best_loss
        return self

    def _check_fitted(self) -> None:
        if self.prototypes_ is None:
            raise NotFittedError("LFR must be fitted before use")

    def memberships(self, X) -> np.ndarray:
        """Cluster probabilities U for new records."""
        self._check_fitted()
        X = check_matrix(X, "X")
        if X.shape[1] != self.prototypes_.shape[1]:
            raise ValidationError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.prototypes_.shape[1]}"
            )
        # Row-stable inference kernel: chunked evaluation of new
        # records stays bitwise equal to one-shot evaluation.
        d = weighted_minkowski_to_prototypes(X, self.prototypes_, self.alpha_, p=2.0)
        return softmax(-d, axis=1)

    def transform(self, X) -> np.ndarray:
        """Fair representation X_hat = U V."""
        return self.memberships(X) @ self.prototypes_

    def predict_proba(self, X) -> np.ndarray:
        """LFR's built-in classifier: y_hat = U w."""
        self._check_fitted()
        return np.clip(self.memberships(X) @ self.label_weights_, 0.0, 1.0)

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        """Hard labels from the built-in classifier."""
        return (self.predict_proba(X) >= threshold).astype(np.float64)
