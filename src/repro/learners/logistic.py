"""L2-regularised logistic regression trained with L-BFGS.

This is the "standard classifier" the paper applies to every data
representation (Section V-B).  The implementation minimises the mean
cross-entropy plus an L2 penalty on the weights (never the intercept)
with analytic gradients.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.learners.base import Classifier
from repro.utils import blas
from repro.utils.mathkit import sigmoid
from repro.utils.validation import check_binary_labels, check_matrix


class LogisticRegression(Classifier):
    """Binary logistic regression.

    Parameters
    ----------
    l2:
        Strength of the L2 penalty on the weight vector (not the
        intercept).  ``0`` disables regularisation.
    max_iter:
        L-BFGS iteration budget.
    tol:
        L-BFGS gradient tolerance.
    """

    def __init__(self, l2: float = 1.0, max_iter: int = 500, tol: float = 1e-8):
        if l2 < 0:
            raise ValidationError("l2 must be non-negative")
        self.l2 = float(l2)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    @staticmethod
    def _loss_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float):
        """Mean log-loss and gradient for packed params [intercept, w]."""
        intercept, w = theta[0], theta[1:]
        z = X @ w + intercept
        p = sigmoid(z)
        eps = 1e-12
        loss = -np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps))
        loss += 0.5 * l2 * np.dot(w, w) / X.shape[0]
        residual = (p - y) / X.shape[0]
        grad = np.empty_like(theta)
        grad[0] = residual.sum()
        grad[1:] = X.T @ residual + l2 * w / X.shape[0]
        return loss, grad

    def fit(self, X, y) -> "LogisticRegression":
        X = check_matrix(X, "X")
        y = check_binary_labels(y, "y", length=X.shape[0])
        theta0 = np.zeros(X.shape[1] + 1)
        result = blas.import_scipy("optimize").minimize(
            self._loss_grad,
            theta0,
            args=(X, y, self.l2),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        self.intercept_ = float(result.x[0])
        self.coef_ = result.x[1:].copy()
        self._fitted = True
        return self

    def decision_function(self, X) -> np.ndarray:
        """Raw linear scores ``X @ w + b``.

        Computed as an ``einsum`` so each row's score depends on that
        row alone, whatever the number of rows (BLAS GEMV bits do not).
        """
        self._check_fitted()
        X = check_matrix(X, "X")
        if X.shape[1] != self.coef_.shape[0]:
            raise ValidationError(
                f"X has {X.shape[1]} features, model was fitted with {self.coef_.shape[0]}"
            )
        return np.einsum("mk,k->m", X, self.coef_) + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """P(y=1 | x) for each row."""
        return sigmoid(self.decision_function(X))
