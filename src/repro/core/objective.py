r"""The iFair loss (Definitions 4-6, 9) with fully analytic gradients.

Forward pass
------------
Given records ``X`` (M x N), prototypes ``V`` (K x N) and attribute
weights ``alpha`` (N,):

.. math::

    d_{ik}      &= \sum_n \alpha_n |x_{in} - v_{kn}|^p           \\
    u_{ik}      &= \mathrm{softmax}_k(-d_{ik})                   \\
    \tilde X    &= U V                                            \\
    L_{util}    &= \sum_{i,n} (x_{in} - \tilde x_{in})^2          \\
    L_{fair}    &= \sum_{i,j} (\tilde D_{ij} - D^*_{ij})^2        \\
    L           &= \lambda L_{util} + \mu L_{fair}

where :math:`\tilde D_{ij} = \|\tilde x_i - \tilde x_j\|^2` and
:math:`D^*_{ij} = \|x^*_i - x^*_j\|^2` is the (precomputed) squared
Euclidean distance on the *non-protected* attributes of the original
records.  ``alpha`` thus parameterises only the clustering softmax;
the fairness target uses unit weights (see DESIGN.md section 4).

Backward pass
-------------
:math:`\tilde X = U V` has rank ``K``, so the gradient through it is
contracted in K-space; no ``(M, N)`` gradient is formed.

* **Centred records.**  The column means :math:`\bar x` of ``X`` are
  computed once, with :math:`X_c = X - \mathbf 1 \bar x^T` and its
  elementwise square.  Each call moves the prototypes alongside,
  :math:`V' = V - \mathbf 1 \bar x^T`.  Distances are
  translation-invariant, so the distance kernels run on
  :math:`(X_c, V')`; and the rows of ``U`` sum to 1, so
  :math:`\tilde X - X = U V' - X_c`.  Centring is what keeps the
  gradient accurate on records far from the origin.
* **The utility loss** stays a direct residual on the raw records,
  :math:`R = U V - X` in one workspace buffer and
  :math:`L_{util} = \langle R, R \rangle`: it keeps full relative
  accuracy as :math:`\tilde X \to X`, where a Gram expansion would
  cancel.
* **Through** :math:`\tilde X = U V`.  With
  :math:`T = U^T X_c` (``K x N``), :math:`V_c` = :math:`V'` minus its
  mean row and :math:`A = V_c V_c^T`, the utility term adds
  :math:`2 \lambda (U^T U V' - T)` to :math:`\partial L / \partial V`
  and :math:`2 \lambda (U (V' V_c^T) - X_c V_c^T)` to
  :math:`C = \partial L / \partial U`.  ``C`` may drop any constant per
  row, because the softmax Jacobian cancels it, so :math:`V_c` stands
  in for ``V`` there.  The pair mode's fairness kernel adds its own
  K-space pieces (:mod:`repro.utils.kernels`, "Fairness terms"), and
  every :math:`X_c`-side term of ``C`` goes through one product
  :math:`X_c Q^T`.
* **Through the softmax:** :math:`P_{ik} = u_{ik} (C_{ik} - \sum_m
  u_{im} C_{im})` and :math:`\partial L / \partial d = -P`.
* **Through the distance:** with ``diff = x_in - v_kn``,
  :math:`\partial L/\partial v_{kn} \mathrel{+}= p\,\alpha_n \sum_i
  P_{ik}\,\mathrm{sign}(diff)\,|diff|^{p-1}` and
  :math:`\partial L/\partial \alpha_n = -\sum_{ik} P_{ik} |diff|^p`,
  evaluated on :math:`(P, X_c, V')`.

So a call makes three products against :math:`X_c` (:math:`U^T X_c`,
:math:`X_c Q^T` and :math:`P^T X_c`) besides the distance forward and
the residual.  All of this is verified against central finite
differences by the property tests in ``tests/property/test_gradients.py``.

Layout
------
The formulas read ``U``, ``C`` and ``P`` as ``M x K``, as the paper
does.  The oracle stores them K-major: the centred records are held
once, column-major, as the ``(N, M)`` C-contiguous array
:math:`X_c^T` (with its square at ``p = 2``), in place of a row-major
copy, and the distances, ``U``, ``C``/``P`` and the fairness kernels'
``(M, K)``-shaped terms are ``(K, M)`` C-contiguous workspace buffers.
So every record-side product is a ``(K, .) x (., M)`` GEMM and every
sum over ``K`` adds ``K`` contiguous rows (the kernels module
docstring, "Layout", has the measurements).  The residual ``R`` stays
the one ``(M, N)`` buffer, filled through the transposed view of
``U``.  The softmax zeroes memberships below the smallest normal
float64, which keeps the products off the CPU's subnormal path without
moving any sum (:func:`repro.utils.kernels.softmax_neg_inplace`).
:meth:`IFairObjective.memberships` and :meth:`~IFairObjective.transform`
still return ``(M, K)`` and ``(M, N)`` values.

One oracle path
---------------
Only :math:`d_{ik}` depends on ``p``; :math:`L_{fair}` is
squared-Euclidean on :math:`\tilde X` for every ``p``.  So
:meth:`IFairObjective.loss_and_grad` has one body, built from the
kernels of :mod:`repro.utils.kernels`:

* the distance forward and backward
  (:func:`~repro.utils.kernels.minkowski_dists`,
  :func:`~repro.utils.kernels.minkowski_backward`) take the GEMM
  expansion at ``p = 2`` and the row-blocked Minkowski kernels
  otherwise — no ``(M, K, N)`` tensor at any ``p``;
* the pair mode's fairness kernel is called once, as
  ``loss_row_grad(U, V_c, A, W)`` with :math:`W = U^T X^*_c` (the
  non-protected columns of ``T``), and returns its loss,
  :math:`\partial L_{fair} / \partial V`, its part of ``C`` and the
  :math:`X^*`-side coefficient folded into ``Q`` — ``K``-sized pieces
  only, so no oracle call forms an ``(M, N)`` gradient.

:meth:`IFairObjective.loss_components` runs the same forward and the
same kernel call, so ``loss(theta)`` equals ``loss_and_grad(theta)[0]``.
The ``(K, M)`` intermediates and the residual live in thread-local
workspaces reused across L-BFGS evaluations.  The einsum formulas
above, with a dense ``(M, M)`` target ``D*``, survive only in
``tests/`` as the test oracle the property tests hold this path to at
``rtol = 1e-10``.

Pair modes
----------
``pair_mode`` selects how the fairness term sums record pairs:

* ``"full"`` — every ordered pair, in centred K-space form on the
  memberships ``U`` and prototypes ``V``
  (:class:`repro.utils.kernels.FullPairFairness`):
  ``O(M * K * (N* + K))`` per call and no ``(M, M)`` matrix, at every
  ``p``.
* ``"sampled"`` — ``max_pairs`` unordered pairs drawn once at
  construction, gathered and scattered through a sparse incidence
  operator (:class:`repro.utils.kernels.PairScatter`,
  ``O(max_pairs * K^2)`` per call).

``pair_mode="auto"`` (the default) preserves the historical
behaviour: ``"sampled"`` when ``max_pairs`` is given, else ``"full"``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import get_tracer
from repro.utils import kernels
from repro.utils.mathkit import softmax
from repro.utils.rng import RandomStateLike, check_random_state
from repro.utils.validation import (
    check_matrix,
    check_protected_indices,
    nonprotected_indices,
)

PAIR_MODES = ("auto", "full", "sampled")


class IFairObjective:
    """Loss/gradient oracle for one training matrix.

    Parameters
    ----------
    X:
        Training records, shape (M, N).
    protected_indices:
        Column indices of protected attributes (may be empty/None).
    lambda_util, mu_fair:
        Mixture coefficients of Definition 6.
    n_prototypes:
        K, the number of prototype vectors.
    p:
        Minkowski exponent of the softmax distance (p >= 1).
    max_pairs:
        Optional cap on the number of (unordered) record pairs used by
        the fairness loss.  ``None`` uses the full ordered-pair sum;
        otherwise pairs are sampled once at construction.
    pair_mode:
        ``"auto"`` (default: ``"sampled"`` iff ``max_pairs`` is set),
        ``"full"`` or ``"sampled"`` (see module docstring).
    random_state:
        Seeds the pair subsample only.
    precompute:
        ``True`` (default) builds the oracle's support structures
        (centred records, pair subsample, centred ``X*``) at
        construction.  ``False`` defers them until the first loss
        evaluation: every parameter is still validated eagerly, so a
        parent process can construct-and-validate the oracle cheaply
        while worker processes (which rebuild it from the same inputs,
        or reuse a cached one) do the actual computing.
    """

    def __init__(
        self,
        X,
        protected_indices=None,
        *,
        lambda_util: float = 1.0,
        mu_fair: float = 1.0,
        n_prototypes: int = 10,
        p: float = 2.0,
        max_pairs: Optional[int] = None,
        pair_mode: str = "auto",
        random_state: RandomStateLike = 0,
        precompute: bool = True,
    ):
        self.X = check_matrix(X, "X")
        m, n = self.X.shape
        self.protected = check_protected_indices(protected_indices, n)
        self.nonprotected = nonprotected_indices(self.protected, n)
        if self.nonprotected.size == 0:
            raise ValidationError("at least one non-protected attribute is required")
        if lambda_util < 0 or mu_fair < 0:
            raise ValidationError("lambda_util and mu_fair must be non-negative")
        if n_prototypes < 1:
            raise ValidationError("n_prototypes must be at least 1")
        if n_prototypes >= m:
            raise ValidationError(
                f"n_prototypes must be < number of records ({m}) for a low-rank map"
            )
        if p < 1:
            raise ValidationError("Minkowski exponent p must be >= 1")
        if pair_mode not in PAIR_MODES:
            raise ValidationError(
                f"pair_mode must be one of {PAIR_MODES}, got {pair_mode!r}"
            )
        if pair_mode == "auto":
            pair_mode = "sampled" if max_pairs is not None else "full"
        if pair_mode == "sampled" and max_pairs is None:
            raise ValidationError("pair_mode='sampled' requires max_pairs")
        if pair_mode != "sampled" and max_pairs is not None:
            raise ValidationError(
                f"max_pairs only applies to pair_mode='sampled', not {pair_mode!r}"
            )
        if pair_mode == "sampled" and max_pairs < 1:
            # Eager even when the support structures are deferred: a bad
            # parameter must raise here, in the constructing process,
            # not inside a worker.
            raise ValidationError("max_pairs must be positive")
        self.pair_mode = pair_mode
        self.lambda_util = float(lambda_util)
        self.mu_fair = float(mu_fair)
        self.n_prototypes = int(n_prototypes)
        self.p = float(p)
        self._ws = kernels.Workspace()
        self._precompute_args = (max_pairs, random_state)

        # Centred records X_c, held column-major as X_c^T (N, M), their
        # column means and (p = 2 only) the square of X_c^T.
        self._Xt: Optional[np.ndarray] = None
        self._x_mean: Optional[np.ndarray] = None
        self._Xt_sq: Optional[np.ndarray] = None
        # The pair mode's fairness kernel (FullPairFairness or
        # PairScatter), called as ``loss_row_grad``.
        self._fair = None
        self._ready = False
        if precompute:
            self.ensure_ready()

    def ensure_ready(self) -> None:
        """Build the oracle support structures (idempotent).

        Called automatically by every compute path, so a deferred
        objective (``precompute=False``) pays the cost on first use —
        or never, when a parent constructs it only for validation and
        shape bookkeeping while workers evaluate their own copies.
        A failed build leaves the objective un-ready, so a retry
        re-raises the real cause instead of dereferencing
        half-initialised structures.
        """
        if self._ready:
            return
        get_registry().counter("fit_oracle_builds_total").inc()
        with get_tracer().span(
            "fit.build_oracle",
            n_records=int(self.X.shape[0]),
            pair_mode=self.pair_mode,
        ):
            self._build_support()
        self._ready = True

    def _build_support(self) -> None:
        m = self.X.shape[0]
        max_pairs, random_state = self._precompute_args
        # X is fixed for the objective's lifetime, so it is centred once,
        # column-major (N, M), and the elementwise square the p = 2 GEMM
        # forward and grad_alpha use is taken of the centred records.
        # Workspace buffers are thread-local, so one objective can serve
        # several threads.
        self._x_mean = self.X.mean(axis=0)
        self._Xt = np.subtract(
            self.X.T, self._x_mean[:, None], out=np.empty((self.X.shape[1], m))
        )
        self._Xt_sq = self._Xt * self._Xt if self.p == 2.0 else None
        X_star = self.X[:, self.nonprotected]
        if self.pair_mode == "full":
            # Centred X* and its Gram norm; no (M, M) target matrix.
            self._fair = kernels.FullPairFairness(X_star)
        else:  # sampled
            rng = check_random_state(random_state)
            total = m * (m - 1) // 2
            n_pairs = min(int(max_pairs), total)
            # Sample unordered pairs without replacement via flat indices.
            flat = rng.choice(total, size=n_pairs, replace=False)
            ii, jj = _triu_unravel(flat, m)
            self._fair = kernels.PairScatter(ii, jj, X_star)

    # ------------------------------------------------------------------
    # Parameter packing
    # ------------------------------------------------------------------

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_params(self) -> int:
        """Size of the packed parameter vector [V.ravel(), alpha]."""
        return self.n_prototypes * self.n_features + self.n_features

    @property
    def effective_pairs(self) -> int:
        """Pair count the fairness loss sums.

        ``full`` reports ``M^2`` ordered pairs; ``sampled`` reports the
        raw sampled-pair count (the historical, unscaled semantics).
        """
        m = self.X.shape[0]
        if self.pair_mode == "sampled":
            self.ensure_ready()
            return self._fair.n_pairs
        return m * m

    def pack(self, V: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Concatenate prototypes and weights into one flat vector."""
        V = check_matrix(V, "V")
        if V.shape != (self.n_prototypes, self.n_features):
            raise ValidationError(
                f"V must have shape {(self.n_prototypes, self.n_features)}, got {V.shape}"
            )
        alpha = np.asarray(alpha, dtype=np.float64).ravel()
        if alpha.shape != (self.n_features,):
            raise ValidationError(f"alpha must have shape ({self.n_features},)")
        return np.concatenate([V.ravel(), alpha])

    def unpack(self, theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`pack`."""
        theta = np.asarray(theta, dtype=np.float64).ravel()
        if theta.size != self.n_params:
            raise ValidationError(
                f"theta must have {self.n_params} entries, got {theta.size}"
            )
        split = self.n_prototypes * self.n_features
        V = theta[:split].reshape(self.n_prototypes, self.n_features)
        alpha = theta[split:]
        return V, alpha

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------

    def _distances(self, V: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """d[k, i] = sum_n alpha_n |x_in - v_kn|^p, shape (K, M).

        Evaluated on the centred records and prototypes (distances are
        translation-invariant).  The returned array is a reusable
        workspace buffer — copy it before the next oracle call if it
        must survive.
        """
        self.ensure_ready()
        m, k = self.X.shape[0], V.shape[0]
        return kernels.minkowski_dists(
            self._Xt,
            V - self._x_mean,
            alpha,
            self.p,
            x_sq=self._Xt_sq,
            out=self._ws.take("d", (k, m)),
        )

    def memberships(self, V: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Probability vectors U = softmax(-d) of Definition 8, shape (M, K)."""
        return softmax(-self._distances(V, alpha), axis=0).T

    def transform(self, V: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Transformed representation X-tilde = U V (Definition 2)."""
        return self.memberships(V, alpha) @ V

    def _forward(self, V: np.ndarray, alpha: np.ndarray):
        """The forward pass both losses and the gradient share.

        Returns ``(U, V', V_c, A, T, l_util, fair)``, where ``U`` is the
        ``(K, M)`` memberships (it aliases the distance buffer) and
        ``fair`` the fairness kernel's ``(loss, dL/dV, dL/dU part, Q)``
        (module docstring).
        """
        self.ensure_ready()
        m, n = self.X.shape
        Vp = V - self._x_mean
        U = kernels.softmax_neg_inplace(self._distances(V, alpha))
        R = np.matmul(U.T, V, out=self._ws.take("resid", (m, n)))
        R -= self.X
        r = R.ravel()
        l_util = float(r @ r)
        Vc = Vp - Vp.mean(axis=0)
        A = Vc @ Vc.T
        T = U @ self._Xt.T
        fair = self._fair.loss_row_grad(U, Vc, A, T[:, self.nonprotected])
        return U, Vp, Vc, A, T, l_util, fair

    def loss_components(self, theta: np.ndarray) -> Tuple[float, float]:
        """(L_util, L_fair) at ``theta`` — unweighted by lambda/mu."""
        V, alpha = self.unpack(theta)
        *_, l_util, fair = self._forward(V, alpha)
        return l_util, fair[0]

    def loss(self, theta: np.ndarray) -> float:
        """Combined objective L(theta) of Definition 6."""
        l_util, l_fair = self.loss_components(theta)
        return self.lambda_util * l_util + self.mu_fair * l_fair

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------

    def loss_and_grad(self, theta: np.ndarray) -> Tuple[float, np.ndarray]:
        """Loss and analytic gradient w.r.t. the packed parameters.

        One path for every ``p`` and pair mode, contracted in K-space
        (see module docstring).  The (K, M)-sized intermediates and the
        residual live in reusable thread-local workspace buffers; the
        returned gradient is a fresh array (L-BFGS keeps a history of
        it).
        """
        V, alpha = self.unpack(theta)
        m, k = self.X.shape[0], V.shape[0]
        ws = self._ws
        U, Vp, Vc, A, T, l_util, fair = self._forward(V, alpha)
        l_fair, grad_V_fair, C_fair, Q_fair = fair
        lam2, mu = 2.0 * self.lambda_util, self.mu_fair
        loss = self.lambda_util * l_util + mu * l_fair

        # Through X_tilde = U^T V: grad_V = U G and C = V G^T for
        # G = 2 lambda R + mu dL_fair/dX_tilde, in K-space.
        grad_V = (U @ U.T) @ Vp
        grad_V -= T
        grad_V *= lam2
        grad_V += mu * grad_V_fair
        Q = lam2 * Vc
        if Q_fair is not None:
            Q[:, self.nonprotected] += mu * Q_fair
        C = np.matmul(lam2 * (Vc @ Vp.T), U, out=ws.take("c", (k, m)))
        C_fair *= mu
        C += C_fair
        C -= np.matmul(Q, self._Xt, out=ws.take("xq", (k, m)))
        # Softmax Jacobian: P = U * (C - colsum(U * C)), in C's buffer.
        C -= np.einsum("km,km->m", U, C)
        C *= U
        grad_alpha, grad_V_dist = kernels.minkowski_backward(
            C, self._Xt, Vp, alpha, self.p, x_sq=self._Xt_sq
        )
        grad_V += grad_V_dist
        return loss, np.concatenate([grad_V.ravel(), grad_alpha])


def _triu_unravel(flat: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Map flat indices 0..m*(m-1)/2-1 to (i, j) with i < j.

    Uses the closed-form inverse of the row-major strict-upper-triangle
    enumeration, so sampling pairs never materialises the full list.
    """
    flat = np.asarray(flat, dtype=np.int64)
    # Row i starts at offset i*m - i*(i+1)/2 - ... solve the quadratic.
    # count(i) = i*(2m - i - 1)/2 pairs precede row i.
    i = (2 * m - 1 - np.sqrt((2 * m - 1) ** 2 - 8 * flat)) // 2
    i = i.astype(np.int64)
    start = i * (2 * m - i - 1) // 2
    j = flat - start + i + 1
    return i, j.astype(np.int64)
