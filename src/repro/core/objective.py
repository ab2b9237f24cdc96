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
With :math:`G = \partial L / \partial \tilde X`:

* utility part: :math:`2 \lambda (\tilde X - X)`;
* fairness part (full ordered-pair sum, :math:`E = \tilde D - D^*`,
  :math:`r_i = \sum_j E_{ij}`): :math:`8 \mu (r_i \tilde x_i - \sum_j
  E_{ij} \tilde x_j)`;
* through the linear map: :math:`\partial L/\partial V \mathrel{+}= U^T
  G` and :math:`C = G V^T`;
* through the softmax: :math:`P_{ik} = u_{ik} (C_{ik} - \sum_m u_{im}
  C_{im})` and :math:`\partial L / \partial d = -P`;
* through the distance: with ``diff = x_in - v_kn``,
  :math:`\partial L/\partial v_{kn} \mathrel{+}= p\,\alpha_n \sum_i
  P_{ik}\,\mathrm{sign}(diff)\,|diff|^{p-1}` and
  :math:`\partial L/\partial \alpha_n = -\sum_{ik} P_{ik} |diff|^p`.

All of this is verified against central finite differences by the
property tests in ``tests/property/test_gradients.py``.

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
* the pair mode's fairness kernel adds its loss and
  :math:`\mu\,\partial L_{fair} / \partial \tilde X` into ``G`` from
  one place (``add_grad``).

The large ``(M, K)`` and ``(M, N)`` intermediates live in a
thread-local workspace reused across L-BFGS evaluations.  The einsum
formulas above, with a dense ``(M, M)`` target ``D*``, survive only in
``tests/`` as the test oracle the property tests hold this path to at
``rtol = 1e-10``.

Pair modes (large-M fairness oracle)
------------------------------------
``pair_mode`` selects how the fairness term sums record pairs:

* ``"full"`` — every ordered pair, in moment form
  (:class:`repro.utils.kernels.FullPairFairness`): ``O(M * N^2)`` per
  call and no ``(M, M)`` matrix, at every ``p``.
* ``"sampled"`` — ``max_pairs`` unordered pairs drawn once at
  construction, gathered and scattered through a sparse incidence
  operator (:class:`repro.utils.kernels.PairScatter`,
  ``O(max_pairs * N)`` per call).
* ``"landmark"`` — the full-pair loss approximated through ``L << M``
  landmark anchors (:class:`repro.utils.kernels.LandmarkFairness`,
  seeded by k-means++ or farthest-point traversal under
  ``random_state``).  Each oracle call costs ``O(M * L * N)`` and never
  materialises an ``(M, M)`` matrix.  The loss is scaled by ``M / L``
  so it estimates the full ordered-pair sum — ``mu_fair`` keeps one
  meaning across modes (see :attr:`IFairObjective.effective_pairs`) —
  and at ``L = M`` it equals the full-pair loss exactly.

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
from repro.utils.landmarks import LANDMARK_METHODS, select_landmarks
from repro.utils.mathkit import softmax

PAIR_MODES = ("auto", "full", "sampled", "landmark")
from repro.utils.rng import RandomStateLike, check_random_state
from repro.utils.validation import (
    check_matrix,
    check_protected_indices,
    nonprotected_indices,
)


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
        ``"full"``, ``"sampled"``, or ``"landmark"`` (see module
        docstring).
    n_landmarks:
        Anchor count L for ``pair_mode="landmark"``; defaults to
        ``min(M, 128)``.  Capped at M; at ``L = M`` the landmark loss
        equals the full-pair loss.
    landmark_method:
        ``"kmeans++"`` (default) or ``"farthest"`` anchor seeding.
    landmarks:
        Explicit anchor row indices (distinct); overrides
        ``n_landmarks``/``landmark_method``.  Stored sorted, so anchor
        ordering never affects results.
    random_state:
        Seeds the pair subsample and the landmark selection only.
    precompute:
        ``True`` (default) builds the oracle's support structures
        (pair subsample, landmark selection, moment statistics) at
        construction.  ``False`` defers them until the first loss
        evaluation: every parameter is still validated eagerly, so a
        parent process can construct-and-validate the oracle cheaply
        while worker processes (which rebuild it from the same inputs,
        or reuse a cached one) do the actual computing.
    """

    DEFAULT_LANDMARKS = 128

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
        n_landmarks: Optional[int] = None,
        landmark_method: str = "kmeans++",
        landmarks=None,
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
        if landmark_method not in LANDMARK_METHODS:
            raise ValidationError(
                f"landmark_method must be one of {LANDMARK_METHODS}, "
                f"got {landmark_method!r}"
            )
        if pair_mode != "landmark" and (n_landmarks is not None or landmarks is not None):
            raise ValidationError(
                "n_landmarks/landmarks only apply to pair_mode='landmark'"
            )
        self.pair_mode = pair_mode
        self.landmark_method = landmark_method
        self.lambda_util = float(lambda_util)
        self.mu_fair = float(mu_fair)
        self.n_prototypes = int(n_prototypes)
        self.p = float(p)
        self._ws = kernels.Workspace()

        # Remaining validation stays eager even when the (possibly
        # expensive) support structures are deferred — a bad parameter
        # must raise here, in the constructing process, not inside a
        # worker.
        explicit_landmarks = None
        resolved_landmarks = None
        if pair_mode == "sampled":
            if max_pairs < 1:
                raise ValidationError("max_pairs must be positive")
        elif pair_mode == "landmark":
            if landmarks is not None:
                explicit_landmarks = np.asarray(landmarks, dtype=np.int64).ravel()
                if explicit_landmarks.size != np.unique(explicit_landmarks).size:
                    raise ValidationError("landmark indices must be distinct")
                if (
                    explicit_landmarks.size < 1
                    or explicit_landmarks.min() < 0
                    or explicit_landmarks.max() >= m
                ):
                    raise ValidationError("landmark indices out of range")
            else:
                resolved_landmarks = (
                    min(m, self.DEFAULT_LANDMARKS)
                    if n_landmarks is None
                    else int(n_landmarks)
                )
                if resolved_landmarks < 1:
                    raise ValidationError("n_landmarks must be at least 1")
                resolved_landmarks = min(resolved_landmarks, m)
        self._precompute_args = (
            max_pairs,
            explicit_landmarks,
            resolved_landmarks,
            random_state,
        )

        self._X_sq: Optional[np.ndarray] = None
        # The pair mode's fairness kernel (FullPairFairness, PairScatter
        # or LandmarkFairness): ``loss`` and ``add_grad``.
        self._fair = None
        self._anchor_cache: Optional[np.ndarray] = None
        self._ready = False
        if precompute:
            self.ensure_ready()

    def _anchor_indices(self) -> np.ndarray:
        """Sorted anchor row indices of landmark mode (cached).

        Much cheaper than :meth:`ensure_ready`: only the anchor
        *selection* runs, not the fairness-kernel precompute — the
        parent of a process-parallel fit needs the indices (for
        ``IFair.landmarks_``) but never evaluates the loss.
        """
        if self._anchor_cache is None:
            _, explicit_landmarks, n_land, random_state = self._precompute_args
            if explicit_landmarks is not None:
                idx = explicit_landmarks
            else:
                with get_tracer().span(
                    "fit.landmark_select",
                    n_records=int(self.X.shape[0]),
                    method=self.landmark_method,
                ):
                    idx = select_landmarks(
                        self.X[:, self.nonprotected],
                        n_land,
                        method=self.landmark_method,
                        random_state=random_state,
                    )
            self._anchor_cache = np.sort(np.asarray(idx, dtype=np.int64))
        return self._anchor_cache

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
        max_pairs, _, _, random_state = self._precompute_args
        # X is fixed for the objective's lifetime, so its elementwise
        # square (used by the p = 2 GEMM forward and grad_alpha) is
        # computed once.  Workspace buffers are thread-local, so one
        # objective can serve parallel restarts.
        self._X_sq = self.X * self.X if self.p == 2.0 else None
        X_star = self.X[:, self.nonprotected]
        if self.pair_mode == "full":
            # Moment form: O(M + N^2) precomputed X* statistics, no
            # (M, M) target matrix.
            self._fair = kernels.FullPairFairness(X_star)
        elif self.pair_mode == "sampled":
            rng = check_random_state(random_state)
            total = m * (m - 1) // 2
            n_pairs = min(int(max_pairs), total)
            # Sample unordered pairs without replacement via flat indices.
            flat = rng.choice(total, size=n_pairs, replace=False)
            ii, jj = _triu_unravel(flat, m)
            self._fair = kernels.PairScatter(ii, jj, X_star)
        else:  # landmark
            idx = self._anchor_indices()
            # Scale M/L makes the landmark sum estimate the full
            # ordered-pair sum, so mu_fair transfers across modes.
            self._fair = kernels.LandmarkFairness(X_star, idx, scale=m / idx.size)

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
        """Ordered-pair count the fairness loss represents.

        ``full`` and ``landmark`` both report ``M^2`` — the landmark
        loss is rescaled by ``M / L`` to estimate the full ordered-pair
        sum, so a given ``mu_fair`` carries the same weight in either
        mode.  ``sampled`` reports the raw sampled-pair count (the
        historical, unscaled semantics).
        """
        m = self.X.shape[0]
        if self.pair_mode == "sampled":
            self.ensure_ready()
            return self._fair.n_pairs
        return m * m

    @property
    def n_landmarks(self) -> Optional[int]:
        """Anchor count L in landmark mode, else ``None``."""
        if self.pair_mode != "landmark":
            return None
        return int(self._anchor_indices().size)

    @property
    def landmark_indices(self) -> Optional[np.ndarray]:
        """Sorted anchor row indices in landmark mode, else ``None``."""
        if self.pair_mode != "landmark":
            return None
        return self._anchor_indices()

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
        """d[i, k] = sum_n alpha_n |x_in - v_kn|^p, shape (M, K).

        The returned array is a reusable workspace buffer — copy it
        before the next oracle call if it must survive.
        """
        self.ensure_ready()
        m, k = self.X.shape[0], V.shape[0]
        return kernels.minkowski_dists(
            self.X, V, alpha, self.p, x_sq=self._X_sq, out=self._ws.take("d", (m, k))
        )

    def memberships(self, V: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Probability vectors U = softmax(-d) of Definition 8."""
        return softmax(-self._distances(V, alpha), axis=1)

    def transform(self, V: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Transformed representation X-tilde = U V (Definition 2)."""
        return self.memberships(V, alpha) @ V

    def loss_components(self, theta: np.ndarray) -> Tuple[float, float]:
        """(L_util, L_fair) at ``theta`` — unweighted by lambda/mu."""
        V, alpha = self.unpack(theta)
        X_tilde = self.transform(V, alpha)
        resid = self.X - X_tilde
        l_util = float(np.sum(resid * resid))
        return l_util, self._fair.loss(X_tilde)

    def loss(self, theta: np.ndarray) -> float:
        """Combined objective L(theta) of Definition 6."""
        l_util, l_fair = self.loss_components(theta)
        return self.lambda_util * l_util + self.mu_fair * l_fair

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------

    def loss_and_grad(self, theta: np.ndarray) -> Tuple[float, np.ndarray]:
        """Loss and analytic gradient w.r.t. the packed parameters.

        One path for every ``p`` and pair mode (see module docstring).
        All (M, K)- and (M, N)-sized intermediates live in reusable
        thread-local workspace buffers; the returned gradient is a
        fresh array (L-BFGS keeps a history of it).
        """
        V, alpha = self.unpack(theta)
        X = self.X
        m, n = X.shape
        k = V.shape[0]
        ws = self._ws

        d = self._distances(V, alpha)
        U = kernels.softmax_neg_inplace(d)  # aliases d's buffer
        X_tilde = np.matmul(U, V, out=ws.take("x_tilde", (m, n)))
        resid = np.subtract(X_tilde, X, out=ws.take("resid", (m, n)))
        l_util = float(np.einsum("mn,mn->", resid, resid))

        # dL/dX_tilde from both loss terms.
        G = np.multiply(2.0 * self.lambda_util, resid, out=ws.take("g", (m, n)))
        l_fair = self._fair.add_grad(X_tilde, G, self.mu_fair)
        loss = self.lambda_util * l_util + self.mu_fair * l_fair

        # Through X_tilde = U V (grad_V before P overwrites C's buffer).
        grad_V = U.T @ G  # (K, N)
        C = np.matmul(G, V.T, out=ws.take("c", (m, k)))
        # Softmax Jacobian: P = U * (C - rowsum(U * C)), in C's buffer.
        C -= np.einsum("mk,mk->m", U, C)[:, None]
        C *= U
        grad_alpha, grad_V_dist = kernels.minkowski_backward(
            C, X, V, alpha, self.p, x_sq=self._X_sq
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
