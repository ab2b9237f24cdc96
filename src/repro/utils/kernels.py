r"""Kernels of the iFair oracle: one distance path, three fairness terms.

The iFair objective (:mod:`repro.core.objective`) spends almost all of
its time on the record-prototype distance matrix
``d[i, k] = sum_n alpha_n |x_in - v_kn|^p`` and its gradients.  Only
this distance depends on the Minkowski exponent ``p``; the fairness
term is squared-Euclidean on :math:`\tilde X` for every ``p``.  So the
module has one distance forward and one distance backward:

* :func:`minkowski_dists` — the GEMM expansion
  (:func:`weighted_sq_dists_gemm`) at ``p = 2``, the row-blocked
  tensor form (:func:`minkowski_dists_blocked`) otherwise;
* :func:`minkowski_backward` — :func:`sq_dist_backward` at ``p = 2``,
  :func:`minkowski_backward_blocked` otherwise.

No ``(M, K, N)`` tensor exists on either side: the GEMM forms build
none, and the blocked forms cap theirs at ``(B, K, N)``.

GEMM expansion (``p = 2``)
--------------------------

.. math::

    d_{ik} = \sum_n \alpha_n (x_{in} - v_{kn})^2
           = (X^{\circ 2} \alpha)_i
             - 2\,\bigl(X (\alpha \circ V)^T\bigr)_{ik}
             + (V^{\circ 2} \alpha)_k

where :math:`X^{\circ 2}` is the elementwise square: one ``(M, K)``
GEMM plus two matrix-vector products.  With ``P = dL/d(-d)`` (the
softmax-Jacobian product, shape ``(M, K)``) the backward pass is

.. math::

    \frac{\partial L}{\partial v_{kn}}\Big|_{dist}
        &= 2 \alpha_n \bigl[(P^T X)_{kn} - \mathrm{colsum}(P)_k v_{kn}\bigr] \\
    \frac{\partial L}{\partial \alpha_n}
        &= -\bigl[\mathrm{rowsum}(P)^T X^{\circ 2}
                  - 2 \textstyle\sum_k (P^T X \circ V)_{kn}
                  + \mathrm{colsum}(P)^T V^{\circ 2}\bigr]_n

so it shares a single ``(K, N)`` GEMM (:math:`P^T X`).  Inference
paths with an exact-chunking guarantee (``IFair.memberships(
batch_size=...)``, serving) use :func:`weighted_sq_dists_rowstable`
instead: the same expansion through ``np.einsum`` loops whose per-row
results do not depend on the batch height.

Fairness terms
--------------
Each pair mode of the objective has one fairness kernel, and both
share one call on the factors of :math:`\tilde X = U V`, in the
objective's centred coordinates: ``loss_row_grad(U, Vc, A, W)`` with
the memberships ``U`` (rows summing to 1), the row-centred prototypes
``Vc``, their Gram ``A = Vc Vc^T`` and ``W = U^T X*_c`` (``K x N*``),
returning ``(loss, grad_V, dU, Q)``:

* ``grad_V`` — :math:`\partial L_{fair} / \partial V` (``K x N``);
* ``dU`` — :math:`\partial L_{fair} / \partial U` up to a constant per
  row, which the softmax Jacobian cancels (``M x K``, thread-local);
* ``Q`` — ``None``, or a ``K x N*`` coefficient whose term
  :math:`-X^*_c Q^T` completes ``dU``; the objective folds it into its
  one product against the centred records.

* :class:`FullPairFairness` (``full``) — the full ordered-pair loss
  :math:`\sum_{ij} (\tilde D_{ij} - D^*_{ij})^2` in **centred K-space
  form**: :math:`\tilde X` has rank at most ``K``, so expanding
  :math:`\tilde D_{ij} = a_i + a_j - 2 \langle \tilde x_i, \tilde x_j
  \rangle` on the column-centred memberships and row-centred
  prototypes collapses every pair sum into ``K x K`` contractions,
  ``O(M * K^2)`` per call and no ``(M, M)`` or ``(M, N)`` matrix.
  ``loss(X_tilde, U, V)`` and ``add_grad(X_tilde, U, V, G, mu)`` (the
  gradient in :math:`\tilde X`-space) work from the raw factors.
* :class:`PairScatter` (``sampled``) — the fixed pair subsample's
  gather/scatter as one precomputed sparse incidence operator, applied
  to ``U``: the pair differences of the memberships carry what the
  pair differences of :math:`\tilde X` do, at ``O(max_pairs * K^2)``
  per call instead of ``O(max_pairs * N)``.

:class:`LandmarkFairness` is not an iFair pair mode: it is the kernel
of LFR's optional individual-fairness regulariser
(:mod:`repro.baselines.lfr`), the pair loss against ``L`` anchor
records evaluated in row blocks on a given transform
(``loss(X_tilde)``, ``loss_and_grad_x(X_tilde)``): ``O(M * L * N)``
time and ``O(B * L)`` transient memory.  It computes each error entry
directly, so it keeps full relative accuracy when a fit drives
:math:`\tilde D \to D^*`, and its cross-block loss accumulation runs
through :class:`CompensatedSum` (Neumaier compensated summation).

Everything here is thread-safe; :class:`Workspace` hands out
*thread-local* reusable buffers so threads can share one objective
without data races.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np
from scipy import sparse

__all__ = [
    "Workspace",
    "CompensatedSum",
    "weighted_sq_dists_gemm",
    "weighted_sq_dists_rowstable",
    "softmax_neg_inplace",
    "sq_dist_backward",
    "minkowski_dists_blocked",
    "minkowski_backward_blocked",
    "minkowski_dists",
    "minkowski_backward",
    "PairScatter",
    "FullPairFairness",
    "LandmarkFairness",
]


class Workspace:
    """Named pool of reusable numpy buffers, one pool per thread.

    L-BFGS evaluates the objective hundreds of times with identically
    shaped intermediates; re-allocating them every call is pure
    allocator churn.  ``take(name, shape)`` returns an uninitialised
    buffer that is reused on the next call with the same name and
    shape (and transparently re-allocated when shapes change, e.g.
    after refitting with different K).

    Buffers live in ``threading.local`` storage so concurrent callers
    (threads sharing one objective) never hand each other the same
    memory.
    """

    def __init__(self):
        self._local = threading.local()

    def take(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = {}
            self._local.pool = pool
        buf = pool.get(name)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=np.float64)
            pool[name] = buf
        return buf


def weighted_sq_dists_gemm(
    X: np.ndarray,
    V: np.ndarray,
    alpha: np.ndarray,
    *,
    x_sq: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``d[i, k] = sum_n alpha_n (X[i, n] - V[k, n])^2`` via GEMM.

    Parameters
    ----------
    X, V, alpha:
        Records ``(M, N)``, prototypes ``(K, N)``, weights ``(N,)``.
    x_sq:
        Optional precomputed ``X * X`` — pass it when ``X`` is fixed
        across many calls (training) to skip the elementwise square.
    out:
        Optional ``(M, K)`` output buffer (e.g. from a workspace).

    The expansion can produce tiny negative values through floating-
    point cancellation; the result is clipped at zero to stay in the
    distance domain.
    """
    if x_sq is None:
        x_sq = X * X
    if out is None:
        out = np.empty((X.shape[0], V.shape[0]), dtype=np.float64)
    np.matmul(X, (alpha * V).T, out=out)
    out *= -2.0
    out += (x_sq @ alpha)[:, None]
    out += ((V * V) @ alpha)[None, :]
    np.maximum(out, 0.0, out=out)
    return out


# Below this many prototype-matrix entries (K * N) the per-row tensor
# cost is smaller than the fixed einsum dispatch overhead (~10 us),
# which dominates single-record serving latency.
_ROWSTABLE_EINSUM_THRESHOLD = 192


def weighted_sq_dists_rowstable(
    X: np.ndarray,
    V: np.ndarray,
    alpha: np.ndarray,
    *,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Row-stable variant of :func:`weighted_sq_dists_gemm`.

    Same expansion, but the ``(M, K)`` and ``(M,)`` contractions go
    through ``np.einsum`` scalar loops whose per-row accumulation
    order does not depend on the number of rows in the batch.  Hence
    evaluating row blocks of any size (including single rows) is
    bitwise identical to evaluating all rows at once — the guarantee
    the chunked inference paths advertise.

    Small prototype matrices (``K * N`` below ~200 entries) instead
    use the difference-tensor form, also row-stable but free of the
    einsum fixed dispatch cost that would dominate single-record
    latency.  The branch depends only on the model's dimensions —
    never on the batch height — so any chunking of the same model
    stays on one branch and bitwise consistency holds.
    """
    if V.shape[0] * V.shape[1] <= _ROWSTABLE_EINSUM_THRESHOLD:
        diff = X[:, None, :] - V[None, :, :]
        d = (diff * diff) @ alpha  # stack of per-row matvecs
        if out is None:
            out = d
        else:
            out[...] = d
        np.maximum(out, 0.0, out=out)
        return out
    if out is None:
        out = np.empty((X.shape[0], V.shape[0]), dtype=np.float64)
    np.einsum("mn,kn->mk", X, alpha * V, out=out)
    out *= -2.0
    out += np.einsum("mn,mn,n->m", X, X, alpha)[:, None]
    out += ((V * V) @ alpha)[None, :]
    np.maximum(out, 0.0, out=out)
    return out


def softmax_neg_inplace(d: np.ndarray) -> np.ndarray:
    """``softmax(-d, axis=1)`` computed in-place in ``d``'s buffer.

    Performs the exact operation sequence of
    :func:`repro.utils.mathkit.softmax` (shift by the row maximum,
    exponentiate, normalise) so results match it bitwise, without
    allocating beyond one ``(M,)`` reduction per step.

    The row maximum of ``-d`` is taken as the negated column-by-column
    minimum of ``d``: min and max are exact, and ``min - d`` rounds as
    ``-d - max(-d)`` does, so the shift is bit for bit the same, while
    ``K`` strided passes cost a fraction of numpy's short-row
    ``max(axis=1)``.
    """
    low = d[:, 0].copy()
    for col in range(1, d.shape[1]):
        np.minimum(low, d[:, col], out=low)
    np.subtract(low[:, None], d, out=d)
    np.exp(d, out=d)
    d /= np.sum(d, axis=1, keepdims=True)
    return d


def sq_dist_backward(
    P: np.ndarray,
    X: np.ndarray,
    V: np.ndarray,
    alpha: np.ndarray,
    *,
    x_sq: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients through ``d`` for ``p = 2``, in GEMM form.

    Given ``P = dL/d(-d)`` of shape ``(M, K)``, returns

    * ``grad_alpha_dist[n] = -sum_{mk} P[m, k] (X[m, n] - V[k, n])^2``
    * ``grad_V_dist[k, n] = 2 alpha[n] sum_m P[m, k] (X[m, n] - V[k, n])``

    i.e. exactly the ``-einsum("mk,mkn->n", P, powed)`` and
    ``p * alpha * einsum("mk,mkn->kn", P, deriv)`` terms of the
    reference implementation, without the ``(M, K, N)`` tensors.  The
    only heavy operation is the shared ``(K, N)`` product ``P.T @ X``;
    the row and column sums of ``P`` are matrix-vector products, several
    times faster than numpy's reductions along a short axis.
    """
    if x_sq is None:
        x_sq = X * X
    m, k = P.shape
    PtX = P.T @ X  # (K, N) — shared by both gradients
    p_row = P @ np.ones(k)  # (M,)
    p_col = np.ones(m) @ P  # (K,)
    grad_alpha = -(p_row @ x_sq - 2.0 * np.einsum("kn,kn->n", PtX, V) + p_col @ (V * V))
    grad_V = PtX - p_col[:, None] * V
    grad_V *= 2.0 * alpha
    return grad_alpha, grad_V


class PairScatter:
    r"""Sampled-pair fairness term in K-space, through a sparse incidence operator.

    For fixed pair index vectors ``ii``/``jj`` into the rows of the
    non-protected matrix ``X_star`` (they never change over an
    objective's lifetime) the signed incidence matrix
    ``A_inc[p, ii[p]] = +1, A_inc[p, jj[p]] = -1`` turns both hot
    sampled-pair operations into sparse matrix products:

    * ``diffs(Y) = A_inc @ Y`` gives ``Y[ii] - Y[jj]`` (bitwise equal to
      the fancy-indexed subtraction);
    * ``scatter_add(G, C)`` performs ``G[ii] += C; G[jj] -= C`` as
      ``G += A_inc.T @ C``.

    Both run through scipy's CSR kernels — several times faster than
    the generic ``np.add.at`` ufunc machinery (or a per-column
    ``np.bincount`` scatter) for the pair counts the fairness
    subsample uses.

    The term is :math:`L = \sum_p (\|\tilde x_{i_p} - \tilde x_{j_p}\|^2
    - D^*_p)^2` with the fixed target ``D*`` taken from ``X_star``, and
    it is evaluated on the memberships, never on :math:`\tilde X`.  The
    pair differences ``dU = diffs(U)`` have rows summing to zero (every
    row of ``U`` sums to 1), so :math:`\tilde x_{i_p} - \tilde x_{j_p} =
    dU_p V_c` and, with :math:`A = V_c V_c^T`:

    .. math::

        \tilde D_p = \bigl((dU\,A) \circ dU\bigr)_p \mathbf 1, \quad
        e = \tilde D - D^*, \quad
        S = A_{inc}^T (4 e \circ dU), \quad
        \frac{\partial L}{\partial \tilde X} = S V_c.

    :meth:`loss_row_grad` returns :math:`\partial L / \partial V =
    (U^T S) V_c` and :math:`S A` for :math:`\partial L / \partial U`:
    ``O(n_pairs * K^2)`` per call, where the same sum on
    :math:`\tilde X` costs ``O(n_pairs * N)``.
    """

    def __init__(self, ii: np.ndarray, jj: np.ndarray, X_star: np.ndarray):
        m = X_star.shape[0]
        n_pairs = ii.size
        arange = np.arange(n_pairs)
        A = sparse.csr_matrix(
            (
                np.concatenate([np.ones(n_pairs), -np.ones(n_pairs)]),
                (np.concatenate([arange, arange]), np.concatenate([ii, jj])),
            ),
            shape=(n_pairs, m),
        )
        self._A = A
        self._At = sparse.csr_matrix(A.T)
        diff = X_star[ii] - X_star[jj]
        self._d_star = np.sum(diff * diff, axis=1)
        self._ws = Workspace()

    @property
    def n_pairs(self) -> int:
        return int(self._A.shape[0])

    def diffs(self, Y: np.ndarray) -> np.ndarray:
        """``Y[ii] - Y[jj]``, shape (n_pairs, Y.shape[1])."""
        return self._A @ Y

    def scatter_add(self, G: np.ndarray, contrib: np.ndarray) -> np.ndarray:
        """``G[ii] += contrib; G[jj] -= contrib`` in place."""
        G += self._At @ contrib
        return G

    def loss_row_grad(
        self, U: np.ndarray, Vc: np.ndarray, A: np.ndarray, W=None
    ) -> Tuple[float, np.ndarray, np.ndarray, None]:
        """(loss, dL/dV, dL/dU up to a constant per row, None).

        The common fairness-kernel call (module docstring); ``W`` is
        unused.  dL/dU is returned in a reusable thread-local buffer;
        consume it before the next call.
        """
        m, k = U.shape
        dU = self.diffs(U)
        err = np.einsum("pk,pk->p", dU @ A, dU)
        err -= self._d_star
        loss = float(err @ err)
        dU *= 4.0 * err[:, None]
        S = self._ws.take("s", (m, k))
        S.fill(0.0)
        self.scatter_add(S, dU)
        dL_dU = np.matmul(S, A, out=self._ws.take("du", (m, k)))
        return loss, (U.T @ S) @ Vc, dL_dU, None


class FullPairFairness:
    r"""Centred K-space loss/gradient of the full ordered-pair fairness term.

    The term is :math:`L = \sum_{ij} E_{ij}^2` with
    :math:`E = \tilde D - D^*`, where :math:`\tilde D` is the pairwise
    squared Euclidean matrix of the transformed records
    :math:`\tilde X = U V` and :math:`D^*` the fixed one of the original
    non-protected attributes :math:`X^*`.  Pair distances do not change
    under translation, so everything is evaluated on centred factors:
    :math:`U_c = U - \mathbf 1 \bar u^T` (columns centred),
    :math:`V_c = V - \mathbf 1 \bar v^T` (rows centred over the
    prototypes) and :math:`X^*_c`, centred once at construction.

    **Precondition: every row of** :math:`U` **sums to 1** (the softmax
    memberships do).  Then every row of :math:`U_c` sums to 0, so
    :math:`U_c V = U_c V_c` and :math:`\tilde X_c = U_c V_c` exactly.
    With the ``K x K`` moments :math:`A = V_c V_c^T`,
    :math:`B = U_c^T U_c`, :math:`W = U_c^T X^*_c` (``K x N*``),
    :math:`a` the row sums of :math:`(U_c A) \circ U_c` (that is
    :math:`\|\tilde x_{c,i}\|^2`), :math:`s_i = \|x^*_{c,i}\|^2` and
    :math:`\delta = a - s`:

    .. math::

        L &= 2 M \|\delta\|^2 + 2 (\Sigma \delta)^2
             + 4 \bigl[\mathrm{tr}((B A)^2) - 2 \langle A W, W \rangle
             + \|X^{*T}_c X^*_c\|_F^2\bigr], \\
        r &= M \delta + \Sigma \delta
             \quad (\text{the row sums of } E), \\
        \frac{\partial L}{\partial \tilde X} &= 8 (H_k - 2 X^*_c W^T) V_c,
        \quad H_k = r \circ U_c - \mathbf 1 (\delta^T U_c) + 2 U_c A B.

    Centring makes :math:`U_c^T \mathbf 1 = 0` and
    :math:`X^{*T}_c \mathbf 1 = 0`, so every column-sum term of the
    uncentred expansion vanishes, and :math:`U^T X^*_c = W`: the
    objective hands ``W`` over as columns of its own :math:`U^T X_c`, at
    no extra product.  Through :math:`\tilde X = U V` the gradient
    contracts in K-space:

    .. math::

        \frac{\partial L}{\partial V} = (8 U^T H_k - 16 W W^T) V_c, \qquad
        \frac{\partial L}{\partial U} \cong 8 H_k A - 16 X^*_c (A W)^T,

    where :math:`\cong` drops a constant per row (:math:`V_c V^T = A +
    V_c \bar v \mathbf 1^T`), which the softmax Jacobian cancels.
    :meth:`loss_row_grad` returns the first, :math:`8 H_k A`, and
    :math:`Q = 16 A W`: the :math:`X^*`-side term, which the objective
    folds into its one product against the centred records.  One call
    costs ``O(M * K^2 + K^2 * N)``; no ``(M, M)``, ``(M, N)`` or
    ``(N, N)`` matrix is formed.  Centring both factors keeps offset
    inputs (records far from the origin) at full relative accuracy:
    centring ``U`` alone would leave :math:`A` of the size of the
    offset squared.

    Near-cancellation stays: when :math:`\tilde D \to D^*` to many
    digits, the bracketed Gram terms cancel and the loss loses
    significance (:class:`LandmarkFairness` computes each error entry
    directly and keeps it).
    """

    def __init__(self, X_star: np.ndarray):
        X_star = np.asarray(X_star, dtype=np.float64)
        self._m = X_star.shape[0]
        self._ones = np.ones(self._m)
        self._Xs = X_star - X_star.mean(axis=0)  # centred X*
        self._s = np.einsum("mn,mn->m", self._Xs, self._Xs)
        gram = self._Xs.T @ self._Xs
        self._gram_sq = float(np.einsum("ij,ij->", gram, gram))
        self._ws = Workspace()

    def _row_term(self, U: np.ndarray, A: np.ndarray, W: Optional[np.ndarray]):
        """(loss, H_k, W, A W) at memberships U and prototype Gram A.

        ``W`` is computed as ``U_c^T X*_c`` when ``None``.  ``H_k``
        lives in a thread-local buffer.
        """
        m, k = U.shape
        ws = self._ws
        Uc = np.subtract(U, (self._ones @ U) / m, out=ws.take("uc", (m, k)))
        if W is None:
            W = Uc.T @ self._Xs
        B = Uc.T @ Uc
        UcA = np.matmul(Uc, A, out=ws.take("uc_a", (m, k)))
        delta = np.einsum("mk,mk->m", UcA, Uc)
        delta -= self._s
        d_sum = float(delta.sum())
        BA = B @ A
        AW = A @ W
        gram_terms = (
            float(np.einsum("ij,ji->", BA, BA))
            - 2.0 * float(np.einsum("kn,kn->", AW, W))
            + self._gram_sq
        )
        loss = 2.0 * m * float(delta @ delta) + 2.0 * d_sum**2 + 4.0 * gram_terms
        r = m * delta + d_sum
        H = np.matmul(UcA, 2.0 * B, out=ws.take("h", (m, k)))
        H -= delta @ Uc
        H += np.multiply(r[:, None], Uc, out=UcA)
        # The loss is exactly >= 0 in real arithmetic; clip the rounding noise.
        return max(loss, 0.0), H, W, AW

    def loss(self, X_tilde: np.ndarray, U: np.ndarray, V: np.ndarray) -> float:
        """``sum((D_tilde - D_star)**2)``; works on the factors of
        ``X_tilde = U V`` alone."""
        Vc = V - V.mean(axis=0)
        return self._row_term(U, Vc @ Vc.T, None)[0]

    def loss_row_grad(
        self, U: np.ndarray, Vc: np.ndarray, A: np.ndarray, W: np.ndarray
    ) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """(loss, dL/dV, 8 H_k A, 16 A W) — see the class docstring.

        The common fairness-kernel call (module docstring), with
        ``W = U^T X*_c``.  The ``(M, K)`` term is returned in a reusable
        thread-local buffer; consume it before the next call.
        """
        loss, H, W, AW = self._row_term(U, A, W)
        grad_V = (8.0 * (U.T @ H) - 16.0 * (W @ W.T)) @ Vc
        dL_dU = np.matmul(H, 8.0 * A, out=self._ws.take("du", H.shape))
        return loss, grad_V, dL_dU, 16.0 * AW

    def add_grad(
        self, X_tilde: np.ndarray, U: np.ndarray, V: np.ndarray, G: np.ndarray, mu: float
    ) -> float:
        """Add ``mu * dL/dX_tilde`` into ``G``; returns the loss.

        The ``X_tilde``-space form of the gradient, for a caller that
        holds one; the objective contracts in K-space instead
        (:meth:`loss_row_grad`).
        """
        Vc = V - V.mean(axis=0)
        loss, H, W, _ = self._row_term(U, Vc @ Vc.T, None)
        H -= self._Xs @ (2.0 * W.T)
        H *= 8.0 * mu
        G += H @ Vc
        return loss


class CompensatedSum:
    """Neumaier compensated (Kahan-Babuska) scalar accumulator.

    Keeps a running correction term alongside the running total, so the
    accumulated rounding error stays ``O(eps)`` relative to the sum of
    absolute addends instead of growing with the number of additions.
    Used wherever a loss is assembled from many partial sums whose
    cancellation could otherwise eat significant digits (the ROADMAP
    watch-item on ``D_tilde -> D*``).
    """

    __slots__ = ("_total", "_compensation")

    def __init__(self, value: float = 0.0):
        self._total = float(value)
        self._compensation = 0.0

    def add(self, value: float) -> "CompensatedSum":
        """Accumulate one addend; returns ``self`` for chaining."""
        value = float(value)
        total = self._total + value
        if abs(self._total) >= abs(value):
            self._compensation += (self._total - total) + value
        else:
            self._compensation += (value - total) + self._total
        self._total = total
        return self

    @property
    def result(self) -> float:
        """The compensated total."""
        return self._total + self._compensation


# Transient block buffers are capped at this many float64 elements
# (8 MB): large enough that BLAS runs at full tilt, small enough that
# blocked oracles never rival the arrays they are avoiding.
_BLOCK_ELEMENTS = 1 << 20


def _block_rows(m: int, row_cost: int) -> int:
    """Rows per block so one block holds ~``_BLOCK_ELEMENTS`` floats."""
    if row_cost <= 0:
        return m
    return max(1, min(m, _BLOCK_ELEMENTS // row_cost))


def minkowski_dists_blocked(
    X: np.ndarray,
    V: np.ndarray,
    alpha: np.ndarray,
    p: float,
    *,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``d[i, k] = sum_n alpha_n |X[i, n] - V[k, n]|^p`` in row blocks.

    Identical per-row arithmetic to the reference tensor form (each
    row's distances are an independent ``(K, N) @ (N,)`` contraction,
    so blocking cannot change results), but the transient difference
    tensor is ``(B, K, N)`` with ``B`` capped by the block budget —
    generic-``p`` oracles stop scaling their memory with ``M``.
    """
    m = X.shape[0]
    k, n = V.shape
    if out is None:
        out = np.empty((m, k), dtype=np.float64)
    block = _block_rows(m, k * n)
    for start in range(0, m, block):
        stop = min(start + block, m)
        diff = X[start:stop, None, :] - V[None, :, :]
        out[start:stop] = np.abs(diff) ** p @ alpha
    return out


def minkowski_backward_blocked(
    P: np.ndarray,
    X: np.ndarray,
    V: np.ndarray,
    alpha: np.ndarray,
    p: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generic-``p`` analogue of :func:`sq_dist_backward`, row-blocked.

    Given ``P = dL/d(-d)`` of shape ``(M, K)``, returns

    * ``grad_alpha[n] = -sum_{mk} P[m, k] |X[m, n] - V[k, n]|^p``
    * ``grad_V[k, n] = p * alpha[n] * sum_m P[m, k] *
      sign(diff) |diff|^(p-1)``

    matching the reference einsum terms exactly, with the ``(B, K, N)``
    difference tensors bounded by the block budget.
    """
    m = X.shape[0]
    k, n = V.shape
    grad_alpha = np.zeros(n, dtype=np.float64)
    grad_V = np.zeros((k, n), dtype=np.float64)
    block = _block_rows(m, k * n)
    for start in range(0, m, block):
        stop = min(start + block, m)
        diff = X[start:stop, None, :] - V[None, :, :]
        absdiff = np.abs(diff)
        Pb = P[start:stop]
        grad_alpha -= np.einsum("mk,mkn->n", Pb, absdiff ** p)
        grad_V += np.einsum("mk,mkn->kn", Pb, np.sign(diff) * absdiff ** (p - 1.0))
    grad_V *= p * alpha[None, :]
    return grad_alpha, grad_V


def minkowski_dists(
    X: np.ndarray,
    V: np.ndarray,
    alpha: np.ndarray,
    p: float,
    *,
    x_sq: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The distance forward: ``d[i, k] = sum_n alpha_n |X[i, n] - V[k, n]|^p``.

    :func:`weighted_sq_dists_gemm` at ``p = 2`` (``x_sq`` is its
    optional precomputed ``X * X``), :func:`minkowski_dists_blocked`
    otherwise.
    """
    if p == 2.0:
        return weighted_sq_dists_gemm(X, V, alpha, x_sq=x_sq, out=out)
    return minkowski_dists_blocked(X, V, alpha, p, out=out)


def minkowski_backward(
    P: np.ndarray,
    X: np.ndarray,
    V: np.ndarray,
    alpha: np.ndarray,
    p: float,
    *,
    x_sq: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The distance backward: ``(grad_alpha, grad_V)`` through ``d``.

    :func:`sq_dist_backward` at ``p = 2``,
    :func:`minkowski_backward_blocked` otherwise.
    """
    if p == 2.0:
        return sq_dist_backward(P, X, V, alpha, x_sq=x_sq)
    return minkowski_backward_blocked(P, X, V, alpha, p)


class LandmarkFairness:
    r"""Landmark (Nystrom-style) fairness loss/gradient, row-blocked.

    The kernel of LFR's optional individual-fairness regulariser.
    Approximates the full ordered-pair fairness term through ``L``
    anchor records ``a_1..a_L`` (row indices into the training matrix):

    .. math::

        L_{fair} = w \sum_{i=1}^{M} \sum_{l=1}^{L}
            \bigl(\tilde D_{i a_l} - D^*_{i a_l}\bigr)^2,

    where :math:`\tilde D_{i a_l} = \|\tilde x_i - \tilde x_{a_l}\|^2`,
    :math:`D^*` is the fixed squared-Euclidean target on the
    non-protected attributes, and ``w = scale`` (``M / L`` by
    convention) rescales the ``M * L`` pair sum to estimate the full
    ``M^2`` ordered-pair sum — so ``mu_fair`` weighs it as it weighs
    iFair's exact term, and at ``L = M`` (anchors = every record) the
    scaled loss *equals* the full-pair loss.

    The gradient w.r.t. :math:`\tilde X` carries both roles a record
    can play — row ``i`` of the pair sum and anchor ``a_l`` (anchors
    move with the transform):

    .. math::

        \frac{\partial L}{\partial \tilde x_i}
            &\mathrel{+}= 4 w \bigl(r_i \tilde x_i - (E A)_i\bigr), \\
        \frac{\partial L}{\partial \tilde x_{a_l}}
            &\mathrel{+}= -4 w \bigl((E^T \tilde X)_l - c_l a_l\bigr),

    with :math:`E = \tilde D_{:,anchors} - D^*` (shape ``(M, L)``),
    row sums :math:`r`, column sums :math:`c` and anchor matrix
    :math:`A = \tilde X[anchors]`.  At ``L = M`` the two terms merge
    into the familiar ``8 mu (r_i x_i - E x)`` of the symmetric full
    form.

    Everything is evaluated in row blocks of at most
    ``_BLOCK_ELEMENTS / L`` rows: one oracle call costs
    ``O(M * L * N)`` time and ``O(B * L)`` transient memory, never an
    ``(M, M)`` matrix.  Error entries are computed *directly*
    (``D_tilde - D*`` elementwise), so the near-cancellation regime
    ``D_tilde -> D*`` keeps full relative accuracy — unlike the
    expansion of :class:`FullPairFairness` — and the cross-block loss
    accumulation is compensated (:class:`CompensatedSum`).

    Parameters
    ----------
    X_star:
        Non-protected attribute matrix, shape ``(M, N*)``.
    anchor_idx:
        Distinct row indices of the landmark anchors, shape ``(L,)``.
        Stored sorted, so any permutation of the same anchor set
        produces bitwise-identical results.
    scale:
        Loss multiplier ``w``; pass ``M / L`` for full-pair
        comparability (the default when ``None``).
    """

    def __init__(
        self,
        X_star: np.ndarray,
        anchor_idx: np.ndarray,
        *,
        scale: Optional[float] = None,
    ):
        X_star = np.ascontiguousarray(X_star, dtype=np.float64)
        anchor_idx = np.asarray(anchor_idx, dtype=np.int64).ravel()
        m = X_star.shape[0]
        if anchor_idx.size == 0:
            raise ValueError("landmark fairness needs at least one anchor")
        if anchor_idx.size != np.unique(anchor_idx).size:
            raise ValueError("landmark anchors must be distinct")
        if anchor_idx.min() < 0 or anchor_idx.max() >= m:
            raise ValueError("landmark anchor index out of range")
        self._idx = np.sort(anchor_idx)
        self._m = m
        self.scale = float(m / self._idx.size) if scale is None else float(scale)
        # Fixed (M, L) target: squared Euclidean on the non-protected
        # attributes between every record and every anchor.
        A_star = X_star[self._idx]
        aa = np.einsum("mn,mn->m", X_star, X_star)
        d_star = aa[:, None] + aa[self._idx][None, :]
        d_star -= 2.0 * (X_star @ A_star.T)
        np.maximum(d_star, 0.0, out=d_star)
        self._d_star = d_star
        self._ws = Workspace()

    @property
    def n_landmarks(self) -> int:
        return int(self._idx.size)

    @property
    def anchor_idx(self) -> np.ndarray:
        """Sorted anchor row indices (a copy)."""
        return self._idx.copy()

    def _block(self) -> int:
        return _block_rows(self._m, self.n_landmarks)

    def loss(self, X_tilde: np.ndarray) -> float:
        """Scaled landmark fairness loss, O(M * L * N)."""
        idx = self._idx
        A = X_tilde[idx]
        aa = np.einsum("mn,mn->m", X_tilde, X_tilde)
        a_anchor = aa[idx]
        block = self._block()
        eb = self._ws.take("eb", (block, idx.size))
        acc = CompensatedSum()
        for start in range(0, self._m, block):
            stop = min(start + block, self._m)
            E = eb[: stop - start]
            np.matmul(X_tilde[start:stop], A.T, out=E)
            E *= -2.0
            E += aa[start:stop, None]
            E += a_anchor[None, :]
            np.maximum(E, 0.0, out=E)  # distance domain, like the others
            E -= self._d_star[start:stop]
            acc.add(np.einsum("ml,ml->", E, E))
        return self.scale * acc.result

    def loss_and_grad_x(
        self, X_tilde: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """(scaled loss, ``dL_fair/dX_tilde``) — gradient inputs.

        The gradient is returned in a reusable thread-local buffer;
        consume (or scale in place) before the next call.
        """
        m, n = X_tilde.shape
        idx = self._idx
        ws = self._ws
        A = np.take(X_tilde, idx, axis=0, out=ws.take("anchors", (idx.size, n)))
        aa = np.einsum("mn,mn->m", X_tilde, X_tilde)
        a_anchor = aa[idx]
        block = self._block()
        eb = ws.take("eb", (block, idx.size))
        G = ws.take("g_fair", (m, n))
        col_sum = np.zeros(idx.size, dtype=np.float64)
        EtX = np.zeros((idx.size, n), dtype=np.float64)
        acc = CompensatedSum()
        w4 = 4.0 * self.scale
        for start in range(0, m, block):
            stop = min(start + block, m)
            Xb = X_tilde[start:stop]
            E = eb[: stop - start]
            np.matmul(Xb, A.T, out=E)
            E *= -2.0
            E += aa[start:stop, None]
            E += a_anchor[None, :]
            np.maximum(E, 0.0, out=E)
            E -= self._d_star[start:stop]
            acc.add(np.einsum("ml,ml->", E, E))
            # Row role: 4 w (r_i x_i - (E A)_i) for the block's rows.
            row = E.sum(axis=1)
            Gb = np.matmul(E, A, out=G[start:stop])
            Gb *= -1.0
            Gb += row[:, None] * Xb
            Gb *= w4
            # Anchor-role moments, accumulated across blocks.
            col_sum += E.sum(axis=0)
            EtX += E.T @ Xb
        # Anchor role: -4 w ((E^T X)_l - c_l a_l) added onto anchor rows.
        EtX -= col_sum[:, None] * A
        EtX *= w4
        G[idx] -= EtX
        return self.scale * acc.result, G
