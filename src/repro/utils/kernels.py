r"""Kernels of the iFair oracle: one distance path, three fairness terms.

The iFair objective (:mod:`repro.core.objective`) spends almost all of
its time on the record-prototype distance matrix
``d[k, i] = sum_n alpha_n |x_in - v_kn|^p`` and its gradients.  Only
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

Layout
------
The oracle multiplies ``M`` records against ``K << M`` prototypes, so
its kernels keep every record-indexed quantity **K-major over
column-major records**: the records arrive as ``Xt`` of shape
``(N, M)`` (C-contiguous, one row per attribute), and the distances,
the memberships ``U``, the softmax-Jacobian product ``P`` and every
``(K, M)`` intermediate of the fairness kernels are ``(K, M)``
C-contiguous arrays.  Every record-side product is then a
``(K, .) x (., M)`` GEMM, and every reduction over ``K`` sums ``K``
contiguous rows.  At the ``fit`` shape (M = 500, N = 101, K = 10, one
BLAS thread, 2-vCPU Xeon VM) the distance GEMM took 21 us this way
against 51 us as the row-major ``(M, N) x (N, K)`` product, and the
softmax normaliser's sum over ``K`` 4 us against 15 us.  Only the
sampled term's pair quantities stay pair-major, ``(P, K)``: scipy's
sparse kernels read their dense operand that way (:class:`PairScatter`).
Callers that hold row-major ``(M, N)`` records pass ``X.T`` and read
results through ``.T`` (LFR does, and
:func:`repro.utils.mathkit.weighted_minkowski_to_prototypes` passes a
transposed output view so its rows land row-major).

GEMM expansion (``p = 2``)
--------------------------

.. math::

    d_{ki} = \sum_n \alpha_n (x_{in} - v_{kn})^2
           = (\alpha^T X_t^{\circ 2})_i
             - 2\,\bigl((\alpha \circ V) X_t\bigr)_{ki}
             + (V^{\circ 2} \alpha)_k

where :math:`X_t^{\circ 2}` is the elementwise square: one ``(K, M)``
GEMM plus two matrix-vector products.  With ``P = dL/d(-d)`` (the
softmax-Jacobian product, shape ``(K, M)``) the backward pass is

.. math::

    \frac{\partial L}{\partial v_{kn}}\Big|_{dist}
        &= 2 \alpha_n \bigl[(P X_t^T)_{kn} - \mathrm{rowsum}(P)_k v_{kn}\bigr] \\
    \frac{\partial L}{\partial \alpha_n}
        &= -\bigl[X_t^{\circ 2}\,\mathrm{colsum}(P)
                  - 2 \textstyle\sum_k (P X_t^T \circ V)_{kn}
                  + \mathrm{rowsum}(P)^T V^{\circ 2}\bigr]_n

so it shares a single ``(K, N)`` GEMM (:math:`P X_t^T`).  Inference
paths with an exact-chunking guarantee (``IFair.memberships(
batch_size=...)``, serving) use :func:`weighted_sq_dists_rowstable`
instead: the same expansion through ``np.einsum`` loops on row-major
``(M, N)`` records, whose per-row results do not depend on the batch
height.

Memberships and the flush
-------------------------
:func:`softmax_neg_inplace` turns the ``(K, M)`` distances into
memberships, ``softmax(-d)`` over ``K`` for each record, and then sets
every membership below the smallest normal float64
(``np.finfo(float).tiny``, 2.2e-308) to exactly 0.  Such entries are
subnormal, and every product that touches one runs on the CPU's slow
subnormal path.  They are common: replaying one perfbench ``fit``
(seed 43, 374 oracle calls), 241 calls held some, 0.12% of all
entries, and that replay ran ~15% slower in this layout without the
flush; in a 400-record sampled-pair fit 31 of 37 calls held some,
1.2% of all entries.  Zeroing them is safe.  Before normalising, each record's column
holds exp(0) = 1, so its largest membership is at least ``1/K``; each
zeroed entry moves the column's sum by less than 2.2e-308, far below
an ulp of that sum.  The fairness kernels' precondition, that each
record's memberships sum to 1, therefore holds exactly as well as
before.

Fairness terms
--------------
Each pair mode of the objective has one fairness kernel, and both
share one call on the factors of :math:`\tilde X = U^T V` (``U`` is
``(K, M)``), in the objective's centred coordinates:
``loss_row_grad(U, Vc, A, W)`` with the memberships ``U`` (columns
summing to 1), the row-centred prototypes ``Vc``, their Gram
``A = Vc Vc^T`` and ``W = U X*_c`` (``K x N*``), returning
``(loss, grad_V, dU, Q)``:

* ``grad_V`` — :math:`\partial L_{fair} / \partial V` (``K x N``);
* ``dU`` — :math:`\partial L_{fair} / \partial U` up to a constant per
  record, which the softmax Jacobian cancels (``K x M``, thread-local);
* ``Q`` — ``None``, or a ``K x N*`` coefficient whose term
  :math:`-Q X^{*T}_c` completes ``dU``; the objective folds it into its
  one product against the centred records.

* :class:`FullPairFairness` (``full``) — the full ordered-pair loss
  :math:`\sum_{ij} (\tilde D_{ij} - D^*_{ij})^2` in **centred K-space
  form**: :math:`\tilde X` has rank at most ``K``, so expanding
  :math:`\tilde D_{ij} = a_i + a_j - 2 \langle \tilde x_i, \tilde x_j
  \rangle` on the centred memberships and row-centred prototypes
  collapses every pair sum into ``K x K`` contractions,
  ``O(M * K^2)`` per call and no ``(M, M)`` or ``(M, N)`` matrix.
  ``loss(X_tilde, U, V)`` and ``add_grad(X_tilde, U, V, G, mu)`` (the
  gradient in :math:`\tilde X`-space) take the factors of
  :math:`\tilde X = U V` as a caller outside the oracle holds them,
  ``U`` of shape ``(M, K)``, and transpose it at the boundary.
* :class:`PairScatter` (``sampled``) — the fixed pair subsample's
  gather/scatter as one precomputed sparse incidence operator, applied
  to ``U``: the pair differences of the memberships carry what the pair
  differences of :math:`\tilde X` do, at ``O(max_pairs * K^2)`` per
  call instead of ``O(max_pairs * N)``.

:class:`LandmarkFairness` is not an iFair pair mode: it is the kernel
of LFR's optional individual-fairness regulariser
(:mod:`repro.baselines.lfr`), the pair loss against ``L`` anchor
records evaluated in row blocks on a given row-major transform
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

from repro.utils import blas

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
    Xt: np.ndarray,
    V: np.ndarray,
    alpha: np.ndarray,
    *,
    x_sq: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``d[k, i] = sum_n alpha_n (Xt[n, i] - V[k, n])^2`` via GEMM, shape ``(K, M)``.

    Parameters
    ----------
    Xt, V, alpha:
        Column-major records ``(N, M)``, prototypes ``(K, N)``, weights
        ``(N,)``.
    x_sq:
        Optional precomputed ``Xt * Xt`` — pass it when the records are
        fixed across many calls (training) to skip the elementwise
        square.
    out:
        Optional ``(K, M)`` output buffer (e.g. from a workspace).

    The expansion can produce tiny negative values through floating-
    point cancellation; the result is clipped at zero to stay in the
    distance domain.
    """
    if x_sq is None:
        x_sq = Xt * Xt
    if out is None:
        out = np.empty((V.shape[0], Xt.shape[1]), dtype=np.float64)
    # Scaling by -2 is exact, so folding it into the (K, N) factor gives
    # the bits of scaling the (K, M) product, one pass cheaper.
    np.matmul((-2.0 * alpha) * V, Xt, out=out)
    out += alpha @ x_sq
    out += ((V * V) @ alpha)[:, None]
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


_TINY = np.finfo(np.float64).tiny


def softmax_neg_inplace(d: np.ndarray) -> np.ndarray:
    """``softmax(-d)`` over the ``K`` rows of ``(K, M)`` distances, in ``d``'s buffer.

    Performs the exact operation sequence of
    :func:`repro.utils.mathkit.softmax` along ``axis=0`` (shift by the
    column maximum, exponentiate, normalise), then sets every entry
    below ``np.finfo(float).tiny`` to exactly 0: the result equals
    ``mathkit.softmax(-d, axis=0)`` with its subnormal entries zeroed,
    bit for bit (module docstring, "Memberships and the flush").

    The column maximum of ``-d`` is taken as the negated minimum of
    ``d``: min and max are exact, and ``min - d`` rounds as
    ``-d - max(-d)`` does.  Both reductions run over ``K`` contiguous
    rows, and the normaliser is numpy's ``sum(axis=0)``, the one
    ``mathkit.softmax`` uses, so the bits agree.
    """
    low = d.min(axis=0)
    np.subtract(low, d, out=d)
    np.exp(d, out=d)
    d /= np.sum(d, axis=0)
    np.copyto(d, 0.0, where=d < _TINY)
    return d


def sq_dist_backward(
    P: np.ndarray,
    Xt: np.ndarray,
    V: np.ndarray,
    alpha: np.ndarray,
    *,
    x_sq: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients through ``d`` for ``p = 2``, in GEMM form.

    Given ``P = dL/d(-d)`` of shape ``(K, M)`` and column-major records
    ``Xt`` of shape ``(N, M)`` (``x_sq`` is their optional precomputed
    square), returns

    * ``grad_alpha_dist[n] = -sum_{ki} P[k, i] (Xt[n, i] - V[k, n])^2``
    * ``grad_V_dist[k, n] = 2 alpha[n] sum_i P[k, i] (Xt[n, i] - V[k, n])``

    i.e. exactly the ``-einsum("mk,mkn->n", P.T, powed)`` and
    ``p * alpha * einsum("mk,mkn->kn", P.T, deriv)`` terms of the
    reference implementation, without the ``(M, K, N)`` tensors.  The
    only heavy operation is the shared ``(K, N)`` product ``P @ Xt.T``;
    ``P``'s sum over prototypes adds ``K`` contiguous rows and its sum
    over records is a matrix-vector product.
    """
    if x_sq is None:
        x_sq = Xt * Xt
    PXt = P @ Xt.T  # (K, N) — shared by both gradients
    p_rec = P.sum(axis=0)  # (M,)
    p_proto = P @ np.ones(P.shape[1])  # (K,)
    grad_alpha = -(x_sq @ p_rec - 2.0 * np.einsum("kn,kn->n", PXt, V) + p_proto @ (V * V))
    grad_V = PXt - p_proto[:, None] * V
    grad_V *= 2.0 * alpha
    return grad_alpha, grad_V


class PairScatter:
    r"""Sampled-pair fairness term in K-space, through a sparse incidence operator.

    For fixed pair index vectors ``ii``/``jj`` into the records (they
    never change over an objective's lifetime) the signed incidence
    matrix ``A_inc[p, ii[p]] = +1, A_inc[p, jj[p]] = -1`` turns both hot
    sampled-pair operations into sparse matrix products on ``(K, M)``
    arrays, one column per record:

    * ``diffs(Y) = A_inc @ Y^T`` gives ``(Y[:, ii] - Y[:, jj])^T``,
      pair-major ``(P, K)`` (bitwise equal to the fancy-indexed
      subtraction);
    * ``scatter_add(G, C)`` performs ``G[:, ii] += C^T; G[:, jj] -= C^T``
      as ``G += (A_inc^T @ C)^T``, for pair-major ``(P, K)`` ``C``.

    Both run through scipy's CSR kernels — several times faster than
    the generic ``np.add.at`` ufunc machinery (or a per-column
    ``np.bincount`` scatter) for the pair counts the fairness subsample
    uses.  scipy reads the dense operand with ``K`` contiguous values
    per record or pair, so the pair quantities are pair-major, and
    ``diffs`` lets scipy copy ``Y`` record-major first (``M * K``
    values, against the ``2 P * K`` the gather reads): at 2000-50 000
    pairs that beat gathering ``K`` strided values per pair straight
    from ``(K, M)`` with ``np.take``.  Both products' results are fresh
    arrays: scipy has no ``out=``.

    The term is :math:`L = \sum_p (\|\tilde x_{i_p} - \tilde x_{j_p}\|^2
    - D^*_p)^2` with the fixed target ``D*`` taken from ``X_star``, and
    it is evaluated on the memberships, never on :math:`\tilde X`.  The
    pair differences ``dU = diffs(U)`` have rows summing to zero (every
    record's memberships sum to 1), so :math:`\tilde x_{i_p} -
    \tilde x_{j_p} = dU_p V_c` and, with :math:`A = V_c V_c^T`:

    .. math::

        \tilde D_p = \bigl((dU\,A) \circ dU\bigr)_p \mathbf 1, \quad
        e = \tilde D - D^*, \quad
        S = \bigl(A_{inc}^T (4 e \circ dU)\bigr)^T, \quad
        \frac{\partial L}{\partial \tilde X} = S^T V_c.

    :meth:`loss_row_grad` returns :math:`\partial L / \partial V =
    (U S^T) V_c` and :math:`A S` for :math:`\partial L / \partial U`,
    with ``U``, ``S`` and ``A S`` of shape ``(K, M)``:
    ``O(n_pairs * K^2)`` per call, where the same sum on
    :math:`\tilde X` costs ``O(n_pairs * N)``.
    """

    def __init__(self, ii: np.ndarray, jj: np.ndarray, X_star: np.ndarray):
        m = X_star.shape[0]
        n_pairs = ii.size
        arange = np.arange(n_pairs)
        sparse = blas.import_scipy("sparse")
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
        """``(Y[:, ii] - Y[:, jj])^T`` for ``(K, M)`` ``Y``: shape ``(n_pairs, K)``."""
        return self._A @ Y.T

    def scatter_add(self, G: np.ndarray, contrib: np.ndarray) -> np.ndarray:
        """``G[:, ii] += contrib.T; G[:, jj] -= contrib.T`` in place, for
        ``(K, M)`` ``G`` and ``(n_pairs, K)`` ``contrib``."""
        G += (self._At @ contrib).T
        return G

    def loss_row_grad(
        self, U: np.ndarray, Vc: np.ndarray, A: np.ndarray, W=None
    ) -> Tuple[float, np.ndarray, np.ndarray, None]:
        """(loss, dL/dV, dL/dU up to a constant per record, None).

        The common fairness-kernel call (module docstring) on ``(K, M)``
        memberships; ``W`` is unused.  dL/dU is returned as a ``(K, M)``
        reusable thread-local buffer; consume it before the next call.
        Besides the two sparse products' results, every array the call
        writes is a thread-local buffer.
        """
        k, m = U.shape
        ws = self._ws
        dU = self.diffs(U)
        dU_A = np.matmul(dU, A, out=ws.take("du_a", dU.shape))
        err = np.einsum("pk,pk->p", dU_A, dU, out=ws.take("err", (self.n_pairs,)))
        err -= self._d_star
        loss = float(err @ err)
        err *= 4.0
        dU *= err[:, None]
        S = ws.take("s", (k, m))
        S.fill(0.0)
        self.scatter_add(S, dU)
        dL_dU = np.matmul(A, S, out=ws.take("du", (k, m)))
        return loss, (U @ S.T) @ Vc, dL_dU, None


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

    The formulas read :math:`U` as ``M x K``, as Definition 8 does;
    :meth:`loss_row_grad` holds it K-major, as the ``(K, M)`` array
    :math:`U^T` (module docstring, "Layout"), and keeps :math:`U_c`,
    :math:`U_c A`, :math:`H_k` and its ``dU`` as ``(K, M)`` thread-local
    buffers, so each ``(M, K)`` product above runs transposed.

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
        """(loss, H_k, W, A W) at ``(K, M)`` memberships U and prototype Gram A.

        ``W`` is computed as ``U_c X*_c`` when ``None``.  ``H_k`` is
        returned as a ``(K, M)`` thread-local buffer.
        """
        k, m = U.shape
        ws = self._ws
        Uc = np.subtract(U, ((U @ self._ones) / m)[:, None], out=ws.take("uc", (k, m)))
        if W is None:
            W = Uc @ self._Xs
        B = Uc @ Uc.T
        UcA = np.matmul(A, Uc, out=ws.take("uc_a", (k, m)))
        delta = np.einsum("km,km->m", UcA, Uc)
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
        H = np.matmul(2.0 * B, UcA, out=ws.take("h", (k, m)))
        H -= (Uc @ delta)[:, None]
        H += np.multiply(Uc, r, out=UcA)
        # The loss is exactly >= 0 in real arithmetic; clip the rounding noise.
        return max(loss, 0.0), H, W, AW

    def loss(self, X_tilde: np.ndarray, U: np.ndarray, V: np.ndarray) -> float:
        """``sum((D_tilde - D_star)**2)``; works on the factors of
        ``X_tilde = U V`` alone (``U`` of shape ``(M, K)``)."""
        Vc = V - V.mean(axis=0)
        return self._row_term(U.T, Vc @ Vc.T, None)[0]

    def loss_row_grad(
        self, U: np.ndarray, Vc: np.ndarray, A: np.ndarray, W: np.ndarray
    ) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """(loss, dL/dV, (8 H_k A)^T, 16 A W) — see the class docstring.

        The common fairness-kernel call (module docstring) on ``(K, M)``
        memberships, with ``W = U X*_c``.  The ``(K, M)`` term is
        returned in a reusable thread-local buffer; consume it before
        the next call.
        """
        loss, H, W, AW = self._row_term(U, A, W)
        grad_V = (8.0 * (U @ H.T) - 16.0 * (W @ W.T)) @ Vc
        dL_dU = np.matmul(8.0 * A, H, out=self._ws.take("du", H.shape))
        return loss, grad_V, dL_dU, 16.0 * AW

    def add_grad(
        self, X_tilde: np.ndarray, U: np.ndarray, V: np.ndarray, G: np.ndarray, mu: float
    ) -> float:
        """Add ``mu * dL/dX_tilde`` into ``G``; returns the loss.

        The ``X_tilde``-space form of the gradient, for a caller that
        holds one (``X_tilde`` and ``G`` of shape ``(M, N)``, ``U`` of
        shape ``(M, K)``); the objective contracts in K-space instead
        (:meth:`loss_row_grad`).
        """
        Vc = V - V.mean(axis=0)
        loss, H, W, _ = self._row_term(U.T, Vc @ Vc.T, None)
        H -= (2.0 * W) @ self._Xs.T
        H *= 8.0 * mu
        G += H.T @ Vc
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
    Xt: np.ndarray,
    V: np.ndarray,
    alpha: np.ndarray,
    p: float,
    *,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``d[k, i] = sum_n alpha_n |Xt[n, i] - V[k, n]|^p`` in record blocks.

    Column-major records ``Xt`` ``(N, M)``, prototypes ``V`` ``(K, N)``;
    the result is ``(K, M)`` (``out`` may be any ``(K, M)`` view, e.g.
    the transpose of a row-major ``(M, K)`` array).  Each block of ``B``
    records is copied row-major (``B x N``, a ``K``-th of the tensor's
    size) and evaluated exactly as the reference tensor form: each
    record's distances are an independent ``(K, N) @ (N,)`` contraction,
    so blocking cannot change results, but the transient difference
    tensor is ``(B, K, N)`` with ``B`` capped by the block budget —
    generic-``p`` oracles stop scaling their memory with ``M``.
    """
    m = Xt.shape[1]
    k, n = V.shape
    if out is None:
        out = np.empty((k, m), dtype=np.float64)
    block = _block_rows(m, k * n)
    for start in range(0, m, block):
        stop = min(start + block, m)
        Xb = np.ascontiguousarray(Xt[:, start:stop].T)
        diff = Xb[:, None, :] - V[None, :, :]
        out[:, start:stop] = (np.abs(diff) ** p @ alpha).T
    return out


def minkowski_backward_blocked(
    P: np.ndarray,
    Xt: np.ndarray,
    V: np.ndarray,
    alpha: np.ndarray,
    p: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generic-``p`` analogue of :func:`sq_dist_backward`, in record blocks.

    Given ``P = dL/d(-d)`` of shape ``(K, M)`` and column-major records
    ``Xt`` ``(N, M)``, returns

    * ``grad_alpha[n] = -sum_{ki} P[k, i] |Xt[n, i] - V[k, n]|^p``
    * ``grad_V[k, n] = p * alpha[n] * sum_i P[k, i] *
      sign(diff) |diff|^(p-1)``

    matching the reference einsum terms exactly, with the ``(B, K, N)``
    difference tensors bounded by the block budget; each block of
    records and of ``P`` is copied row-major first, as in
    :func:`minkowski_dists_blocked`.
    """
    m = Xt.shape[1]
    k, n = V.shape
    grad_alpha = np.zeros(n, dtype=np.float64)
    grad_V = np.zeros((k, n), dtype=np.float64)
    block = _block_rows(m, k * n)
    for start in range(0, m, block):
        stop = min(start + block, m)
        Xb = np.ascontiguousarray(Xt[:, start:stop].T)
        diff = Xb[:, None, :] - V[None, :, :]
        absdiff = np.abs(diff)
        Pb = np.ascontiguousarray(P[:, start:stop].T)
        grad_alpha -= np.einsum("mk,mkn->n", Pb, absdiff ** p)
        grad_V += np.einsum("mk,mkn->kn", Pb, np.sign(diff) * absdiff ** (p - 1.0))
    grad_V *= p * alpha[None, :]
    return grad_alpha, grad_V


def minkowski_dists(
    Xt: np.ndarray,
    V: np.ndarray,
    alpha: np.ndarray,
    p: float,
    *,
    x_sq: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The distance forward: ``d[k, i] = sum_n alpha_n |Xt[n, i] - V[k, n]|^p``.

    ``(K, M)`` distances of column-major ``(N, M)`` records:
    :func:`weighted_sq_dists_gemm` at ``p = 2`` (``x_sq`` is its
    optional precomputed ``Xt * Xt``), :func:`minkowski_dists_blocked`
    otherwise.
    """
    if p == 2.0:
        return weighted_sq_dists_gemm(Xt, V, alpha, x_sq=x_sq, out=out)
    return minkowski_dists_blocked(Xt, V, alpha, p, out=out)


def minkowski_backward(
    P: np.ndarray,
    Xt: np.ndarray,
    V: np.ndarray,
    alpha: np.ndarray,
    p: float,
    *,
    x_sq: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The distance backward: ``(grad_alpha, grad_V)`` through ``d``.

    ``P`` is ``(K, M)`` and ``Xt`` ``(N, M)``:
    :func:`sq_dist_backward` at ``p = 2``,
    :func:`minkowski_backward_blocked` otherwise.
    """
    if p == 2.0:
        return sq_dist_backward(P, Xt, V, alpha, x_sq=x_sq)
    return minkowski_backward_blocked(P, Xt, V, alpha, p)


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
