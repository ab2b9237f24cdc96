r"""Kernels of the iFair oracle: one distance path, three fairness terms.

Both the iFair objective (:mod:`repro.core.objective`) and the sharded
landmark oracle (:mod:`repro.core.shards`) spend almost all of their
time on the record-prototype distance matrix
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
Each pair mode of the objective has one fairness kernel, and all three
share one interface: ``loss(X_tilde)`` returns the term, and
``add_grad(X_tilde, G, mu)`` adds ``mu * dL_fair/dX_tilde`` into ``G``
and returns the term.

* :class:`FullPairFairness` (``full``) — the full ordered-pair loss
  :math:`\sum_{ij} (\tilde D_{ij} - D^*_{ij})^2` in **moment form**:
  expanding :math:`\tilde D_{ij} = a_i + a_j - 2 \langle \tilde x_i,
  \tilde x_j \rangle` collapses every pair sum into Gram-matrix
  contractions, ``O(M * N^2)`` per call and no ``(M, M)`` matrix.
* :class:`PairScatter` (``sampled``) — the fixed pair subsample's
  gather/scatter (``X[ii] - X[jj]`` and its signed transpose
  accumulation) as one precomputed sparse incidence operator.
* :class:`LandmarkFairness` (``landmark``) — the pair loss against
  ``L`` anchor records, evaluated in row blocks: ``O(M * L * N)`` time
  and ``O(B * L)`` transient memory.  It computes each error entry
  directly, so it keeps full relative accuracy when a fit drives
  :math:`\tilde D \to D^*`, and its cross-block loss accumulation runs
  through :class:`CompensatedSum` (Neumaier compensated summation).

Everything here is thread-safe; :class:`Workspace` hands out
*thread-local* reusable buffers so parallel restarts can share one
objective without data races.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np
from scipy import sparse

__all__ = [
    "Workspace",
    "CompensatedSum",
    "neumaier_tree_reduce",
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
    (parallel restarts sharing one objective) never hand each other
    the same memory.
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
    allocating beyond one ``(M, 1)`` reduction per step.
    """
    np.negative(d, out=d)
    d -= np.max(d, axis=1, keepdims=True)
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
    only heavy operation is the shared ``(K, N)`` product ``P.T @ X``.
    """
    if x_sq is None:
        x_sq = X * X
    PtX = P.T @ X  # (K, N) — shared by both gradients
    p_row = P.sum(axis=1)  # (M,)
    p_col = P.sum(axis=0)  # (K,)
    grad_alpha = -(p_row @ x_sq - 2.0 * np.einsum("kn,kn->n", PtX, V) + p_col @ (V * V))
    grad_V = PtX - p_col[:, None] * V
    grad_V *= 2.0 * alpha
    return grad_alpha, grad_V


class PairScatter:
    """Sampled-pair fairness term with a precomputed sparse gather/scatter.

    For fixed pair index vectors ``ii``/``jj`` into the rows of the
    non-protected matrix ``X_star`` (they never change over an
    objective's lifetime) the signed incidence matrix
    ``A[p, ii[p]] = +1, A[p, jj[p]] = -1`` turns both hot sampled-pair
    operations into sparse matrix products:

    * ``diffs(X) = A @ X`` gives ``X[ii] - X[jj]`` (bitwise equal to
      the fancy-indexed subtraction);
    * ``scatter_add(G, C)`` performs ``G[ii] += C; G[jj] -= C`` as
      ``G += A.T @ C``.

    Both run through scipy's CSR kernels — several times faster than
    the generic ``np.add.at`` ufunc machinery (or a per-column
    ``np.bincount`` scatter) for the pair counts the fairness
    subsample uses.  ``loss`` / ``add_grad`` (see the module docstring)
    evaluate ``sum_p (|X_tilde[ii_p] - X_tilde[jj_p]|^2 - D*_p)^2`` with
    the fixed target ``D*`` taken from ``X_star``.
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

    @property
    def n_pairs(self) -> int:
        return int(self._A.shape[0])

    def diffs(self, X: np.ndarray) -> np.ndarray:
        """``X[ii] - X[jj]``, shape (n_pairs, N)."""
        return self._A @ X

    def scatter_add(self, G: np.ndarray, contrib: np.ndarray) -> np.ndarray:
        """``G[ii] += contrib; G[jj] -= contrib`` in place."""
        G += self._At @ contrib
        return G

    def loss(self, X_tilde: np.ndarray) -> float:
        """Sampled-pair fairness loss, O(n_pairs * N)."""
        diff = self.diffs(X_tilde)
        err = np.sum(diff * diff, axis=1) - self._d_star
        return float(np.sum(err * err))

    def add_grad(self, X_tilde: np.ndarray, G: np.ndarray, mu: float) -> float:
        """Add ``mu * dL/dX_tilde`` into ``G``; returns the loss."""
        pd = self.diffs(X_tilde)  # X_tilde[ii] - X_tilde[jj]
        err = np.einsum("pn,pn->p", pd, pd)
        err -= self._d_star
        loss = float(err @ err)
        pd *= (4.0 * mu) * err[:, None]  # pair contributions
        self.scatter_add(G, pd)
        return loss


def _frob_sq(A: np.ndarray) -> float:
    """Squared Frobenius norm ``sum(A * A)`` without a temporary."""
    return float(np.einsum("ij,ij->", A, A))


class FullPairFairness:
    r"""Moment-form loss/gradient of the full ordered-pair fairness term.

    The term is :math:`L = \sum_{ij} E_{ij}^2` with
    :math:`E = \tilde D - D^*`, where :math:`\tilde D` is the pairwise
    squared Euclidean matrix of the transformed records
    :math:`\tilde X` and :math:`D^*` the fixed one of the original
    non-protected attributes :math:`X^*`.  Substituting
    :math:`\tilde D_{ij} = a_i + a_j - 2 g_{ij}` (with
    :math:`a_i = \|\tilde x_i\|^2`, :math:`g = \tilde X \tilde X^T`)
    and likewise :math:`D^*_{ij} = s_i + s_j - 2 g^*_{ij}` reduces
    every pair sum to moments:

    .. math::

        \sum_{ij} \tilde D_{ij}^2 &= 2 M \|a\|^2 + 2 (\Sigma a)^2
            + 4 \|\tilde X^T \tilde X\|_F^2 - 8\, a^T \hat g, \\
        \sum_{ij} \tilde D_{ij} D^*_{ij} &= 2 M\, a^T s
            + 2 (\Sigma a)(\Sigma s) - 4\, a^T \hat g^*
            - 4\, s^T \hat g + 4 \|\tilde X^T X^*\|_F^2, \\
        \textstyle\sum_j E_{ij} &= M (a_i - s_i) + (\Sigma a - \Sigma s)
            - 2 (\hat g_i - \hat g^*_i), \\
        (E \tilde X)_{in} &= (a_i - s_i)\, c_n
            + \bigl((a - s)^T \tilde X\bigr)_n
            - 2 (\tilde X\, \tilde X^T \tilde X)_{in}
            + 2 \bigl(X^* (\tilde X^T X^*)^T\bigr)_{in},

    with :math:`\hat g = \tilde X (\tilde X^T \mathbf 1)`,
    :math:`\hat g^* = X^* (X^{*T} \mathbf 1)` and
    :math:`c = \tilde X^T \mathbf 1`.  Everything is ``O(M * N^2)``
    time and ``O(M * N)`` memory — the ``(M, M)`` matrices are never
    formed.  All :math:`X^*`-only moments are precomputed once.

    The expansion is exact algebra; floating-point-wise it loses
    significance only when :math:`\tilde D \to D^*` to many digits,
    which the utility term's low-rank reconstruction keeps far away
    in practice (the equivalence property tests pin the drift below
    ``1e-10`` relative).
    """

    def __init__(self, X_star: np.ndarray):
        X_star = np.ascontiguousarray(X_star, dtype=np.float64)
        self._Xs = X_star
        m = X_star.shape[0]
        self._m = m
        s = np.einsum("mn,mn->m", X_star, X_star)
        self._s = s
        self._s_sum = float(s.sum())
        self._gs_hat = X_star @ X_star.sum(axis=0)
        self._sum_ds_sq = (
            2.0 * m * float(s @ s)
            + 2.0 * self._s_sum**2
            + 4.0 * _frob_sq(X_star.T @ X_star)
            - 8.0 * float(s @ self._gs_hat)
        )
        self._ws = Workspace()

    def _moments(self, X_tilde: np.ndarray):
        aa = np.einsum("mn,mn->m", X_tilde, X_tilde)
        col = X_tilde.sum(axis=0)
        gram = X_tilde.T @ X_tilde
        g_hat = X_tilde @ col
        cross_gram = X_tilde.T @ self._Xs  # (N, N*)
        return aa, col, gram, g_hat, cross_gram

    def _loss_from_moments(self, aa, gram, g_hat, cross_gram) -> float:
        m = self._m
        a_sum = float(aa.sum())
        sum_dt_sq = (
            2.0 * m * float(aa @ aa)
            + 2.0 * a_sum**2
            + 4.0 * _frob_sq(gram)
            - 8.0 * float(aa @ g_hat)
        )
        sum_cross = (
            2.0 * m * float(aa @ self._s)
            + 2.0 * a_sum * self._s_sum
            - 4.0 * float(aa @ self._gs_hat)
            - 4.0 * float(self._s @ g_hat)
            + 4.0 * _frob_sq(cross_gram)
        )
        # Exactly >= 0 in real arithmetic; clip the rounding noise.
        return max(sum_dt_sq - 2.0 * sum_cross + self._sum_ds_sq, 0.0)

    def loss(self, X_tilde: np.ndarray) -> float:
        """``sum((D_tilde - D_star)**2)`` in O(M * N^2)."""
        aa, _, gram, g_hat, cross_gram = self._moments(X_tilde)
        return self._loss_from_moments(aa, gram, g_hat, cross_gram)

    def loss_row_grad(
        self, X_tilde: np.ndarray
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        """(loss, row sums of E, E @ X_tilde) — the gradient inputs.

        ``E @ X_tilde`` is returned in a reusable thread-local buffer;
        consume it before the next call.
        """
        m, n = X_tilde.shape
        aa, col, gram, g_hat, cross_gram = self._moments(X_tilde)
        loss = self._loss_from_moments(aa, gram, g_hat, cross_gram)

        diff_sq = aa - self._s
        row = m * diff_sq + (float(aa.sum()) - self._s_sum)
        row -= 2.0 * g_hat
        row += 2.0 * self._gs_hat

        e_xt = np.multiply(diff_sq[:, None], col[None, :], out=self._ws.take("e_xt", (m, n)))
        e_xt += diff_sq @ X_tilde
        tmp = np.matmul(X_tilde, gram, out=self._ws.take("xt_gram", (m, n)))
        tmp *= 2.0
        e_xt -= tmp
        np.matmul(self._Xs, cross_gram.T, out=tmp)
        tmp *= 2.0
        e_xt += tmp
        return loss, row, e_xt

    def add_grad(self, X_tilde: np.ndarray, G: np.ndarray, mu: float) -> float:
        """Add ``mu * dL/dX_tilde = 8 mu (r_i x_i - (E X_tilde)_i)`` into
        ``G``; returns the loss."""
        loss, row, e_xt = self.loss_row_grad(X_tilde)
        e_xt -= row[:, None] * X_tilde
        e_xt *= -8.0 * mu
        G += e_xt
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


def _neumaier_pair(
    s1: np.ndarray, c1: np.ndarray, s2: np.ndarray, c2: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Combine two compensated partial sums (Neumaier, elementwise)."""
    total = s1 + s2
    # The residual of the addition, recovered from whichever operand
    # dominates — the elementwise form of CompensatedSum.add.
    residual = np.where(
        np.abs(s1) >= np.abs(s2), (s1 - total) + s2, (s2 - total) + s1
    )
    return total, c1 + c2 + residual


def neumaier_tree_reduce(terms) -> np.ndarray:
    """Fixed-order compensated binary-tree sum of same-shaped arrays.

    Reduces ``terms`` (a non-empty sequence of arrays or scalars,
    broadcast to float64) pairwise in index order — ``(t0 + t1) +
    (t2 + t3)`` and so on — carrying an elementwise Neumaier
    compensation term through every node.  Two properties matter to
    the sharded oracle:

    * the error stays ``O(eps)`` regardless of how many partial sums
      are combined or how their magnitudes cancel;
    * the reduction tree depends only on ``len(terms)``, never on
      which worker produced which term or when it arrived — so a
      gradient reduced over shard results is bitwise identical at any
      ``n_jobs``.

    Returns a fresh array of the common shape (0-d for scalar input).
    """
    nodes = []
    for term in terms:
        total = np.asarray(term, dtype=np.float64)
        nodes.append((total, np.zeros_like(total)))
    if not nodes:
        raise ValueError("neumaier_tree_reduce needs at least one term")
    while len(nodes) > 1:
        merged = []
        for i in range(0, len(nodes) - 1, 2):
            s1, c1 = nodes[i]
            s2, c2 = nodes[i + 1]
            merged.append(_neumaier_pair(s1, c1, s2, c2))
        if len(nodes) % 2:
            merged.append(nodes[-1])
        nodes = merged
    total, compensation = nodes[0]
    return total + compensation


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

    Approximates the full ordered-pair fairness term through ``L``
    anchor records ``a_1..a_L`` (row indices into the training matrix):

    .. math::

        L_{fair} = w \sum_{i=1}^{M} \sum_{l=1}^{L}
            \bigl(\tilde D_{i a_l} - D^*_{i a_l}\bigr)^2,

    where :math:`\tilde D_{i a_l} = \|\tilde x_i - \tilde x_{a_l}\|^2`,
    :math:`D^*` is the fixed squared-Euclidean target on the
    non-protected attributes, and ``w = scale`` (``M / L`` by
    convention) rescales the ``M * L`` pair sum to estimate the full
    ``M^2`` ordered-pair sum — so ``mu_fair`` keeps one meaning across
    pair modes, and at ``L = M`` (anchors = every record) the scaled
    loss *equals* the full-pair loss.

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
    ``D_tilde -> D*`` keeps full relative accuracy — unlike the moment
    expansion — and the cross-block loss accumulation is compensated
    (:class:`CompensatedSum`).

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

    def add_grad(self, X_tilde: np.ndarray, G: np.ndarray, mu: float) -> float:
        """Add ``mu * dL/dX_tilde`` into ``G``; returns the scaled loss."""
        loss, g_fair = self.loss_and_grad_x(X_tilde)
        g_fair *= mu
        G += g_fair
        return loss
