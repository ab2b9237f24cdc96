"""Property test: the ``full`` fairness kernel keeps its digits on offset inputs.

Realistic records are not centred: every attribute may sit far from the
origin.  Pair distances do not depend on such an offset, but an
uncentred Gram expansion of them cancels the offset's square and loses
3-4 digits at +1e3.  The reference here builds ``E = D_tilde - D*``
from difference tensors, which never see the offset (expanding the
square, as ``pairwise_sq_euclidean`` does, would lose digits itself),
and holds :class:`repro.utils.kernels.FullPairFairness` to it at
``rtol = 1e-10`` on the loss and the gradient.

Example budgets come from the Hypothesis profile registered in
``tests/conftest.py``.
"""

import math

import numpy as np
from hypothesis import given, strategies as st

from repro.utils import kernels
from repro.utils.mathkit import softmax

RTOL = 1e-10


def _difference_reference(X_tilde, X_star):
    """(loss, dL/dX_tilde, gradient scale), E from difference tensors.

    The loss is summed exactly.  The gradient ``8 (r x_c - E X_c)`` is
    a difference of two terms; the scale is the larger of them, which
    bounds the gradient's absolute rounding error (at ``K = 1`` the
    gradient is zero and the reference holds only rounding noise).
    """
    diff_t = X_tilde[:, None, :] - X_tilde[None, :, :]
    diff_s = X_star[:, None, :] - X_star[None, :, :]
    E = np.einsum("ijn,ijn->ij", diff_t, diff_t) - np.einsum("ijn,ijn->ij", diff_s, diff_s)
    Xc = X_tilde - X_tilde.mean(axis=0)
    row_term = E.sum(axis=1)[:, None] * Xc
    pair_term = E @ Xc
    scale = 8.0 * max(np.abs(row_term).max(), np.abs(pair_term).max())
    return math.fsum((E * E).ravel().tolist()), 8.0 * (row_term - pair_term), scale


@st.composite
def offset_cases(draw):
    m = draw(st.integers(20, 300))
    n_star = draw(st.integers(2, 12))
    k = draw(st.integers(1, min(6, m - 1)))
    offset = draw(st.sampled_from([1e2, 1e3]))
    seed = draw(st.integers(0, 2**31 - 1))
    return m, n_star, k, offset, seed


@given(offset_cases())
def test_full_kernel_matches_difference_reference_at_offset(case):
    m, n_star, k, offset, seed = case
    rng = np.random.default_rng(seed)
    X_star = rng.normal(size=(m, n_star)) + offset
    # X_tilde keeps one protected column that X* drops; the same offset
    # sits on the prototypes, so X_tilde lives where X* does.
    V = rng.normal(size=(k, n_star + 1)) + offset
    U = softmax(rng.normal(size=(m, k)), axis=1)  # rows sum to 1
    X_tilde = U @ V
    expected_loss, expected_grad, grad_scale = _difference_reference(X_tilde, X_star)

    full = kernels.FullPairFairness(X_star)
    G = np.zeros_like(X_tilde)
    loss = full.add_grad(X_tilde, U, V, G, 1.0)

    assert abs(loss - expected_loss) <= RTOL * expected_loss
    assert abs(full.loss(X_tilde, U, V) - expected_loss) <= RTOL * expected_loss
    np.testing.assert_allclose(G, expected_grad, rtol=RTOL, atol=RTOL * grad_scale)
