"""The exact full-pair fit at M = 1,000,000 rows, in one process.

The centred K-space fairness kernel makes one full-pair oracle call
O(M * K * (N* + K)) with no (M, M) state, so the paper's exact
objective trains at a million records without sharding or
approximation.  The fit takes seconds and ~0.7 GB, so it rides behind
the ``nightly`` marker (see ``tests/conftest.py``).
"""

import numpy as np
import pytest

from repro.core.model import IFair
from repro.utils.shm import leaked_segments


@pytest.mark.nightly
def test_m1e6_full_fit_completes():
    m, n = 1_000_000, 8
    rng = np.random.default_rng(0)
    X = rng.normal(size=(m, n))
    X[:, n - 1] = (rng.random(m) > 0.5).astype(float)
    model = IFair(
        n_prototypes=4,
        pair_mode="full",
        n_restarts=1,
        max_iter=3,
        random_state=0,
    ).fit(X, [n - 1])
    assert np.isfinite(model.loss_)
    assert leaked_segments() == []
