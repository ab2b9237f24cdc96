"""``IFair.partial_fit``: warm-started sliding-window online refits.

The contract under test: a ``partial_fit`` refit is *exactly* a
warm-started batch fit over the buffered window — bitwise, not merely
close — so every offline guarantee (determinism under seed, restart
selection, pair modes) transfers to the online path unchanged.
"""

import json
import os

import numpy as np
import pytest

from repro.core import IFair
from repro.exceptions import ValidationError

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "golden", "cases.json"
)


def _golden_matrix():
    """A frozen input matrix from the committed golden corpus."""
    with open(GOLDEN_PATH) as fh:
        doc = json.load(fh)
    assert doc["format"] == "repro-golden-cases"
    case = doc["cases"][0]
    X = np.asarray(case["X"], dtype=np.float64)
    protected = list(case["params"]["protected"])
    return X, protected


PARAMS = dict(n_prototypes=3, max_iter=20, max_pairs=200, random_state=11)


def test_validation():
    X, protected = _golden_matrix()
    model = IFair(**PARAMS)
    with pytest.raises(ValidationError):
        model.partial_fit(X, protected, window_size=1)
    with pytest.raises(ValidationError):
        model.partial_fit(np.zeros((0, 3)), protected)
    model.partial_fit(X, protected)
    with pytest.raises(ValidationError):  # width change rejected
        model.partial_fit(np.zeros((2, X.shape[1] + 1)), protected)


def test_single_row_defers_refit():
    X, protected = _golden_matrix()
    model = IFair(**PARAMS)
    model.partial_fit(X[:1], protected)
    assert model.prototypes_ is None  # nothing to fit on yet
    assert model.n_buffered == 1
    assert model.n_partial_fits_ == 0
    model.partial_fit(X[1:6], protected)
    assert model.prototypes_ is not None
    assert model.n_buffered == 6
    assert model.n_partial_fits_ == 1


def test_cold_partial_fit_matches_batch_fit_bitwise():
    X, protected = _golden_matrix()
    batch = IFair(**PARAMS).fit(X, protected)
    online = IFair(**PARAMS).partial_fit(X, protected)
    assert np.array_equal(online.theta_, batch.theta_)
    assert online.loss_ == batch.loss_


def test_warm_partial_fit_matches_warm_batch_fit_bitwise():
    X, protected = _golden_matrix()
    fitted = IFair(**PARAMS).fit(X[:10], protected)
    theta = fitted.theta_.copy()

    online = IFair(**PARAMS).fit(X[:10], protected)
    online.partial_fit(X, protected)

    # the window holds exactly the rows fed through partial_fit, and
    # the refit warm-starts from the already-fitted theta
    reference = IFair(**PARAMS, warm_start_theta=theta)
    reference.fit(X, protected)
    assert np.array_equal(online.theta_, reference.theta_)
    assert online.loss_ == reference.loss_


def test_window_bound_evicts_oldest_rows():
    X, protected = _golden_matrix()
    window = 8
    model = IFair(**PARAMS)
    for start in range(0, X.shape[0], 4):
        model.partial_fit(X[start : start + 4], protected, window_size=window)
    assert model.n_buffered == window

    # the final refit is a warm batch fit over exactly the last rows
    tail = X[X.shape[0] - window :]
    warm = IFair(**PARAMS)
    for start in range(0, X.shape[0] - 4, 4):
        warm.partial_fit(X[start : start + 4], protected, window_size=window)
    reference = IFair(**PARAMS, warm_start_theta=warm.theta_.copy())
    reference.fit(tail, protected)
    assert np.array_equal(model.theta_, reference.theta_)


def test_chunked_increments_track_batch_loss_on_window():
    """Chunked online refits land on the window's optimum: the final
    loss matches a cold batch fit over the same final window within a
    loose rtol (warm starts may find a *better* basin; they must not
    be meaningfully worse)."""
    X, protected = _golden_matrix()
    window = X.shape[0]
    model = IFair(**PARAMS)
    for start in range(0, X.shape[0], 5):
        model.partial_fit(X[start : start + 5], protected, window_size=window)
    assert model.n_buffered == X.shape[0]
    batch = IFair(**PARAMS).fit(X, protected)
    assert model.loss_ <= batch.loss_ * 1.10


def test_partial_fit_counter_metric():
    from repro.telemetry.metrics import get_registry

    X, protected = _golden_matrix()
    before = get_registry().value("partial_fit_total")
    IFair(**PARAMS).partial_fit(X[:4], protected)
    assert get_registry().value("partial_fit_total") == before + 1
