"""Property tests: the incremental fairness monitor equals a fresh computation.

The monitor updates only the distance rows of records that arrived
since its last check.  After every check, automatic or on demand, its
metrics must equal :func:`repro.metrics.individual.consistency` and a
direct decision-rate count on the last ``window`` records in arrival
order, over ring wrap-around and batches longer than the window.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.metrics.individual import consistency
from repro.telemetry.fairness import FairnessMonitor


@st.composite
def streams(draw):
    window = draw(st.integers(2, 300))
    k = draw(st.integers(1, max(1, window - 2)))
    check_every = draw(st.integers(1, 100))
    n_protected = draw(st.integers(1, 2))
    n_features = n_protected + draw(st.integers(1, 5))
    protected = sorted(
        draw(
            st.lists(
                st.integers(0, n_features - 1),
                min_size=n_protected,
                max_size=n_protected,
                unique=True,
            )
        )
    )
    batches = draw(
        st.lists(
            st.one_of(
                st.integers(1, 40), st.integers(window, 2 * window + 1)
            ),
            min_size=1,
            max_size=12,
        )
    )
    polls = draw(st.lists(st.booleans(), min_size=len(batches), max_size=len(batches)))
    soft = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return window, k, check_every, protected, n_features, batches, polls, soft, seed


def _reference(X, groups, decisions, window, k, protected):
    X, groups, decisions = X[-window:], groups[-window:], decisions[-window:]
    keep = [j for j in range(X.shape[1]) if j not in protected]
    ynn = consistency(X[:, keep], decisions, k=k) if len(X) > k + 1 else None
    rates = {
        str(g): float(decisions[groups == g].mean())
        for g in sorted(set(groups), key=str)
    }
    gap = max(rates.values()) - min(rates.values()) if len(rates) > 1 else None
    return len(X), ynn, rates, gap


@given(streams())
def test_every_check_matches_a_fresh_computation(case):
    window, k, check_every, protected, n_features, batches, polls, soft, seed = case
    rng = np.random.default_rng(seed)
    monitor = FairnessMonitor(
        protected, window=window, k=k, min_records=2, check_every=check_every
    )
    seen_X, seen_groups, seen_decisions = [], [], []
    for size, poll in zip(batches, polls):
        X = rng.normal(size=(size, n_features))
        groups = rng.integers(0, 2, size=size)
        decisions = rng.random(size) if soft else (rng.random(size) < 0.4) * 1.0
        before = monitor._cached_at
        monitor.observe(X, groups, decisions)
        seen_X.append(X)
        seen_groups.append(groups)
        seen_decisions.append(decisions)
        results = []
        if monitor._cached_at != before:  # observe() ran a check
            results.append(monitor._cached)
        if poll:  # an on-demand read, as /v1/stats makes
            results.append(monitor.metrics())
        if not results:
            continue
        n_seen = sum(len(x) for x in seen_X)
        n, ynn, rates, gap = _reference(
            np.concatenate(seen_X),
            np.concatenate(seen_groups),
            np.concatenate(seen_decisions),
            window,
            k,
            protected,
        )
        for metrics in results:
            assert metrics["records_seen"] == n_seen
            assert metrics["window_records"] == n
            assert metrics["decision_rates"] == rates
            assert metrics["rate_gap"] == gap
            if ynn is None:
                assert metrics["consistency"] is None
            elif soft:
                assert abs(metrics["consistency"] - ynn) <= 1e-12
            else:
                assert metrics["consistency"] == ynn
