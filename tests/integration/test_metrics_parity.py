"""Metrics-merge parity: worker deltas reduce to scheduling-independent totals.

Executor workers accumulate telemetry in their own process-local
registries and ship per-task deltas back over their result pipes; the
parent folds them into :func:`repro.telemetry.metrics.get_registry`.
If that reduction is correct, the parent's deterministic counters after
a fit cannot depend on how the restarts were scheduled — a serial fit
and an ``n_jobs=2`` process-pool fit must agree exactly.
"""

import numpy as np
import pytest

from repro.core.model import IFair
from repro.telemetry.metrics import get_registry, snapshot_diff
from repro.utils.shm import leaked_segments

#: Counters whose totals are pure functions of the fit configuration,
#: independent of where and in which order the restarts ran.
INVARIANT_COUNTERS = (
    "fit_total",
    "fit_restarts_total",
    "fit_lbfgs_iterations_total",
)


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    yield
    assert leaked_segments() == []


def _make_data(seed=0, rows=40, cols=4):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols))


def _fit_counters(X, **kwargs):
    """Fit once and return the counter delta it caused in the registry."""
    registry = get_registry()
    before = registry.snapshot()
    model = IFair(
        n_prototypes=3, n_restarts=4, max_iter=15, random_state=7, **kwargs
    )
    model.fit(X, protected_indices=[3])
    delta = snapshot_diff(registry.snapshot(), before)
    return model, delta.get("counters", {})


def test_serial_and_process_fits_agree_on_deterministic_counters():
    X = _make_data()
    serial_model, serial = _fit_counters(X)
    pool_model, pooled = _fit_counters(X, n_jobs=2)

    # the models themselves are bitwise identical (existing guarantee) —
    # so any counter disagreement is a telemetry bug, not a fit bug
    np.testing.assert_array_equal(
        serial_model.prototypes_, pool_model.prototypes_
    )

    for name in INVARIANT_COUNTERS:
        assert serial.get(name) == pooled.get(name), name

    # every restart ran exactly once, whoever ran it
    assert serial["fit_restarts_total"] == 4.0
    assert pooled["fit_restarts_total"] == 4.0

    # per-restart work reaches the parent only through shipped deltas
    # from pool workers; the tasks themselves are counted
    # parent-side, once per payload
    assert "executor_tasks_total" not in serial
    assert pooled["executor_tasks_total"] == 4.0
    assert pooled["executor_maps_total"] == 1.0

    # serial builds the oracle once and shares it; each worker builds its own
    assert serial["fit_oracle_builds_total"] == 1.0
    assert pooled["fit_oracle_builds_total"] == 2.0


def test_worker_counters_actually_cross_the_pipe():
    # fit_restarts_total increments inside _run_restart, which in a
    # pooled fit only ever executes in worker processes: seeing it
    # in the parent registry proves the delta-shipping path end to end.
    X = _make_data(seed=1)
    _, pooled = _fit_counters(X, n_jobs=2)
    assert pooled["fit_restarts_total"] == 4.0
    assert pooled["fit_lbfgs_iterations_total"] > 0
