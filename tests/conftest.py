"""Shared fixtures for the test suite.

Everything is deliberately tiny: the goal is correctness of code paths
and invariants, not statistical power.  Benchmark-scale runs live in
``benchmarks/``.

Besides the dataset fixtures (and ``census_serving_artifact``, a
serving artifact at the served shape), this module provides the seeded
*factory* fixtures (``make_data``, ``make_objective``, ``make_theta``,
``make_kernel_case``) that replace per-file copy-pasted array setup,
the ``make_landmark_era_artifact`` builder of old-format artifacts,
the ``keep_alive_median_rtt`` probe and the ``answers_with_history``
runner shared by both serving tiers' tests,
and registers the Hypothesis profiles: ``default`` for interactive and
CI runs, ``nightly`` (selected via ``HYPOTHESIS_PROFILE=nightly``) for
the scheduled high-budget property sweep.
"""

from __future__ import annotations

import hashlib
import http.client
import io
import json
import os
import shutil
import statistics
import time

import numpy as np
import pytest
from hypothesis import settings

from repro.data.census import generate_census
from repro.data.compas import generate_compas
from repro.data.credit import generate_credit
from repro.data.xing import generate_xing
from repro.pipeline.config import ExperimentConfig
from repro.serving.fit import fit_serving_pipeline

settings.register_profile("default", max_examples=40, deadline=None)
settings.register_profile("nightly", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_NIGHTLY = os.environ.get("HYPOTHESIS_PROFILE", "default") == "nightly"


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "nightly: slow tests (executor stress, high-volume sweeps) run "
        "only under the nightly profile (HYPOTHESIS_PROFILE=nightly)",
    )


def pytest_collection_modifyitems(config, items):
    if _NIGHTLY:
        return
    skip = pytest.mark.skip(reason="nightly-profile test (HYPOTHESIS_PROFILE=nightly)")
    for item in items:
        if "nightly" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def make_data():
    """Factory for seeded record matrices.

    ``protected_col`` (when given) is overwritten with a seeded binary
    column, the layout most model tests want.
    """

    def _make(m=20, n=6, *, protected_col=None, seed=12345):
        data_rng = np.random.default_rng(seed)
        X = data_rng.normal(size=(m, n))
        if protected_col is not None:
            X[:, protected_col] = (data_rng.random(m) > 0.5).astype(float)
        return X

    return _make


@pytest.fixture
def make_objective(make_data):
    """Factory for seeded :class:`IFairObjective` instances.

    Pass ``X`` to reuse a matrix, or let the factory draw one from
    ``seed``.  ``protected=None`` builds an unprotected objective.
    """

    def _make(m=12, n=5, k=3, *, protected=(4,), seed=12345, X=None, **kwargs):
        from repro.core.objective import IFairObjective

        if X is None:
            X = make_data(m, n, seed=seed)
        return IFairObjective(
            X,
            None if protected is None else list(protected),
            n_prototypes=k,
            **kwargs,
        )

    return _make


@pytest.fixture
def make_theta():
    """Factory for seeded packed parameter vectors of an objective."""

    def _make(objective, *, seed=777, low=0.1, high=0.9):
        theta_rng = np.random.default_rng(seed)
        return theta_rng.uniform(low, high, size=objective.n_params)

    return _make


@pytest.fixture
def make_kernel_case():
    """Factory for seeded (X, V, alpha) kernel-layer triples."""

    def _make(m=25, k=4, n=6, *, seed=12345):
        case_rng = np.random.default_rng(seed)
        X = case_rng.normal(size=(m, n))
        V = case_rng.normal(size=(k, n))
        alpha = case_rng.uniform(0.1, 1.0, size=n)
        return X, V, alpha

    return _make


@pytest.fixture
def make_landmark_era_artifact():
    """Copy a saved artifact into the format of the retired landmark
    pair mode: the model manifest gains ``pair_mode="landmark"``,
    ``n_landmarks`` and ``landmark_method`` and loses ``max_pairs``, the
    payload gains a ``model.landmarks`` anchor array, and the payload
    digest is recomputed so the checksum still passes.
    """

    def _make(src, dest, *, n_landmarks=16):
        shutil.copytree(src, dest)
        with open(os.path.join(dest, "manifest.json")) as fh:
            manifest = json.load(fh)
        with np.load(os.path.join(dest, "arrays.npz")) as npz:
            arrays = {name: npz[name] for name in npz.files}
        arrays["model.landmarks"] = np.arange(n_landmarks, dtype=np.int64) * 2
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        payload = buffer.getvalue()
        model = manifest["model"]
        model.pop("max_pairs", None)
        model.update(
            pair_mode="landmark", n_landmarks=n_landmarks, landmark_method="farthest"
        )
        manifest["arrays_sha256"] = hashlib.sha256(payload).hexdigest()
        with open(os.path.join(dest, "arrays.npz"), "wb") as fh:
            fh.write(payload)
        with open(os.path.join(dest, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
        return dest

    return _make


@pytest.fixture
def small_matrix(rng):
    """A well-conditioned 20 x 6 data matrix."""
    return rng.normal(size=(20, 6))


@pytest.fixture
def tiny_labels(rng):
    return (rng.random(20) > 0.5).astype(np.float64)


@pytest.fixture(scope="session")
def tiny_compas():
    """A COMPAS dataset small enough for per-test model fits."""
    return generate_compas(150, charge_levels=8, random_state=3)


@pytest.fixture(scope="session")
def tiny_credit():
    return generate_credit(150, random_state=3)


@pytest.fixture(scope="session")
def tiny_census():
    """Census records at the served width (101 encoded features)."""
    return generate_census(200, random_state=3)


@pytest.fixture(scope="session")
def census_serving_artifact(tiny_census):
    """A serving artifact at the served shape: K = 10, N = 101.

    At this shape a BLAS product for ``U @ prototypes_`` or the scorer
    would give a record other bits alone than inside a 16-record
    request, so an answer that depends on its request's height or on
    earlier traffic shows up here; at ``tiny_compas``'s width such
    products tend to agree.
    """
    return fit_serving_pipeline(
        tiny_census, n_prototypes=10, max_iter=25, max_pairs=500, random_state=3
    )


@pytest.fixture(scope="session")
def tiny_xing():
    return generate_xing(n_queries=4, candidates_per_query=15, random_state=3)


@pytest.fixture
def keep_alive_median_rtt():
    """Median round trip of sequential POSTs on one keep-alive connection.

    ``HTTPClient`` opens a connection per call; reusing one is what
    load balancers and long-lived callers do, and what exposes a reply
    held back by Nagle's algorithm until the delayed ACK.
    """

    def measure(address, path, body, n=30):
        conn = http.client.HTTPConnection(*address, timeout=10.0)
        rtts = []
        try:
            for _ in range(n):
                start = time.perf_counter()
                conn.request("POST", path, body=body)
                response = conn.getresponse()
                response.read()
                rtts.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            conn.close()
        return statistics.median(rtts)

    return measure


@pytest.fixture
def answers_with_history():
    """One request's answers from a fresh tier and from a warmed one.

    Takes two clients; the warmed one first sends each record of the
    request alone.  An answer is the ``transform`` rows, the scores,
    and ``decide``'s scores and decisions; ``fairness_drift`` follows
    the monitor's window and is left out.  Works on either serving tier.
    """

    def answers(client, X, groups):
        records = X.tolist()
        decided = client.decide(records, groups)
        return (
            client.transform(records),
            client.score(records),
            decided["scores"],
            decided["decisions"],
        )

    def run(fresh, warmed, X, groups):
        first = answers(fresh, X, groups)
        for row, group in zip(X, groups):
            answers(warmed, row[None, :], [group])
        return first, answers(warmed, X, groups)

    return run


@pytest.fixture
def fast_config():
    """A config that keeps any pipeline test under a few seconds."""
    return ExperimentConfig(
        mixture_grid=(0.1, 1.0),
        prototype_grid=(4,),
        n_restarts=1,
        max_iter=25,
        max_pairs=800,
        classification_records=150,
        ranking_queries=4,
        query_size=15,
        compas_charge_levels=8,
        random_state=3,
    )
