"""Concurrent-client parity for the multi-process serving tier.

Eight client threads hammer mixed verbs against a ``workers=2``
service while a mid-stream blue/green reload (to the *same* artifact)
flips every worker.  Every single response must be bitwise-identical
to what a serial in-process engine answers — scheduling across
workers, micro-batching inside each worker, and the reload must all be
invisible to callers.
"""

import json
import threading

import pytest

from repro.serving import (
    HTTPClient,
    InferenceEngine,
    InProcessClient,
    fit_serving_pipeline,
    load_artifact,
    save_artifact,
    serve_artifact,
)

N_THREADS = 8
N_ITERATIONS = 6
VERBS = ("transform", "score", "rank", "decide")


@pytest.fixture(scope="module")
def artifact_dir(tiny_compas, tmp_path_factory):
    artifact = fit_serving_pipeline(
        tiny_compas, n_prototypes=4, max_iter=25, max_pairs=500, random_state=3
    )
    return save_artifact(
        str(tmp_path_factory.mktemp("workers") / "compas"), artifact
    )


def _request(client, verb, records, groups):
    """One verb call; drops per-worker drift state from decide."""
    if verb == "transform":
        return {"transformed": client.transform(records)}
    if verb == "score":
        return {"scores": client.score(records)}
    if verb == "rank":
        return client.rank(records, top_k=5)
    answer = dict(client.decide(records, groups))
    # The drift flag reads a sliding window private to whichever worker
    # served the request — the one legitimately scheduling-dependent
    # field in the API.
    answer.pop("fairness_drift")
    return answer


def _workload(tiny_compas, thread_id, iteration):
    lo = (thread_id * 5 + iteration * 11) % (tiny_compas.n_records - 8)
    records = tiny_compas.X[lo : lo + 8].tolist()
    groups = tiny_compas.protected[lo : lo + 8].tolist()
    verb = VERBS[(thread_id + iteration) % len(VERBS)]
    return verb, records, groups


def test_eight_threads_match_serial_engine_across_reload(
    tiny_compas, artifact_dir
):
    serial = InProcessClient(
        InferenceEngine(load_artifact(artifact_dir), batch_size=32)
    )
    expected = {
        (t, i): json.loads(
            json.dumps(_request(serial, *_workload(tiny_compas, t, i)))
        )
        for t in range(N_THREADS)
        for i in range(N_ITERATIONS)
    }

    service = serve_artifact(artifact_dir, port=0, workers=2, batch_size=32)
    service.start()
    try:
        host, port = service.address
        checksum = serial.engine.artifact.checksum
        barrier = threading.Barrier(N_THREADS + 1)
        results, errors = {}, []

        def hammer(thread_id):
            client = HTTPClient(host, port)
            try:
                barrier.wait(timeout=10)
                for iteration in range(N_ITERATIONS):
                    verb, records, groups = _workload(
                        tiny_compas, thread_id, iteration
                    )
                    results[(thread_id, iteration)] = _request(
                        client, verb, records, groups
                    )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((thread_id, repr(exc)))

        def reload_midstream():
            client = HTTPClient(host, port)
            barrier.wait(timeout=10)
            for _ in range(2):  # flip all workers twice, mid-traffic
                answer = client.request(
                    "POST", "/v1/admin/reload", {"artifact": artifact_dir}
                )
                if answer.get("checksum") != checksum:
                    errors.append(("reload", answer))

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(N_THREADS)
        ] + [threading.Thread(target=reload_midstream)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert results == expected

        health = HTTPClient(host, port).health()
        assert health["workers"] == 2
        assert health["artifact_checksum"] == checksum
    finally:
        service.stop()


def test_keep_alive_requests_answer_in_milliseconds(
    tiny_compas, artifact_dir, keep_alive_median_rtt
):
    # With Nagle on, each reply's body waited ~40 ms for the client's
    # delayed ACK, on this tier as on the in-process one.
    body = json.dumps({"records": tiny_compas.X[:10].tolist()}).encode("utf-8")
    service = serve_artifact(artifact_dir, port=0, workers=2)
    service.start()
    try:
        median = keep_alive_median_rtt(service.address, "/v1/score", body)
    finally:
        service.stop()
    assert median < 0.020
