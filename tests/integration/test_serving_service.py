"""End-to-end serving tests: artifact -> tier -> service -> clients.

The same assertions run on both serving tiers (``workers=1``, and a
two-worker dispatcher in the ``...OnTwoWorkers`` subclasses) through
both the in-process client and the HTTP client, so a divergence
between tiers or transports fails loudly.
"""

import http.client
import json
import re
import socket

import numpy as np
import pytest

from repro.serving import (
    HTTPClient,
    InferenceEngine,
    InProcessClient,
    ServiceError,
    fit_serving_pipeline,
    load_artifact,
    save_artifact,
    serve_artifact,
)


@pytest.fixture(scope="module")
def artifact_path(tiny_compas, tmp_path_factory):
    artifact = fit_serving_pipeline(
        tiny_compas, n_prototypes=4, max_iter=25, max_pairs=500, random_state=3
    )
    # Serve from a reloaded artifact so the whole persistence path is
    # part of the loop under test.
    return save_artifact(str(tmp_path_factory.mktemp("artifacts") / "compas"), artifact)


@pytest.fixture(scope="module")
def engine(artifact_path):
    """The reference answers: one in-process engine, outside any service."""
    return InferenceEngine(load_artifact(artifact_path), batch_size=32)


@pytest.fixture(scope="class")
def service(request, artifact_path):
    """A running service on the tier its test class names (``workers``)."""
    workers = getattr(request.cls, "workers", 1)
    with serve_artifact(
        artifact_path, port=0, workers=workers, batch_size=32
    ) as running:
        yield running


@pytest.fixture(scope="class", params=["in_process", "http"])
def client(request, service):
    if request.param == "in_process":
        return InProcessClient(service.engine)
    host, port = service.address
    return HTTPClient(host, port)


@pytest.fixture(scope="module")
def records(tiny_compas):
    return tiny_compas.X[:10].tolist()


@pytest.fixture(scope="module")
def groups(tiny_compas):
    return tiny_compas.protected[:10].tolist()


class TestEndpoints:
    workers = 1

    def test_health(self, client):
        body = client.health()
        assert body["status"] == "ok"
        assert body["workers"] == body["resilience"]["workers_alive"]
        assert body["workers"] in (1, 2)
        assert set(body["endpoints"]) == {"transform", "score", "rank", "decide"}
        assert body["metadata"]["dataset"] == "compas"

    def test_transform(self, client, engine, records):
        got = np.asarray(client.transform(records))
        expected = engine.transform(records)
        assert got.shape == expected.shape
        assert np.allclose(got, expected, rtol=0, atol=0)

    def test_score(self, client, engine, records):
        got = np.asarray(client.score(records))
        assert got.shape == (10,)
        assert np.all((got >= 0) & (got <= 1))
        assert np.array_equal(got, engine.score(records))

    def test_rank(self, client, records, groups):
        body = client.rank(records, top_k=5, groups=groups)
        assert len(body["order"]) == 5
        assert body["top_k"] == 5
        scores = np.asarray(body["scores"])
        assert np.all(np.diff(scores[np.asarray(body["order"])]) <= 1e-15)
        assert 0.0 <= body["protected_share"] <= 1.0

    def test_decide(self, client, records, groups):
        body = client.decide(records, groups)
        assert set(np.unique(body["decisions"])) <= {0.0, 1.0}
        assert body["criterion"] == "parity"
        assert set(body["thresholds"]) == {"0", "1"}

    def test_health_with_query_string(self, client):
        # load balancers append cache-busting query strings
        body = client.request("GET", "/v1/health?ts=123")
        assert body["status"] == "ok"

    def test_stats(self, client):
        body = client.stats()
        assert body["records"] >= 0

    def test_metrics_text_arrives_under_one_key(self, client, records):
        client.score(records)
        text = client.request("GET", "/v1/metrics")["prometheus"]
        assert "serving_requests_total" in text

    def test_both_transports_agree(self, service, records, groups):
        host, port = service.address
        local, remote = InProcessClient(service.engine), HTTPClient(host, port)
        assert local.score(records) == remote.score(records)
        assert local.rank(records, top_k=3) == remote.rank(records, top_k=3)
        decided = [local.decide(records, groups), remote.decide(records, groups)]
        if local.health()["workers"] > 1:
            # Each worker's drift flags read its own sliding window.
            for body in decided:
                body.pop("fairness_drift")
        assert decided[0] == decided[1]

    def test_keep_alive_requests_answer_in_milliseconds(
        self, service, records, keep_alive_median_rtt
    ):
        # With Nagle on, each reply's body waited ~40 ms for the
        # client's delayed ACK.
        body = json.dumps({"records": records}).encode("utf-8")
        assert keep_alive_median_rtt(service.address, "/v1/score", body) < 0.020


class TestErrors:
    workers = 1

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/v1/nope", {"records": [[1.0]]})
        assert excinfo.value.status == 404

    def test_missing_records_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/v1/score", {})
        assert excinfo.value.status == 400

    def test_wrong_width_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.score([[1.0, 2.0]])
        assert excinfo.value.status == 400

    def test_decide_without_groups_400(self, client, records):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/v1/decide", {"records": records})
        assert excinfo.value.status == 400

    def test_non_numeric_records_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/v1/score", {"records": [["a", "b"]]})
        assert excinfo.value.status == 400

    def test_invalid_json_body_400(self, service):
        import urllib.error
        import urllib.request

        host, port = service.address
        req = urllib.request.Request(
            f"http://{host}:{port}/v1/score",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=5.0)
        assert excinfo.value.code == 400


def _read_to_close(sock) -> bytes:
    """Everything the server sends until it closes the connection."""
    received = b""
    while True:
        data = sock.recv(65536)
        if not data:
            return received
        received += data


class TestFraming:
    """Only Content-Length bodies are read, and always read whole."""

    workers = 1

    def test_chunked_body_gets_one_411_and_the_connection_closes(self, service):
        body = json.dumps({"records": [[1.0]]}).encode("utf-8")
        request = (
            b"POST /v1/score HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        )
        with socket.create_connection(service.address, timeout=5.0) as sock:
            sock.sendall(request)
            # A server that parsed the unread chunk bytes as a second
            # request would answer twice; one that kept the connection
            # open would time this read out.
            received = _read_to_close(sock)
        head, _, payload = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 411 ")
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        assert len(payload) == length  # nothing follows the one reply
        assert "Content-Length" in json.loads(payload)["error"]

    def test_get_body_is_consumed_so_keep_alive_stays_in_step(self, service):
        conn = http.client.HTTPConnection(*service.address, timeout=5.0)
        try:
            for body in (b"{}", None):
                conn.request("GET", "/v1/health", body=body)
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
        finally:
            conn.close()


class TestEndpointsOnTwoWorkers(TestEndpoints):
    workers = 2


class TestErrorsOnTwoWorkers(TestErrors):
    workers = 2


class TestFramingOnTwoWorkers(TestFraming):
    workers = 2


class TestFreshProcessRoundTrip:
    def test_reload_in_subprocess_is_bitwise_equal(
        self, tiny_compas, tmp_path
    ):
        """A saved artifact reloaded in a *fresh interpreter* reproduces
        transform output exactly (the acceptance criterion)."""
        import os
        import subprocess
        import sys

        import repro

        artifact = fit_serving_pipeline(
            tiny_compas, n_prototypes=3, max_iter=15, max_pairs=300, random_state=3
        )
        path = save_artifact(str(tmp_path / "art"), artifact)
        X = tiny_compas.X[:5]
        expected = InferenceEngine(artifact).transform(X)
        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from repro.serving import load_artifact, InferenceEngine\n"
            "engine = InferenceEngine(load_artifact(sys.argv[1]))\n"
            "X = np.asarray(json.loads(sys.argv[2]))\n"
            "print(json.dumps(engine.transform(X).tolist()))\n"
        )
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", script, path, json.dumps(X.tolist())],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=src_dir),
        )
        got = np.asarray(json.loads(out.stdout))
        assert np.array_equal(got, expected)
