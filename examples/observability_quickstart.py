"""Observability quickstart: traces, metrics scrape, drift monitor.

Three tours through the telemetry layer on one small served model:

1. **fit tracing** — enable the process tracer, fit a serving
   pipeline, and dump the span timeline (fit -> oracle build ->
   per-restart L-BFGS) to ``fit_trace.json``;
2. **metrics scrape** — start the decision service on a free port and
   scrape ``GET /v1/metrics`` exactly like Prometheus would, printing
   the serving series (requests, micro-batching, latency histogram);
3. **fairness drift** — serve a baseline stream, then a shifted stream
   whose group-1 records score systematically lower; the sliding-window
   monitor widens its decision-rate gap past tolerance and raises the
   drift flag, visible in ``/v1/stats`` and in every ``decide``
   response;
4. **per-worker series** — restart the service with ``workers=2``
   (forked engine workers, each with its own copy of the model) and
   scrape the same ``/v1/metrics`` endpoint: every worker's counters
   arrive under a ``worker="<i>"`` label, merged into one exposition by
   the dispatcher, with the unlabelled totals recoverable by summing.

Run:  python examples/observability_quickstart.py
"""

import json
import tempfile
import urllib.request

import numpy as np

from repro.data.compas import generate_compas
from repro.serving import (
    DecisionService,
    InferenceEngine,
    fit_serving_pipeline,
    save_artifact,
    serve_artifact,
)
from repro.telemetry.logs import configure_logging
from repro.telemetry.tracing import disable_tracing, enable_tracing

TRACE_PATH = "fit_trace.json"


def http_get(host, port, path):
    with urllib.request.urlopen(f"http://{host}:{port}{path}") as response:
        body = response.read().decode("utf-8")
        if response.headers.get_content_type() == "application/json":
            return json.loads(body)
        return body


def http_post(host, port, path, payload):
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read().decode("utf-8"))


def main():
    # Log records (including the drift WARNING) go to stderr as text;
    # pass json_format=True to see the shippable one-line-JSON form.
    configure_logging("INFO")

    dataset = generate_compas(400, random_state=7)

    # --- 1. trace the fit ---------------------------------------------
    tracer = enable_tracing()
    artifact = fit_serving_pipeline(
        dataset, n_prototypes=6, max_iter=40, max_pairs=2000, random_state=7
    )
    tracer.dump_json(TRACE_PATH)
    disable_tracing()
    timeline = tracer.timeline()
    print(f"fit trace: {len(timeline)} spans -> {TRACE_PATH}")
    for span in timeline:
        indent = "  " * span["depth"]
        print(f"  {indent}{span['name']:<20s} {span['duration_s'] * 1e3:8.1f} ms")
    tracer.clear()

    # --- 2. serve and scrape /v1/metrics ------------------------------
    engine = InferenceEngine(artifact)
    with DecisionService(engine, port=0) as service:
        host, port = service.address

        baseline = dataset.X[:128]
        groups = dataset.protected[:128]
        http_post(
            host,
            port,
            "/v1/decide",
            {"records": baseline.tolist(), "groups": groups.tolist()},
        )

        exposition = http_get(host, port, "/v1/metrics")
        print("\nPrometheus scrape (serving series):")
        for line in exposition.splitlines():
            if line.startswith("serving_") and "bucket" not in line:
                print(f"  {line}")

        # --- 3. drift on a shifted stream -----------------------------
        # Group-1 records drift to systematically lower scores: their
        # approval rate collapses and the max-min rate gap widens past
        # the monitor's tolerance (a WARNING logs on the rising edge).
        shifted = dataset.X[128:384].copy()
        shifted_groups = dataset.protected[128:384]
        for column in dataset.nonprotected_indices:
            shifted[shifted_groups == 1.0, column] -= 3.0
        answer = http_post(
            host,
            port,
            "/v1/decide",
            {"records": shifted.tolist(), "groups": shifted_groups.tolist()},
        )

        fairness = http_get(host, port, "/v1/stats")["fairness"]
        print("\nfairness window after the shifted stream:")
        print(f"  decision rates: {fairness['decision_rates']}")
        print(f"  rate gap:       {fairness['rate_gap']:.3f}")
        print(f"  baseline gap:   {fairness['baseline']['rate_gap']:.3f}")
        print(f"  drift flags:    {fairness['drift']}")
        print(f"  decide response carried: {answer['fairness_drift']}")

    # --- 4. per-worker series from the multi-process tier --------------
    # Two forked engine workers, each holding the model it was forked
    # with; the scrape pulls each worker's metrics delta to the parent,
    # which relabels it with worker="<i>" — so one scrape shows who
    # actually served what.
    with tempfile.TemporaryDirectory() as tmp:
        artifact_dir = save_artifact(f"{tmp}/compas", artifact)
        service = serve_artifact(artifact_dir, port=0, workers=2)
        service.start()
        try:
            host, port = service.address
            for lo in range(0, 128, 16):  # spread requests over workers
                http_post(
                    host,
                    port,
                    "/v1/score",
                    {"records": dataset.X[lo : lo + 16].tolist()},
                )
            exposition = http_get(host, port, "/v1/metrics")
            print("\nper-worker scrape (workers=2):")
            for line in exposition.splitlines():
                if line.startswith("serving_requests_total{"):
                    print(f"  {line}")
            stats = http_get(host, port, "/v1/stats")
            print(f"  /v1/stats workers block: {stats['workers']}")
        finally:
            service.stop()


if __name__ == "__main__":
    main()
