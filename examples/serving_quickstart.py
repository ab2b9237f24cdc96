"""Serving quickstart: fit once, persist, answer live requests.

Walks the full online workflow the ``repro.serving`` package adds on
top of the paper pipeline:

1. fit a serving pipeline (scaler -> iFair -> logistic scorer ->
   per-group decision thresholds) on a synthetic COMPAS sample;
2. save it as a versioned artifact directory and reload it — the
   reloaded model reproduces ``transform`` output bitwise;
3. stand up the JSON decision service on a local port;
4. answer ``score``, ``rank`` and ``decide`` requests through the HTTP
   client and read the traffic counters back from ``/v1/stats``.

Run:  python examples/serving_quickstart.py
"""

import tempfile

import numpy as np

from repro.data.compas import generate_compas
from repro.serving import (
    DecisionService,
    HTTPClient,
    InferenceEngine,
    fit_serving_pipeline,
    load_artifact,
    save_artifact,
)


def main():
    # --- offline: fit and persist -------------------------------------
    dataset = generate_compas(500, charge_levels=20, random_state=42)
    artifact = fit_serving_pipeline(
        dataset, n_prototypes=8, max_iter=50, criterion="parity", random_state=42
    )
    with tempfile.TemporaryDirectory(prefix="repro-serving-") as tmp:
        path = save_artifact(f"{tmp}/compas", artifact)
        print(f"artifact saved to {path}")

        # --- online: load, serve, request -----------------------------
        engine = InferenceEngine(load_artifact(path), batch_size=256)
        with DecisionService(engine, port=0) as service:
            host, port = service.address
            client = HTTPClient(host, port)
            print(f"service answering on http://{host}:{port}")
            print("health:", client.health()["endpoints"])

            requests = dataset.X[:6].tolist()
            groups = dataset.protected[:6].tolist()

            scores = client.score(requests)
            print("scores:", np.round(scores, 3).tolist())

            ranked = client.rank(requests, top_k=3, groups=groups)
            print(
                f"top-3: {ranked['order']} "
                f"(protected share {ranked['protected_share']:.2f})"
            )

            decisions = client.decide(requests, groups)
            print(
                f"decisions: {decisions['decisions']} "
                f"(criterion {decisions['criterion']}, "
                f"thresholds {decisions['thresholds']})"
            )

            stats = client.stats()
            print(
                f"served {stats['requests']} requests ({stats['records']} records) "
                f"in {stats['batch_flushes']} model passes"
            )


if __name__ == "__main__":
    main()
