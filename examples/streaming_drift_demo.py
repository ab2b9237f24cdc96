"""Streaming drift tour: the online learning loop closing end to end.

Stands up the multi-worker HTTP service with the drift-response
controller armed and walks the full loop:

1. fit + save an artifact, serve it with ``online_refit=True``;
2. stream steady traffic — the controller's sliding window fills and
   the covariate-shift statistic settles at 1.0 (no flapping);
3. inject a covariate shift into the request stream — the statistic
   crosses the threshold, the controller warm-refits over the buffered
   window via ``IFair.partial_fit``, writes ``<artifact>/online/v0001``
   and hot-swaps it blue/green, with zero failed requests;
4. keep streaming the shifted traffic — the statistic has re-armed at
   1.0 over the re-anchored coordinates, so nothing re-triggers;
5. print the controller ledger from ``GET /v1/admin/online``.

Run:  python examples/streaming_drift_demo.py
"""

import json
import tempfile
import time
import urllib.request

from repro.api import (
    HTTPClient,
    fit_serving_pipeline,
    save_artifact,
    serve_artifact,
)
from repro.data.compas import generate_compas

SHIFT = 25.0
REFRESH_WINDOW = 64


def admin(host, port):
    url = f"http://{host}:{port}/v1/admin/online"
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def stream(client, X, groups, rounds, shift=0.0):
    served = 0
    for i in range(rounds):
        lo = (i * 8) % (X.shape[0] - 8)
        rows = X[lo : lo + 8] + shift
        answer = client.decide(rows.tolist(), groups[lo : lo + 8].tolist())
        served += len(answer["decisions"])
        time.sleep(0.01)
    return served


def main():
    # --- offline: fit once, save, serve with the loop armed -----------
    dataset = generate_compas(300, charge_levels=8, random_state=7)
    artifact = fit_serving_pipeline(
        dataset, n_prototypes=4, max_iter=25, random_state=7
    )
    with tempfile.TemporaryDirectory(prefix="repro-drift-") as tmp:
        path = save_artifact(f"{tmp}/compas", artifact)
        service = serve_artifact(
            path,
            port=0,
            workers=2,
            online_refit=True,
            refresh_window=REFRESH_WINDOW,
            drift_policy="shift",
            refit_cooldown_s=1.0,
        ).start()
        try:
            host, port = service.address
            client = HTTPClient(host, port)
            print(f"serving on {host}:{port} with online refit (shift policy)")

            # Stream from a pool no larger than the refresh window, so the
            # window is a faithful sample of the traffic (see the README's
            # sizing guidance: a window much smaller than the stream's
            # support reads novel-but-in-distribution rows as shift).
            X, groups = dataset.X[:REFRESH_WINDOW], dataset.protected[:REFRESH_WINDOW]

            # --- phase 1: steady traffic fills the window -------------
            served = stream(client, X, groups, rounds=30)
            deadline = time.time() + 15
            while time.time() < deadline:
                status = admin(host, port)
                if (
                    status["window_rows"] >= REFRESH_WINDOW
                    and status["baseline_cost"] is not None
                ):
                    break
                time.sleep(0.1)
            print(
                f"steady: {served} decisions, window {status['window_rows']} "
                f"rows, shift {status['shift']:.2f}, refits {status['refits']}"
            )

            # --- phase 2: the distribution moves ----------------------
            print(f"injecting covariate shift (+{SHIFT} on every feature)...")
            deadline = time.time() + 60
            while time.time() < deadline:
                stream(client, X, groups, rounds=5, shift=SHIFT)
                status = admin(host, port)
                if status["reloads"] >= 1:
                    break
            result = status["last_result"]
            print(
                f"closed loop: refit ({result['status']}, "
                f"loss {result['loss']:.4f}) -> {result['artifact']} "
                f"-> blue/green reload ({result['reload']})"
            )

            # --- phase 3: shifted traffic is the new normal -----------
            # The window may still hold pre-shift rows, so the controller is
            # allowed one more refit while they wash out; once the window is
            # purely the new regime the statistic sits at 1.0 and nothing
            # re-triggers.
            stream(client, X, groups, rounds=30, shift=SHIFT)
            time.sleep(1.5)  # a few control ticks over the washed-out window
            settled = admin(host, port)["refits"]
            stream(client, X, groups, rounds=30, shift=SHIFT)
            time.sleep(1.5)
            status = admin(host, port)
            print(
                f"re-armed: shift {status['shift']:.2f} over the new anchors, "
                f"refits {status['refits']} (settled at {settled}), "
                f"reloads {status['reloads']}, failures {status['failures']}"
            )
            assert status["refits"] == settled, "controller kept flapping"
        finally:
            service.stop()
        print("service stopped, all workers joined")


if __name__ == "__main__":
    main()
