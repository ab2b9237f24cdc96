"""Chaos tour: the serving tier healing itself under injected faults.

Stands up the multi-worker dispatcher with the chaos plane armed —
every request has a chance of crashing its worker, hanging it past the
deadline, delaying the reply, or corrupting the response frame — and
shows the resilience layer absorbing all of it:

1. fit + save a small artifact, start a 2-worker dispatcher with a
   400 ms deadline and the acceptance fault mix;
2. fire a burst of requests and verify every answer is bitwise equal
   to an undisturbed in-process engine (faults are invisible);
3. swap the model blue/green mid-chaos;
4. print the resilience ledger: deadline kills, reroutes, respawns,
   worker health.

Run:  python examples/serving_chaos_demo.py
"""

import tempfile
import time

import numpy as np

from repro.data.compas import generate_compas
from repro.serving import (
    ChaosConfig,
    EngineDispatcher,
    InferenceEngine,
    InProcessClient,
    fit_serving_pipeline,
    load_artifact,
    save_artifact,
)


def main():
    # --- offline: fit once, save a blue and a green copy --------------
    dataset = generate_compas(300, charge_levels=8, random_state=7)
    artifact = fit_serving_pipeline(
        dataset, n_prototypes=4, max_iter=25, random_state=7
    )
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        blue = save_artifact(f"{tmp}/blue", artifact)
        green = save_artifact(f"{tmp}/green", artifact)
        reference = InferenceEngine(load_artifact(blue))

        # --- online: two workers, deadline armed, chaos injected ------
        chaos = ChaosConfig(
            crash=0.05, hang=0.02, slow=0.10, corrupt=0.02,
            slow_ms=20.0, hang_s=60.0, seed=13,
        )
        print(f"chaos armed: {chaos}")
        dispatcher = EngineDispatcher(
            load_artifact(blue),
            n_workers=2,
            deadline_s=0.4,
            max_retries=4,
            breaker_threshold=100,  # soak config: see the README runbook
            probe_interval_s=0.02,
            backoff_base_s=0.02,
            chaos=chaos,
        )
        # The service's own request path, without a socket.
        client = InProcessClient(dispatcher)
        try:
            batches = [dataset.X[i : i + 8] for i in range(0, 80, 8)]
            mismatches = 0
            for round_no in range(5):
                for batch in batches:
                    got = client.score(batch.tolist())
                    if not np.array_equal(got, reference.score(batch)):
                        mismatches += 1
                if round_no == 2:
                    answer = dispatcher.reload(green)
                    print(
                        f"  mid-chaos blue/green reload: {answer['status']} "
                        f"({answer['workers']} workers flipped)"
                    )
            served = 5 * len(batches)
            print(
                f"{served} requests served under chaos, "
                f"{mismatches} wrong answers (must be 0)"
            )

            # Give the probe a moment to respawn any slot that died on the
            # final requests — the tier heals itself in the background.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if dispatcher.health()["status"] == "ok":
                    break
                time.sleep(0.05)
            resilience = dispatcher.stats()["resilience"]
            workers = dispatcher.stats()["workers"]
            health = dispatcher.health()
            print(
                f"ledger: {resilience['deadline_kills']} deadline kills, "
                f"{resilience['retries']} reroutes, "
                f"{resilience['corrupt_frames']} corrupt frames, "
                f"{workers['respawns']} respawns"
            )
            print(
                f"health: {health['status']} "
                f"({health['workers_alive']}/{health['workers']} workers alive)"
            )
        finally:
            dispatcher.stop()
        print("dispatcher stopped, all workers joined")


if __name__ == "__main__":
    main()
