"""Chaos soak for the serving resilience layer (ISSUE 9 acceptance).

Drives a live multi-worker :class:`~repro.serving.service.DecisionService`
over real sockets with the :mod:`bench_load` client pool while the
:mod:`~repro.serving.chaos` plane injects the acceptance fault mix —
worker crashes (p=0.02), hangs (p=0.01), slow replies (p=0.05) and a
pinch of corrupt frames — and a background thread fires two blue/green
reloads mid-traffic.  Every 200 answer is checked against the
fault-free expectation precomputed from an undisturbed in-process
engine, so the headline row is a *correctness-under-faults* rate, not
just throughput:

- ``chaos_error_rate`` — non-shed failures + wrong answers, per
  request.  The gate flag ``chaos_error_rate_ok`` requires exactly
  zero of both (and both reloads landing).
- ``chaos_shed_rate`` — 429/503 answers.  The bench applies no
  admission bound (the client pool is far below any sane capacity),
  so sheds too must be zero — and any that appear must still be
  well-formed (``Retry-After`` + JSON body) for
  ``chaos_shed_p99_ok`` to hold, alongside the success-latency p99
  staying inside the deadline x attempts retry envelope.

The breaker threshold is raised far above the injected death rate:
the crash-loop breaker targets deterministic failures (poisoned
artifact), and a chaos soak would trip a default-tuned one on
recoverable faults (see the serving runbook in README).

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py --quick
    PYTHONPATH=src python benchmarks/bench_chaos.py \
        --label pr9-serving-chaos --out BENCH_core.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.serving import ChaosConfig, serve_artifact
from repro.serving.engine import InferenceEngine
from repro.serving.artifacts import load_artifact
from repro.serving.client import InProcessClient

_BENCH_DIR = str(Path(__file__).resolve().parent)
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)
import bench_load  # noqa: E402  (same client/artifact shapes as the load rows)

# The ISSUE 9 acceptance fault mix, plus corrupt frames for coverage.
CHAOS = ChaosConfig(
    crash=0.02, hang=0.01, slow=0.05, corrupt=0.01,
    slow_ms=10.0, hang_s=60.0, seed=29,
)
DEADLINE_S = 0.4
MAX_RETRIES = 4
WORKERS = 2

# Success-latency ceiling: the retry envelope (deadline x attempts)
# plus scheduling slack; doubled on a single-core box where the client
# pool, the probe and both workers contend for one CPU.
P99_SLACK_MULTICORE_S = 1.0
P99_SLACK_SINGLECORE_S = 3.0


def _expected_answers(artifact_dir: str, bodies: list) -> list:
    """Fault-free /v1/score answers, JSON-round-tripped like the wire."""
    client = InProcessClient(InferenceEngine(load_artifact(artifact_dir)))
    return [
        client.request("POST", "/v1/score", json.loads(body))["scores"]
        for body in bodies
    ]


def run_chaos_load(host, port, bodies, expected, duration):
    """Hammer /v1/score under chaos, verifying every answer.

    Returns ``(latencies, counts)`` where counts tallies ``ok``,
    ``mismatch``, ``shed`` (well-formed 429/503), ``malformed_shed``
    (429/503 missing Retry-After or a JSON body) and ``error``
    (transport failures and any other status).
    """
    clients = bench_load.CLIENTS
    barrier = threading.Barrier(clients + 1)
    deadline = [0.0]
    results = [None] * clients

    def client_main(k):
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        latencies = []
        counts = dict(ok=0, mismatch=0, shed=0, malformed_shed=0, error=0)
        try:
            barrier.wait(timeout=30)
            i = k
            while time.perf_counter() < deadline[0]:
                index = i % len(bodies)
                i += 1
                start = time.perf_counter()
                try:
                    conn.request(
                        "POST", "/v1/score", bodies[index],
                        {"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    payload = response.read()
                except (http.client.HTTPException, OSError):
                    counts["error"] += 1
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=30.0)
                    continue
                elapsed = time.perf_counter() - start
                if response.status == 200:
                    try:
                        answer = json.loads(payload.decode("utf-8"))["scores"]
                    except (ValueError, KeyError):
                        answer = None
                    if answer == expected[index]:
                        counts["ok"] += 1
                        latencies.append(elapsed)
                    else:
                        counts["mismatch"] += 1
                elif response.status in (429, 503):
                    well_formed = response.getheader("Retry-After") is not None
                    try:
                        well_formed &= "error" in json.loads(payload.decode("utf-8"))
                    except ValueError:
                        well_formed = False
                    counts["shed" if well_formed else "malformed_shed"] += 1
                else:
                    counts["error"] += 1
        finally:
            conn.close()
            results[k] = (latencies, counts)

    threads = [
        threading.Thread(target=client_main, args=(k,)) for k in range(clients)
    ]
    for thread in threads:
        thread.start()
    deadline[0] = time.perf_counter() + duration
    barrier.wait(timeout=30)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=duration + 120)
    elapsed = max(time.perf_counter() - started, 1e-9)

    latencies = sorted(
        lat for result in results if result for lat in result[0]
    )
    totals = dict(ok=0, mismatch=0, shed=0, malformed_shed=0, error=0)
    for result in results:
        if result:
            for key, value in result[1].items():
                totals[key] += value
    totals["elapsed_s"] = elapsed
    return latencies, totals


def bench_chaos(quick: bool = True) -> dict:
    """The chaos soak rows: correctness + latency under the fault mix."""
    duration = 1.2 if quick else 4.0
    cpus = os.cpu_count() or 1
    entry: dict = {
        "chaos_clients": bench_load.CLIENTS,
        "chaos_batch": bench_load.BATCH,
        "chaos_duration_s": duration,
        "chaos_cpu_count": cpus,
        "chaos_deadline_s": DEADLINE_S,
        "chaos_max_retries": MAX_RETRIES,
        "chaos_spec": {
            "crash": CHAOS.crash, "hang": CHAOS.hang,
            "slow": CHAOS.slow, "corrupt": CHAOS.corrupt,
        },
    }
    with tempfile.TemporaryDirectory(prefix="bench_chaos_") as root:
        blue, green, dataset = bench_load._save_artifacts(root)
        bodies = bench_load._bodies(dataset)
        expected = _expected_answers(blue, bodies)
        service = serve_artifact(
            blue,
            port=0,
            workers=WORKERS,
            deadline_s=DEADLINE_S,
            max_retries=MAX_RETRIES,
            breaker_threshold=10_000,
            chaos=CHAOS,
        )
        service.start()
        try:
            host, port = service.address
            # Warm every forked worker off the clock.
            warm = http.client.HTTPConnection(host, port, timeout=30.0)
            for _ in range(3 * WORKERS):
                warm.request(
                    "POST", "/v1/score", bodies[0],
                    {"Content-Type": "application/json"},
                )
                warm.getresponse().read()
            warm.close()

            reload_state = {"done": 0, "failures": 0}
            reloader = threading.Thread(
                target=bench_load._reload_loop,
                args=(host, port, [green, blue], duration, reload_state),
            )
            reloader.start()
            latencies, totals = run_chaos_load(
                host, port, bodies, expected, duration
            )
            reloader.join(timeout=120)

            stats_conn = http.client.HTTPConnection(host, port, timeout=30.0)
            stats_conn.request("GET", "/v1/stats")
            stats = json.loads(stats_conn.getresponse().read().decode("utf-8"))
            stats_conn.close()
        finally:
            service.stop()

    total = sum(
        totals[key] for key in ("ok", "mismatch", "shed", "malformed_shed", "error")
    )
    hard_errors = totals["mismatch"] + totals["malformed_shed"] + totals["error"]
    sheds = totals["shed"] + totals["malformed_shed"]
    entry["chaos_requests"] = total
    entry["chaos_rps"] = totals["ok"] / totals["elapsed_s"]
    if latencies:
        entry["chaos_p50_s"] = latencies[len(latencies) // 2]
        entry["chaos_p99_s"] = latencies[
            min(len(latencies) - 1, int(len(latencies) * 0.99))
        ]
    else:
        entry["chaos_p50_s"] = entry["chaos_p99_s"] = float("inf")
    entry["chaos_error_rate"] = (hard_errors / total) if total else 1.0
    entry["chaos_shed_rate"] = (sheds / total) if total else 0.0
    entry["chaos_mismatches"] = totals["mismatch"]
    entry["chaos_deadline_kills"] = stats["resilience"]["deadline_kills"]
    entry["chaos_retries"] = stats["resilience"]["retries"]
    entry["chaos_respawns"] = stats["workers"]["respawns"]
    entry["chaos_reloads_done"] = reload_state["done"]
    entry["chaos_reload_failures"] = reload_state["failures"]

    entry["chaos_error_rate_ok"] = bool(
        total > 0
        and hard_errors == 0
        and reload_state["done"] == 2
        and reload_state["failures"] == 0
    )
    slack = P99_SLACK_MULTICORE_S if cpus >= 2 else P99_SLACK_SINGLECORE_S
    envelope = DEADLINE_S * (1 + MAX_RETRIES) + slack
    entry["chaos_p99_envelope_s"] = envelope
    entry["chaos_shed_p99_ok"] = bool(
        totals["malformed_shed"] == 0 and entry["chaos_p99_s"] <= envelope
    )
    return entry


def print_summary(entry: dict) -> None:
    print(
        f"chaos ({entry['chaos_clients']} clients x batch "
        f"{entry['chaos_batch']}, {entry['chaos_duration_s']:.1f} s, "
        f"faults crash={entry['chaos_spec']['crash']} "
        f"hang={entry['chaos_spec']['hang']} "
        f"slow={entry['chaos_spec']['slow']} "
        f"corrupt={entry['chaos_spec']['corrupt']}): "
        f"{entry['chaos_requests']} requests at "
        f"{entry['chaos_rps']:.0f} rps, p99 "
        f"{entry['chaos_p99_s'] * 1e3:.1f} ms "
        f"(envelope {entry['chaos_p99_envelope_s']:.1f} s), error rate "
        f"{entry['chaos_error_rate']:.4f}, shed rate "
        f"{entry['chaos_shed_rate']:.4f}; "
        f"{entry['chaos_deadline_kills']} deadline kills, "
        f"{entry['chaos_respawns']} respawns, "
        f"{entry['chaos_retries']} reroutes, "
        f"{entry['chaos_reloads_done']} reloads mid-chaos"
    )
    for flag in ("chaos_error_rate_ok", "chaos_shed_p99_ok"):
        print(f"  {flag}: {'OK' if entry[flag] else 'FAILED'}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="short measurement")
    parser.add_argument("--label", default="chaos", help="trajectory entry label")
    parser.add_argument(
        "--out", default=None,
        help="append the entry to this trajectory JSON (optional)",
    )
    args = parser.parse_args()

    entry = {
        "label": args.label,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    entry.update(bench_chaos(quick=args.quick))
    print_summary(entry)
    if args.out:
        path = Path(args.out)
        if path.exists():
            doc = json.loads(path.read_text())
        else:
            doc = {"benchmark": "core-ops", "entries": []}
        doc["entries"].append(entry)
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path} ({len(doc['entries'])} entries)")


if __name__ == "__main__":
    main()
