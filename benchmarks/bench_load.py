"""Sustained-RPS load generator for the serving tier.

Drives a live :class:`~repro.serving.service.DecisionService` over real
sockets with concurrent keep-alive clients (stdlib ``http.client``),
once against the single in-process engine (``workers=1``) and once
against the multi-process dispatcher (``workers=2``), recording
sustained RPS, p50/p99 latency, and the worker-scaling efficiency.
The clients run in a ``spawn``-started child process, so they share
the GIL of neither the engine (``workers=1``) nor the router
(``workers=2``).
During the ``workers=2`` run a background thread fires two blue/green
``POST /v1/admin/reload`` swaps mid-traffic; the gate requires zero
failed requests across the flip.

The client/batch shape is identical under ``--quick`` and full runs
(only the measured duration changes), so the quick CI rows can be
gated against the committed full-run baseline by
``run_bench.py --compare``.

Scaling thresholds are defined for the 2-core CI runner.  On a
single-core machine two workers cannot beat one (there is nothing to
scale onto), so the ``workers2_*_ok`` flags degrade to no-collapse
checks there; ``load_cpu_count`` records which machine produced each
entry.

Usage::

    PYTHONPATH=src python benchmarks/bench_load.py --quick
    PYTHONPATH=src python benchmarks/bench_load.py \
        --label pr7-serving-workers --out BENCH_core.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import multiprocessing
import os
import platform
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.data.schema import TabularDataset
from repro.serving import save_artifact, serve_artifact
from repro.serving.fit import fit_serving_pipeline

# One request shape for every mode and machine: gate-stable.
CLIENTS = 4
BATCH = 16
FEATURES = 12

# Strict thresholds (>= 2 cores: the CI runner) and degraded ones
# (1 core: no parallelism exists to measure, only overhead bounds).
SPEEDUP_MIN_MULTICORE = 1.6
SPEEDUP_MIN_SINGLECORE = 0.40
P99_RATIO_MAX_MULTICORE = 1.5
P99_RATIO_MAX_SINGLECORE = 4.0


def _fit_dataset(n: int = FEATURES, m: int = 300) -> TabularDataset:
    """The run_bench serving dataset shape, sized for a fast fit."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(m, n))
    X[:, n - 1] = (rng.random(m) > 0.5).astype(float)
    return TabularDataset(
        name="bench-load",
        X=X,
        y=(rng.random(m) > 0.5).astype(float),
        protected=X[:, n - 1].copy(),
        protected_indices=[n - 1],
        task="classification",
    )


def _save_artifacts(root: str) -> tuple:
    """Fit once, save twice: a blue and a green (identical) artifact."""
    dataset = _fit_dataset()
    artifact = fit_serving_pipeline(
        dataset, n_prototypes=8, max_iter=30, random_state=0
    )
    blue = save_artifact(os.path.join(root, "blue"), artifact)
    green = save_artifact(os.path.join(root, "green"), artifact)
    return blue, green, dataset


def _bodies(dataset: TabularDataset, count: int = 64) -> list:
    """Pre-encoded request bodies — JSON cost stays out of the clients."""
    rng = np.random.default_rng(9)
    bodies = []
    for _ in range(count):
        rows = rng.integers(0, dataset.n_records, size=BATCH)
        bodies.append(
            json.dumps({"records": dataset.X[rows].tolist()}).encode("utf-8")
        )
    return bodies


def run_load(host, port, bodies, duration, path="/v1/score"):
    """Hammer ``path`` with keep-alive clients for ``duration`` seconds.

    Returns ``(rps, p50_s, p99_s, failures)`` aggregated over all
    clients.  Every connection is closed before returning so the
    server's handler threads can drain (``DecisionService.stop`` joins
    them).
    """
    barrier = threading.Barrier(CLIENTS + 1)
    deadline = [0.0]
    results = [None] * CLIENTS

    def client_main(k):
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        latencies, failures = [], 0
        try:
            barrier.wait(timeout=30)
            i = k
            while time.perf_counter() < deadline[0]:
                body = bodies[i % len(bodies)]
                i += 1
                start = time.perf_counter()
                try:
                    conn.request(
                        "POST", path, body,
                        {"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    response.read()
                    if response.status != 200:
                        failures += 1
                        continue
                except (http.client.HTTPException, OSError):
                    failures += 1
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=10.0)
                    continue
                latencies.append(time.perf_counter() - start)
        finally:
            conn.close()
            results[k] = (latencies, failures)

    threads = [
        threading.Thread(target=client_main, args=(k,)) for k in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    # Arm the clock before releasing the barrier so no client reads a
    # stale deadline.
    deadline[0] = time.perf_counter() + duration
    barrier.wait(timeout=30)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=duration + 60)
    elapsed = max(time.perf_counter() - started, 1e-9)

    latencies = sorted(
        lat for result in results if result for lat in result[0]
    )
    failures = sum(result[1] for result in results if result)
    if not latencies:
        return 0.0, float("inf"), float("inf"), failures
    rps = len(latencies) / elapsed
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
    return rps, p50, p99, failures


def _load_child(conn, host, port, bodies, duration):
    conn.send("ready")
    conn.send(run_load(host, port, bodies, duration))
    conn.close()


def run_load_in_child(host, port, bodies, duration, on_ready=None):
    """:func:`run_load` in a child process of its own; same result.

    The child is ``spawn``-started, not forked, because the server's
    threads are live in this process.  ``on_ready`` runs once the
    child has finished its imports, just before its clients connect.
    """
    ctx = multiprocessing.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(
        target=_load_child,
        args=(sender, host, port, bodies, duration),
        daemon=True,
    )
    child.start()
    sender.close()

    def receive(timeout):
        if not receiver.poll(timeout):
            raise RuntimeError("load generator child stopped reporting")
        return receiver.recv()

    try:
        receive(120.0)  # "ready": the child's imports are done
        if on_ready is not None:
            on_ready()
        return receive(duration + 120.0)
    finally:
        receiver.close()
        child.join(timeout=30.0)
        if child.is_alive():
            child.kill()
            child.join()


def _reload_loop(host, port, targets, duration, state):
    """Fire one blue/green swap per target, spread across the run."""
    gap = duration / (len(targets) + 1)
    for target in targets:
        time.sleep(gap)
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            conn.request(
                "POST",
                "/v1/admin/reload",
                json.dumps({"artifact": target}).encode("utf-8"),
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read().decode("utf-8"))
            if response.status != 200 or body.get("status") != "ok":
                state["failures"] += 1
            else:
                state["done"] += 1
        except (http.client.HTTPException, OSError, ValueError):
            state["failures"] += 1
        finally:
            conn.close()


def bench_workers(quick: bool = True) -> dict:
    """The load rows: workers=1 vs workers=2 + reload-under-load."""
    duration = 1.2 if quick else 4.0
    cpus = os.cpu_count() or 1
    entry: dict = {
        "load_clients": CLIENTS,
        "load_batch": BATCH,
        "load_duration_s": duration,
        "load_cpu_count": cpus,
    }
    measured = {}
    with tempfile.TemporaryDirectory(prefix="bench_load_") as root:
        blue, green, dataset = _save_artifacts(root)
        bodies = _bodies(dataset)
        for workers in (1, 2):
            service = serve_artifact(blue, port=0, workers=workers)
            service.start()
            try:
                host, port = service.address
                # Warm both tiers off the clock (forked engines included).
                warm = http.client.HTTPConnection(host, port, timeout=10.0)
                for _ in range(3 * workers):
                    warm.request(
                        "POST", "/v1/score", bodies[0],
                        {"Content-Type": "application/json"},
                    )
                    warm.getresponse().read()
                warm.close()

                reload_state = {"done": 0, "failures": 0}
                reloader = None
                if workers == 2:
                    reloader = threading.Thread(
                        target=_reload_loop,
                        args=(host, port, [green, blue], duration, reload_state),
                    )
                rps, p50, p99, failures = run_load_in_child(
                    host, port, bodies, duration,
                    on_ready=None if reloader is None else reloader.start,
                )
                if reloader is not None:
                    reloader.join(timeout=60)
            finally:
                service.stop()
            measured[workers] = (rps, p50, p99, failures)
            entry[f"load_workers{workers}_rps"] = rps
            entry[f"load_workers{workers}_p50_s"] = p50
            entry[f"load_workers{workers}_p99_s"] = p99
            entry[f"load_workers{workers}_failures"] = failures
            if workers == 2:
                entry["load_reloads_done"] = reload_state["done"]
                entry["load_reload_failures"] = reload_state["failures"]

    rps1, _, p99_1, failures1 = measured[1]
    rps2, _, p99_2, failures2 = measured[2]
    speedup = (rps2 / rps1) if rps1 > 0 else 0.0
    entry["load_workers2_rps_speedup"] = speedup
    entry["load_workers2_scaling_efficiency"] = speedup / 2.0
    multicore = cpus >= 2
    speedup_floor = (
        SPEEDUP_MIN_MULTICORE if multicore else SPEEDUP_MIN_SINGLECORE
    )
    p99_ceiling = (
        P99_RATIO_MAX_MULTICORE if multicore else P99_RATIO_MAX_SINGLECORE
    )
    entry["workers2_rps_speedup_ok"] = bool(speedup >= speedup_floor)
    entry["workers2_p99_ok"] = bool(p99_2 <= p99_ceiling * p99_1)
    entry["reload_under_load_ok"] = bool(
        entry["load_reloads_done"] == 2
        and entry["load_reload_failures"] == 0
        and failures1 == 0
        and failures2 == 0
    )
    return entry


def print_summary(entry: dict) -> None:
    print(
        f"load ({entry['load_clients']} keep-alive clients x batch "
        f"{entry['load_batch']}, {entry['load_duration_s']:.1f} s, "
        f"{entry['load_cpu_count']} cpus): workers1 "
        f"{entry['load_workers1_rps']:.0f} rps "
        f"(p99 {entry['load_workers1_p99_s'] * 1e3:.1f} ms), workers2 "
        f"{entry['load_workers2_rps']:.0f} rps "
        f"(p99 {entry['load_workers2_p99_s'] * 1e3:.1f} ms) = "
        f"{entry['load_workers2_rps_speedup']:.2f}x "
        f"({entry['load_workers2_scaling_efficiency']:.0%} efficiency); "
        f"{entry['load_reloads_done']} reloads under load, "
        f"{entry['load_reload_failures'] + entry['load_workers2_failures']} "
        "failed requests"
    )
    for flag in ("workers2_rps_speedup_ok", "workers2_p99_ok", "reload_under_load_ok"):
        print(f"  {flag}: {'OK' if entry[flag] else 'FAILED'}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="short measurement")
    parser.add_argument("--label", default="load", help="trajectory entry label")
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
    entry.update(bench_workers(quick=args.quick))
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
