"""Serving benchmark: single-record latency and batched throughput.

Unlike the ``bench_table*`` modules (pytest-benchmark wrappers over the
paper pipeline), this is a directly runnable end-to-end benchmark of
the online serving subsystem::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --records 2000 --http

It fits a compas serving pipeline, saves and reloads the artifact (so
the persistence path is in the loop), then reports:

* single-record ``score`` latency percentiles, in-process and — with
  ``--http`` — through the JSON service;
* batched throughput (records/sec) across request batch sizes;
* single-record throughput on fresh vs repeated records, which should
  read the same: the engine keeps no per-record state.
"""

from __future__ import annotations

import argparse
import statistics
import tempfile
import time

import numpy as np

from repro.data.compas import generate_compas
from repro.serving import (
    DecisionService,
    HTTPClient,
    InferenceEngine,
    InProcessClient,
    fit_serving_pipeline,
    load_artifact,
    save_artifact,
)
from repro.utils.tables import render_table


def _percentiles(samples_s):
    ms = sorted(s * 1e3 for s in samples_s)
    pick = lambda q: ms[min(len(ms) - 1, int(q * len(ms)))]
    return statistics.fmean(ms), pick(0.50), pick(0.95), pick(0.99)


def bench_latency(client, records, n_calls: int, warmup: int = 50):
    """Mean/p50/p95/p99 single-record latency in milliseconds.

    The warm-up phase matters for the tail: the first calls pay
    allocator growth, lazy imports and socket setup that steady-state
    traffic never sees, and with only one of them "p99" would measure
    cold-start noise rather than the serving hot loop.
    """
    rng = np.random.default_rng(0)
    pool = [records[i] for i in rng.integers(0, len(records), size=n_calls)]
    for i in range(warmup):
        client.score([pool[i % len(pool)]])
    samples = []
    for record in pool:
        start = time.perf_counter()
        client.score([record])
        samples.append(time.perf_counter() - start)
    return _percentiles(samples)


def bench_throughput(engine, records, batch_sizes, repeats: int = 5):
    """Records/sec of ``score`` per request batch size (fresh engine)."""
    rows = []
    for batch in batch_sizes:
        reqs = [records[np.random.default_rng(b).integers(0, len(records), batch)]
                for b in range(repeats)]
        best = 0.0
        for req in reqs:
            fresh = InferenceEngine(engine.artifact, batch_size=256)
            start = time.perf_counter()
            fresh.score(req)
            elapsed = time.perf_counter() - start
            best = max(best, batch / elapsed)
        rows.append([batch, f"{best:,.0f}"])
    return rows


def bench_repeats(artifact, records, n_requests: int = 300, repeats: int = 5):
    """Single-record requests/sec on fresh records vs 8 repeated ones.

    Fresh requests walk the records in order, so each is new to its
    engine while ``n_requests <= len(records)``.  The two pools
    alternate, each on a fresh engine, best of ``repeats`` rounds.
    """
    rng = np.random.default_rng(1)
    pools = {
        "fresh": [records[i % len(records)] for i in range(n_requests)],
        "repeated (8 records)": [
            records[i] for i in rng.integers(0, 8, size=n_requests)
        ],
    }
    best = dict.fromkeys(pools, 0.0)
    for _ in range(repeats):
        for label, pool in pools.items():
            engine = InferenceEngine(artifact, batch_size=256)
            engine.score(records[-1][None, :])  # first-call set-up
            start = time.perf_counter()
            for record in pool:
                engine.score(record[None, :])
            elapsed = time.perf_counter() - start
            best[label] = max(best[label], n_requests / elapsed)
    return [[label, f"{rate:,.0f}"] for label, rate in best.items()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=600)
    parser.add_argument("--n-prototypes", type=int, default=8)
    parser.add_argument("--latency-calls", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--http", action="store_true", help="also measure latency over HTTP"
    )
    args = parser.parse_args()

    print(f"fitting compas serving pipeline ({args.records} records) ...")
    dataset = generate_compas(args.records, charge_levels=40, random_state=args.seed)
    artifact = fit_serving_pipeline(
        dataset,
        n_prototypes=args.n_prototypes,
        max_iter=50,
        max_pairs=2000,
        random_state=args.seed,
    )
    with tempfile.TemporaryDirectory() as tmp:
        artifact = load_artifact(save_artifact(f"{tmp}/artifact", artifact))
    engine = InferenceEngine(artifact, batch_size=256)
    records = dataset.X

    mean, p50, p95, p99 = bench_latency(
        InProcessClient(engine), records.tolist(), args.latency_calls
    )
    latency_rows = [
        ["in-process", f"{mean:.3f}", f"{p50:.3f}", f"{p95:.3f}", f"{p99:.3f}"]
    ]
    if args.http:
        with DecisionService(engine, port=0) as service:
            host, port = service.address
            mean, p50, p95, p99 = bench_latency(
                HTTPClient(host, port), records.tolist(), args.latency_calls
            )
        latency_rows.append(
            ["http", f"{mean:.3f}", f"{p50:.3f}", f"{p95:.3f}", f"{p99:.3f}"]
        )
    print()
    print(
        render_table(
            ["transport", "mean ms", "p50 ms", "p95 ms", "p99 ms"],
            latency_rows,
            title=f"single-record score latency ({args.latency_calls} calls, warmed)",
        )
    )

    print()
    print(
        render_table(
            ["batch size", "records/sec"],
            bench_throughput(engine, records, (1, 8, 64, 256, 1024)),
            title="batched score throughput (fresh engine, best of 5)",
        )
    )

    print()
    print(
        render_table(
            ["records", "requests/sec"],
            bench_repeats(artifact, records),
            title="single-record score throughput, fresh vs repeated records (best of 5)",
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
