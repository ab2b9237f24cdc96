"""The program side of a workload, run as its own fresh process.

``python3 -m perfbench.program fit|tune --seed N [--trace-dir D]`` imports
the library, makes its inputs from the seed and reports ready.  On
``run <seconds>`` it repeats the fit (or tuned fit) for that long, then
checks its outputs and reports.  ``python3 -m
perfbench.program serve --artifact DIR --workers W`` starts
``serve_artifact`` on a free port, reports ready, and answers ``sample``
(process-tree CPU, peak RSS, run-queue wait), ``stamp`` and ``stop`` on
stdin.

Messages to the launcher are single stdout lines starting with ``@@ ``
followed by JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

from perfbench import procs, quality

#: Fit workload: the paper's protocol (full pairs, K=10, 3 restarts, run
#: one after another) on a census sample where the oracle dominates.
FIT_RECORDS = 500
FIT_PARAMS = dict(n_prototypes=10, n_restarts=3, max_iter=100, pair_mode="full")

#: Tune workload: halving search over the 3x3 mixture grid on 2 worker
#: processes, default 2000 sampled pairs, on a small census sample.
TUNE_RECORDS = 400
TUNE_PARAMS = dict(n_prototypes=10, max_iter=25, tune=True, tune_jobs=2, tune_strategy="halving")

#: Held-out census records scored by every fit/tune check.
TEST_RECORDS = 2000

#: Seeded datasets of a run.  Every run fits each at least once and cycles
#: through them until its time is up; per-dataset medians are averaged,
#: so a faster program or machine (more cycles) measures the same mix.
DATASETS_PER_RUN = {"fit": 6, "tune": 8}

# Bound before any tracing wrapper replaces json.dumps: protocol lines are not program work.
_json_dumps = json.dumps


def send(kind: str, **payload) -> None:
    sys.stdout.write("@@ " + _json_dumps({"kind": kind, **payload}) + "\n")
    sys.stdout.flush()


def registry_counts() -> Dict[str, float]:
    from repro.telemetry.metrics import get_registry

    return dict(get_registry().snapshot()["counters"])


def counts_delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items() if v - before.get(k, 0.0)}


def _evaluate(artifact, test) -> Dict[str, float]:
    """Held-out quality of one fitted pipeline and whether its Z is finite.

    yNN audits the scores, as ``/v1/score`` would serve them: the
    calibrated parity thresholds reject nearly every held-out record,
    which would make a decision-based yNN read 1 whatever the model.
    """
    import numpy as np

    X = artifact.scaler.transform(test.X)
    Z = artifact.model.transform(X)
    scores = artifact.scorer.predict_proba(Z)
    return {
        "finite": bool(np.all(np.isfinite(Z)) and np.all(np.isfinite(scores))),
        "test_auc": quality.roc_auc(test.y, scores),
        "test_ynn": quality.ynn(test.X, test.protected_indices, scores),
    }


def run_fit_like(kind: str, seed: int, recorder) -> None:
    from repro.serving.fit import fit_serving_pipeline

    n_train, params = (FIT_RECORDS, FIT_PARAMS) if kind == "fit" else (TUNE_RECORDS, TUNE_PARAMS)
    n_datasets = DATASETS_PER_RUN[kind]
    datasets = [quality.census_split(seed, i, n_train, TEST_RECORDS) for i in range(n_datasets)]
    send("ready", pid=os.getpid())
    command = sys.stdin.readline().split()
    if not command or command[0] != "run":
        return
    seconds = float(command[1])

    counts0 = registry_counts()
    # Run-queue wait of this process's threads, which live through the
    # phase; executor workers report their own when they exit.
    wait0 = procs.runqueue_wait_s([os.getpid()])
    t0 = time.perf_counter()
    ops: List[Dict] = []
    fitted: Dict[int, object] = {}
    while True:
        dataset = len(ops) % n_datasets
        cpu0 = procs.tree_cpu_s()
        start = time.perf_counter()
        error = None
        try:
            artifact = fit_serving_pipeline(
                datasets[dataset][0], random_state=quality.substream(seed, 2, dataset), **params
            )
            fitted.setdefault(dataset, artifact)
        except Exception as exc:  # counted as a failed operation, run continues
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        ops.append({"dataset": dataset, "wall_s": wall, "cpu_s": procs.tree_cpu_s() - cpu0, "error": error})
        if len(ops) >= n_datasets and time.perf_counter() - t0 + wall > seconds:
            break
    t1 = time.perf_counter()
    wait1 = procs.runqueue_wait_s([os.getpid()])
    sample1 = procs.tree_sample()
    counts1 = registry_counts()

    evaluations = {d: _evaluate(art, datasets[d][1]) for d, art in sorted(fitted.items())}
    complete = len(evaluations) == n_datasets
    if recorder is not None:
        recorder.dump()
    send(
        "result",
        t0=t0,
        t1=t1,
        ops=ops,
        runqueue_wait_s=wait1 - wait0,
        peak_rss_mb=sample1["peak_rss_mb"],
        threads=sample1["threads"],
        finite=[e["finite"] for e in evaluations.values()],
        test_auc=sum(e["test_auc"] for e in evaluations.values()) / len(evaluations) if complete else None,
        test_ynn=sum(e["test_ynn"] for e in evaluations.values()) / len(evaluations) if complete else None,
        counts=counts_delta(counts1, counts0),
        stamp=procs.machine_stamp(os.getcwd()),
    )


def run_server(artifact: str, workers: int, recorder) -> None:
    from repro.serving.service import serve_artifact

    service = serve_artifact(artifact, port=0, workers=workers)
    service.start()
    send("ready", pid=os.getpid(), port=service.address[1])
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "sample":
                tree = [os.getpid()] + procs.descendants(os.getpid())
                send(
                    "sample",
                    t=time.perf_counter(),
                    per_pid_cpu={str(p): procs.process_cpu_s(p) for p in tree},
                    **procs.tree_sample(),
                )
            elif command == "stamp":
                send("stamp", stamp=procs.machine_stamp(os.getcwd()))
            elif command == "stop":
                break
    finally:
        service.stop()
        if recorder is not None:
            recorder.dump()
    send("stopped")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("fit", "tune", "serve"))
    parser.add_argument("--seed", type=int, default=quality.DEFAULT_SEED)
    parser.add_argument("--artifact")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_dir:
        from perfbench import spans

        recorder = spans.Recorder(args.trace_dir, "main")
        targets = spans.FIT_TARGETS + (spans.SERVE_TARGETS if args.role == "serve" else [])
        spans.install(recorder, targets)
    if args.role == "serve":
        run_server(args.artifact, args.workers, recorder)
    else:
        run_fit_like(args.role, args.seed, recorder)
    return 0


if __name__ == "__main__":
    sys.exit(main())
