"""Machine-readable performance trajectory for the core hot path.

Times the operations every experiment and serving request funnels
through — ``IFairObjective.loss_and_grad`` (full and sampled pairs at
``p = 2``, sampled pairs at ``p = 3``), ``IFair.fit``,
``IFair.transform``, single-record serving latency, and
the end-to-end hyper-parameter tuning loop (serial exhaustive vs
process-parallel vs successive halving) — and appends one labelled
entry to a JSON trajectory file (``BENCH_core.json`` by default).

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py --quick
    PYTHONPATH=src python benchmarks/run_bench.py --label post-gemm \
        --out BENCH_core.json --tune-jobs 4
    PYTHONPATH=src python benchmarks/run_bench.py --quick \
        --compare BENCH_core.json --tolerance 3.0
    PYTHONPATH=src python benchmarks/run_bench.py --quick --scaling \
        --label ci-scaling --out BENCH_ci.json

``--quick`` keeps the whole run in the seconds range (CI smoke);
without it each timing uses more repeats for stabler numbers.
``--tune-jobs`` sets the parallel worker count of the tuning rows
(default 4; CI uses 2 to match its runner).

Every entry is stamped with the CPU count, the affinity mask size, the
cgroup ``cpu.max`` quota and each OpenBLAS library with its inherited
thread count.  The oracle rows run at one BLAS thread, as ``IFair.fit``
runs them (:mod:`repro.utils.blas`); each has an ungated
``*_unscoped_s`` twin timed at the inherited count.

``--compare BASELINE.json`` is the CI perf-regression gate: after the
run, every metric in :data:`GATE_LOWER_IS_BETTER` is compared against
the most recent baseline entry carrying it, and the process exits
non-zero when any is slower than ``(1 + tolerance) x`` the baseline
(or a :data:`GATE_MUST_STAY_TRUE` flag flipped to false).  Gated
metrics are restricted to shapes identical under ``--quick`` and full
runs, so a CI smoke run can be held against the committed full-run
trajectory.

``--scaling`` replaces the full bench with the multi-core scaling
measurement of ROADMAP residual (a): the quick tuning grid is run
exhaustively at ``n_jobs=1`` and ``n_jobs=2`` and the measured
speedup is appended as its own entry — observed scaling on the
runner's real cores, not asserted scaling.

``--load`` replaces the full bench with the serving-tier load rows
only (:mod:`bench_load`): sustained RPS at ``workers=1`` vs
``workers=2`` over real sockets, with two blue/green reloads fired
mid-traffic.  The full bench includes the same rows, so CI smoke runs
gate them either way.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.executor import get_shared, shutdown_session_pools
from repro.core.model import IFair
from repro.core.objective import IFairObjective
from repro.core.tuning import GridSearch, HalvingConfig, TuningCriterion
from repro.data.census import generate_census
from repro.data.schema import TabularDataset
from repro.exceptions import ValidationError
from repro.data.splits import stratified_split
from repro.learners.logistic import LogisticRegression
from repro.learners.scaler import StandardScaler
from repro.metrics.classification import roc_auc
from repro.metrics.individual import consistency
from repro.serving.engine import InferenceEngine
from repro.serving.fit import fit_serving_pipeline
from repro.telemetry.tracing import disable_tracing, enable_tracing, get_tracer
from repro.utils import blas

# The ISSUE-2 acceptance configuration for the oracle timings.
M, N, K = 2000, 40, 10
PROTECTED = [38, 39]

# The ISSUE-4 tuning benchmark: the paper's protocol shape (best-of-3
# restarts, mixture x prototype grid) on a census sample, with widely
# spaced mixtures so the three criteria have clear winners.  Seeded:
# the halving-agreement check below is pinned to this configuration.
TUNE_SEED = 11
TUNE_RECORDS = 500
TUNE_MIXTURES = (0.01, 1.0, 100.0)
TUNE_PROTOTYPES = (4, 8, 12)
TUNE_RESTARTS = 3
TUNE_MAX_ITER = 64
TUNE_HALVING = HalvingConfig(n_rungs=3, promote_fraction=0.2)


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls (after warmup)."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _time_oracle(timings: dict, key: str, obj, theta, repeats: int) -> None:
    """Time ``obj.loss_and_grad`` as a fit runs it.

    ``key`` is timed at one BLAS thread, the count ``IFair.fit`` sets;
    ``<key>_unscoped_s`` keeps the time at the process's inherited
    thread count beside it (not gated).
    """
    with blas.limit(1):
        timings[key] = _best_of(lambda: obj.loss_and_grad(theta), repeats)
    timings[key[: -len("_s")] + "_unscoped_s"] = _best_of(
        lambda: obj.loss_and_grad(theta), repeats
    )


def bench_loss_and_grad(repeats: int) -> dict:
    rng = np.random.default_rng(0)
    X = rng.normal(size=(M, N))
    theta = np.random.default_rng(1).uniform(0.1, 0.9, size=K * N + N)
    timings = {}
    # The "_fast" in the p = 2 keys names the GEMM distance kernels;
    # the keys keep their names so the trajectory stays comparable.
    for pairs_label, max_pairs in (("full", None), ("sampled50k", 50_000)):
        obj = IFairObjective(
            X, PROTECTED, n_prototypes=K, max_pairs=max_pairs, random_state=0
        )
        key = f"loss_and_grad_{pairs_label}_fast_s"
        _time_oracle(timings, key, obj, theta, repeats)
    # Generic p: row-blocked Minkowski distance kernels.
    obj_p3 = IFairObjective(
        X, PROTECTED, n_prototypes=K, p=3.0, max_pairs=50_000, random_state=0
    )
    _time_oracle(timings, "loss_and_grad_sampled50k_p3_s", obj_p3, theta, repeats)
    return timings


def bench_landmark(repeats: int, quick: bool) -> dict:
    """Landmark oracle at large M against the exact full-pair oracle.

    At ``M = 20,000`` a dense full-pair target would be an (M, M)
    float64 matrix (3.2 GB).  The moment-form full-pair oracle runs in
    O(M * N^2) at every ``p`` and provides the exact fairness value the
    landmark rows are scored against (``landmark*_fair_rel_err``), so
    each entry records the accuracy-vs-cost frontier of the mode.
    """
    m = 4000 if quick else 20_000
    rng = np.random.default_rng(5)
    X = rng.normal(size=(m, N))
    theta = np.random.default_rng(6).uniform(0.1, 0.9, size=K * N + N)
    timings: dict = {"landmark_M": m}

    exact = IFairObjective(
        X, PROTECTED, n_prototypes=K, random_state=0
    )  # moment-form full pair
    _, fair_exact = exact.loss_components(theta)
    _time_oracle(timings, "loss_and_grad_full_fast_largeM_s", exact, theta, repeats)

    for n_land in (64, 256):
        obj = IFairObjective(
            X,
            PROTECTED,
            n_prototypes=K,
            pair_mode="landmark",
            n_landmarks=n_land,
            random_state=0,
        )
        _, fair_lm = obj.loss_components(theta)
        _time_oracle(timings, f"loss_and_grad_landmark{n_land}_s", obj, theta, repeats)
        timings[f"landmark{n_land}_fair_rel_err"] = abs(fair_lm - fair_exact) / fair_exact

    # Generic p: row-blocked distance kernels (no (M, K, N) tensor)
    # under the same moment-form and landmark fairness kernels.
    exact_p3 = IFairObjective(X, PROTECTED, n_prototypes=K, p=3.0, random_state=0)
    _, fair_exact_p3 = exact_p3.loss_components(theta)
    _time_oracle(timings, "loss_and_grad_full_p3_largeM_s", exact_p3, theta, repeats)
    obj_p3 = IFairObjective(
        X,
        PROTECTED,
        n_prototypes=K,
        p=3.0,
        pair_mode="landmark",
        n_landmarks=128,
        random_state=0,
    )
    _, fair_lm_p3 = obj_p3.loss_components(theta)
    _time_oracle(timings, "loss_and_grad_landmark128_p3_s", obj_p3, theta, repeats)
    timings["landmark128_p3_fair_rel_err"] = abs(fair_lm_p3 - fair_exact_p3) / fair_exact_p3
    return timings


def bench_fit(repeats: int) -> dict:
    rng = np.random.default_rng(2)
    X = rng.normal(size=(400, 20))

    def fit(n_jobs=None, backend="process", pool="per-call"):
        return IFair(
            n_prototypes=8,
            n_restarts=2,
            max_iter=30,
            max_pairs=5000,
            n_jobs=n_jobs,
            backend=backend,
            pool=pool,
            random_state=0,
        ).fit(X, [19])

    timings = {
        "fit_M400_N20_K8_r2_s": _best_of(fit, repeats),
        # jobs2 restarts now fork real worker processes (PR 4); the
        # thread row keeps the old GIL-bound escape hatch measurable.
        "fit_M400_N20_K8_r2_jobs2_s": _best_of(lambda: fit(2), repeats),
        "fit_M400_N20_K8_r2_jobs2_thread_s": _best_of(
            lambda: fit(2, "thread"), repeats
        ),
        # The session-pool row (ROADMAP residual (b)): _best_of's
        # warm-up call primes the broker pool and publishes X into the
        # arena cache, so every timed fit measures the warm path — no
        # worker spawn, no re-broadcast.
        "fit_M400_N20_K8_r2_jobs2_warm_s": _best_of(
            lambda: fit(2, pool="session"), repeats
        ),
    }
    timings["fit_warm_pool_parity"] = bool(
        np.array_equal(fit().theta_, fit(2, pool="session").theta_)
    )
    shutdown_session_pools()
    return timings


def bench_transform(repeats: int) -> dict:
    rng = np.random.default_rng(3)
    model = IFair(
        n_prototypes=K, n_restarts=1, max_iter=10, max_pairs=2000, random_state=0
    ).fit(rng.normal(size=(300, N)), [39])
    X = rng.normal(size=(M, N))
    return {"transform_M2000_N40_K10_s": _best_of(lambda: model.transform(X), repeats)}


def _serving_engine(n: int = 12):
    """A small fitted engine for the serving-latency rows."""
    rng = np.random.default_rng(4)
    m = 400
    X = rng.normal(size=(m, n))
    X[:, n - 1] = (rng.random(m) > 0.5).astype(float)
    dataset = TabularDataset(
        name="bench",
        X=X,
        y=(rng.random(m) > 0.5).astype(float),
        protected=X[:, n - 1].copy(),
        protected_indices=[n - 1],
        task="classification",
    )
    artifact = fit_serving_pipeline(dataset, n_prototypes=8, max_iter=40, random_state=0)
    return InferenceEngine(artifact, cache_size=0), rng


def _serving_latencies(engine, rng, n: int, samples: int) -> list:
    """Sorted single-record transform latencies after warm-up."""
    # Warm-up phase: the first calls pay allocator growth and code-path
    # warming that steady-state traffic never sees; without it the p99
    # row measures cold-start noise instead of the hot loop.
    for _ in range(100):
        record = rng.normal(size=(1, n))
        record[0, n - 1] = 0.0
        engine.transform(record)
    latencies = []
    for _ in range(samples):
        record = rng.normal(size=(1, n))
        record[0, n - 1] = 0.0
        start = time.perf_counter()
        engine.transform(record)
        latencies.append(time.perf_counter() - start)
    latencies.sort()
    return latencies


def bench_serving(repeats: int) -> dict:
    n = 12
    engine, rng = _serving_engine(n)
    latencies = _serving_latencies(engine, rng, n, max(300, repeats * 100))
    return {
        "serving_transform_1rec_p50_s": latencies[len(latencies) // 2],
        "serving_transform_1rec_p99_s": latencies[int(len(latencies) * 0.99)],
    }


def bench_load_rows(quick: bool) -> dict:
    """Serving-tier sustained-RPS rows (PR 7), from :mod:`bench_load`.

    Lazily imported by path so this module stays loadable standalone
    (the gate's unit tests exec it outside a package context).
    """
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import bench_load

    return bench_load.bench_workers(quick=quick)


def bench_sharded_rows(quick: bool) -> dict:
    """Sharded landmark-oracle rows (PR 8), from :mod:`bench_sharded`.

    Quick runs time the M = 100k sharded fit and the parity flag; full
    runs add the M = 1,000,000 acceptance rows.
    """
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import bench_sharded

    return bench_sharded.bench_sharded(quick=quick)


def bench_chaos_rows(quick: bool) -> dict:
    """Serving chaos-soak rows (PR 9), from :mod:`bench_chaos`.

    Correctness under injected worker faults: error/shed rates, p99 of
    verified answers, deadline kills and respawns, with two blue/green
    reloads fired mid-chaos.
    """
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import bench_chaos

    return bench_chaos.bench_chaos(quick=quick)


def bench_online_rows(quick: bool) -> dict:
    """Online drift-response rows (PR 10), from :mod:`bench_online`.

    The closed loop under live traffic: warm-refit latency, wall time
    from injected covariate shift to the blue/green reload landing,
    and the client-observed p99 during the swap.
    """
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import bench_online

    return bench_online.bench_online(quick=quick)


# ----------------------------------------------------------------------
# telemetry overhead (PR 6)

#: Allowed slowdown of tracing-on over tracing-off.  The fit row is
#: tens of milliseconds, so span bookkeeping (a handful per restart)
#: must vanish into it; the serving row is single-record microseconds,
#: where one span per model pass is measurable but must stay bounded.
TELEMETRY_FIT_TOLERANCE = 0.25
TELEMETRY_SERVING_TOLERANCE = 1.0


def bench_telemetry(repeats: int, trace_out=None) -> dict:
    """Overhead of the observability layer on the PR-5 acceptance rows.

    The metrics registry is always on (counters/histograms are part of
    the request and fit paths by design); the toggle this measures is
    span tracing, the only telemetry component with an off switch.
    Each row times the identical workload with tracing disabled and
    enabled; ``telemetry_overhead_ok`` is the in-run gate, and the
    flag also rides the CI ``GATE_MUST_STAY_TRUE`` list.

    ``trace_out`` (a path) dumps the tracing-on fit's span timeline as
    a JSON file — the CI workflow uploads it as an artifact.
    """
    rng = np.random.default_rng(2)
    X = rng.normal(size=(400, 20))

    def fit():
        return IFair(
            n_prototypes=8,
            n_restarts=2,
            max_iter=30,
            max_pairs=5000,
            random_state=0,
        ).fit(X, [19])

    disable_tracing()
    fit_off = _best_of(fit, repeats)
    tracer = enable_tracing()
    tracer.clear()
    try:
        fit_on = _best_of(fit, repeats)
        if trace_out is not None:
            tracer.dump_json(str(trace_out))
    finally:
        disable_tracing()
        tracer.clear()

    n = 12
    engine, serving_rng = _serving_engine(n)
    samples = max(300, repeats * 100)
    p50_off = _serving_latencies(engine, serving_rng, n, samples)[samples // 2]
    enable_tracing()
    try:
        p50_on = _serving_latencies(engine, serving_rng, n, samples)[samples // 2]
    finally:
        disable_tracing()
        get_tracer().clear()

    fit_ratio = fit_on / fit_off
    serving_ratio = p50_on / p50_off
    return {
        "telemetry_fit_off_s": fit_off,
        "telemetry_fit_on_s": fit_on,
        "telemetry_fit_overhead_ratio": fit_ratio,
        "telemetry_serving_p50_off_s": p50_off,
        "telemetry_serving_p50_on_s": p50_on,
        "telemetry_serving_overhead_ratio": serving_ratio,
        "telemetry_overhead_ok": bool(
            fit_ratio <= 1.0 + TELEMETRY_FIT_TOLERANCE
            and serving_ratio <= 1.0 + TELEMETRY_SERVING_TOLERANCE
        ),
    }


# ----------------------------------------------------------------------
# end-to-end tuning throughput (ISSUE 4)


def _tune_candidate_build(spec: dict, params: dict) -> IFair:
    """Fit one tuning candidate from the shared-memory broadcast."""
    shared = get_shared()
    return IFair(init="protected_zero", random_state=spec["seed"], **params).fit(
        shared["X"][shared["train"]], spec["protected_indices"]
    )


def _tune_candidate_evaluate(spec: dict, model: IFair) -> tuple:
    """Validation (AUC, yNN) of one candidate, as in Section V-B."""
    shared = get_shared()
    X, y, X_star = shared["X"], shared["y"], shared["X_star"]
    train, val = shared["train"], shared["val"]
    clf = LogisticRegression(l2=1.0).fit(model.transform(X[train]), y[train])
    proba = clf.predict_proba(model.transform(X[val]))
    pred = (proba >= 0.5).astype(np.float64)
    try:
        auc = float(roc_auc(y[val], proba))
    except ValidationError:  # single-class split: score as NaN, keep timing
        auc = float("nan")
    ynn = float(consistency(X_star[val], pred, k=10))
    return auc, ynn


def _tuning_setup(quick: bool):
    """Grid, spec and shared arrays of the seeded tuning benchmark.

    Quick mode (CI smoke) shrinks the dataset and grid; both shapes
    are seeded configurations whose halving agreement is pinned.
    """
    records = 250 if quick else TUNE_RECORDS
    prototypes = (4, 8) if quick else TUNE_PROTOTYPES
    max_iter = 48 if quick else TUNE_MAX_ITER
    dataset = generate_census(records, random_state=TUNE_SEED)
    split = stratified_split(dataset.y, random_state=TUNE_SEED)
    scaler = StandardScaler().fit(dataset.X[split.train])
    X = scaler.transform(dataset.X)
    grid = [
        {
            "lambda_util": lam,
            "mu_fair": mu,
            "n_prototypes": k,
            "n_restarts": TUNE_RESTARTS,
            "max_iter": max_iter,
            "max_pairs": 2000,
        }
        for lam, mu, k in itertools.product(
            TUNE_MIXTURES, TUNE_MIXTURES, prototypes
        )
    ]
    spec = {
        "seed": TUNE_SEED,
        "protected_indices": [int(i) for i in np.atleast_1d(dataset.protected_indices)],
    }
    shared = {
        "X": X,
        "X_star": X[:, dataset.nonprotected_indices],
        "y": dataset.y,
        "train": split.train,
        "val": split.val,
    }
    return grid, spec, shared


def _run_tune_mode(grid, spec, shared, n_jobs, strategy, pool="per-call"):
    """One timed GridSearch run over the benchmark problem."""
    search = GridSearch(
        partial(_tune_candidate_build, spec),
        partial(_tune_candidate_evaluate, spec),
        grid,
        n_jobs=n_jobs,
        strategy=strategy,
        halving=TUNE_HALVING,
        keep_artifacts=False,
        shared=shared,
        pool=pool,
    )
    start = time.perf_counter()
    result = search.run()
    return time.perf_counter() - start, result


def bench_tuning(tune_jobs: int, quick: bool = False) -> dict:
    """Wall-clock of the experiment tuning loop, four execution modes.

    Serial exhaustive is the paper protocol baseline; ``jobs=J``
    exhaustive isolates the process-pool scaling (≈ J x on a J-core
    machine, ≈ 1 x on a single core — ``tuning_cpu_count`` records
    which one this entry measured); halving isolates the algorithmic
    cut (independent of cores); jobs+halving is the shipped
    configuration and the headline ``tuning_speedup_parallel`` row.
    Every mode must select the same candidate under all three criteria
    — the ``halving_agree_*`` flags record it.
    """
    grid, spec, shared = _tuning_setup(quick)

    def run_mode(n_jobs, strategy):
        return _run_tune_mode(grid, spec, shared, n_jobs, strategy)

    t_serial, r_serial = run_mode(None, "exhaustive")
    t_jobs, r_jobs = run_mode(tune_jobs, "exhaustive")
    t_halving, r_halving = run_mode(None, "halving")
    t_both, r_both = run_mode(tune_jobs, "halving")

    timings = {
        "tuning_grid_points": len(grid),
        "tuning_cpu_count": os.cpu_count(),
        "tuning_jobs": tune_jobs,
        "tuning_serial_exhaustive_s": t_serial,
        f"tuning_jobs{tune_jobs}_exhaustive_s": t_jobs,
        "tuning_serial_halving_s": t_halving,
        f"tuning_jobs{tune_jobs}_halving_s": t_both,
        "tuning_halving_fits": r_halving.n_fits,
        "tuning_exhaustive_fits": r_serial.n_fits,
        "tuning_speedup_jobs": t_serial / t_jobs,
        "tuning_speedup_halving": t_serial / t_halving,
        # The shipped configuration (n_jobs=J + halving) against the
        # paper-protocol baseline — the headline acceptance row.
        "tuning_speedup_parallel": t_serial / t_both,
    }
    for criterion in TuningCriterion:
        winner = r_serial.best(criterion).order
        timings[f"halving_agree_{criterion.value}"] = bool(
            r_halving.best(criterion).order == winner
            and r_both.best(criterion).order == winner
        )
        timings[f"jobs_agree_{criterion.value}"] = bool(
            r_jobs.best(criterion).order == winner
        )
    return timings


def bench_tune_scaling(quick: bool = True, jobs: tuple = (1, 2)) -> dict:
    """Measured multi-core tuning scaling (ROADMAP residual (a)).

    Runs the exhaustive tuning grid at each worker count in ``jobs``
    and records the observed speedups relative to the first entry —
    on a multi-core runner this is the first *measured* (not asserted)
    scaling row of the trajectory.  No assertion is made about the
    value: on one core the expected speedup is ~1x (the executor's
    deterministic decomposition adds ~no overhead), on J >= 2 cores it
    should approach min(J, jobs).
    """
    grid, spec, shared = _tuning_setup(quick)
    timings: dict = {
        "scaling_grid_points": len(grid),
        "tuning_cpu_count": os.cpu_count(),
        "scaling_jobs": list(jobs),
    }
    reference = None
    for n_jobs in jobs:
        seconds, _ = _run_tune_mode(
            grid, spec, shared, None if n_jobs == 1 else n_jobs, "exhaustive"
        )
        timings[f"scaling_jobs{n_jobs}_s"] = seconds
        if reference is None:
            reference = seconds
        else:
            timings[f"scaling_speedup_jobs{n_jobs}"] = reference / seconds
    return timings


# ----------------------------------------------------------------------
# CI perf-regression gate

#: Timing metrics (seconds, lower is better) whose problem shapes are
#: identical under --quick and full runs, so a CI smoke entry can be
#: gated against the committed full-run trajectory.  Deliberately
#: excluded: landmark rows (M differs between quick and full) and the
#: absolute tuning rows (records/grid/machine-core dependent).
GATE_LOWER_IS_BETTER = (
    "loss_and_grad_full_fast_s",
    "loss_and_grad_sampled50k_fast_s",
    "loss_and_grad_sampled50k_p3_s",
    "fit_M400_N20_K8_r2_s",
    "fit_M400_N20_K8_r2_jobs2_s",
    "fit_M400_N20_K8_r2_jobs2_warm_s",
    "transform_M2000_N40_K10_s",
    "serving_transform_1rec_p50_s",
    "serving_transform_1rec_p99_s",
    # Load rows keep a quick-identical shape (same clients/batch; only
    # the measured duration differs), so they gate like the others.
    "load_workers1_p50_s",
    "load_workers2_p50_s",
    # Sharded-oracle fit at M = 100k: quick and full runs use the
    # identical shape (the M = 1e6 rows are full-run-only, not gated).
    "m1e5_fit_s",
)

#: Correctness flags that must never flip to false once recorded true
#: (selection agreement across execution modes, warm-pool parity).
GATE_MUST_STAY_TRUE = (
    "halving_agree_max_utility",
    "halving_agree_max_fairness",
    "halving_agree_optimal",
    "jobs_agree_max_utility",
    "jobs_agree_max_fairness",
    "jobs_agree_optimal",
    "fit_warm_pool_parity",
    "telemetry_overhead_ok",
    # Serving-tier scaling flags: thresholds are cpu-count-conditioned
    # inside bench_load (strict on the 2-core CI runner), so the flag
    # itself is machine-portable and must stay true everywhere.
    "workers2_rps_speedup_ok",
    "workers2_p99_ok",
    "reload_under_load_ok",
    # Sharded oracle == single-process oracle (rtol 1e-10) AND bitwise
    # n_jobs-independence at a fixed shard plan.
    "sharded_parity_ok",
    # Chaos soak: zero non-shed errors / wrong answers under the
    # injected fault mix with reloads mid-chaos, and any shed answer
    # well-formed with the success p99 inside the retry envelope
    # (envelope slack is cpu-count-conditioned inside bench_chaos).
    "chaos_error_rate_ok",
    "chaos_shed_p99_ok",
    # Online drift response: the closed loop must land (refit + reload
    # + checksum change + online_version on the served artifact) with
    # zero controller failures and zero client errors.
    "online_refit_ok",
    "drift_reload_ok",
)


def baseline_value(doc: dict, key: str):
    """Most recent baseline entry carrying ``key`` (None if absent)."""
    for entry in reversed(doc.get("entries", [])):
        if key in entry:
            return entry[key]
    return None


def compare_to_baseline(entry: dict, doc: dict, tolerance: float) -> list:
    """Gate ``entry`` against a trajectory; returns violation strings.

    A timing metric fails when it exceeds ``(1 + tolerance)`` times
    its baseline (tolerance absorbs machine differences between the
    committed trajectory and the CI runner — order-of-magnitude
    regressions still trip it); a flag fails when the baseline was
    true and the entry is false.  Metrics missing on either side are
    skipped: the gate compares, it does not enforce coverage.
    """
    if tolerance < 0:
        raise ValidationError("tolerance must be non-negative")
    violations = []
    for key in GATE_LOWER_IS_BETTER:
        base = baseline_value(doc, key)
        current = entry.get(key)
        if base is None or current is None or base <= 0:
            continue
        ratio = current / base
        if ratio > 1.0 + tolerance:
            violations.append(
                f"{key}: {current:.6g}s is {ratio:.2f}x baseline "
                f"{base:.6g}s (allowed {1.0 + tolerance:.2f}x)"
            )
    for key in GATE_MUST_STAY_TRUE:
        base = baseline_value(doc, key)
        current = entry.get(key)
        if base is True and current is False:
            violations.append(f"{key}: flipped to false (baseline true)")
    return violations


def _cgroup_cpu_max() -> str:
    """The cgroup CPU quota as ``"<quota|max> <period>"`` (v2 or v1)."""
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as fh:
            quota = fh.read().strip()
        with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us") as fh:
            period = fh.read().strip()
    except OSError:
        return "unknown"
    return f"{'max' if quota == '-1' else quota} {period}"


def _new_entry(label: str, quick: bool) -> dict:
    """An entry stamped with the machine and BLAS set-up it measures.

    The thread counts are read before any timing, so they are the
    inherited defaults; fit and oracle rows run at one thread on top of
    them (:mod:`repro.utils.blas`).
    """
    return {
        "label": label,
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _cgroup_cpu_max(),
        "blas_threads": blas.thread_counts(),
    }


def run(label: str, quick: bool, tune_jobs: int, trace_out=None) -> dict:
    repeats = 3 if quick else 10
    entry = _new_entry(label, quick)
    entry["config"] = {"M": M, "N": N, "K": K, "p": 2.0}
    entry.update(bench_loss_and_grad(repeats))
    entry.update(bench_landmark(repeats, quick))
    # Fit rows carry the warm-pool acceptance claim; give them the
    # full repeat budget (each is only tens of milliseconds).
    entry.update(bench_fit(repeats))
    entry.update(bench_transform(repeats))
    entry.update(bench_serving(repeats))
    entry.update(bench_load_rows(quick))
    entry.update(bench_sharded_rows(quick))
    entry.update(bench_chaos_rows(quick))
    entry.update(bench_online_rows(quick))
    entry.update(bench_telemetry(repeats, trace_out=trace_out))
    entry.update(bench_tuning(tune_jobs, quick=quick))
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument("--label", default="run", help="entry label in the trajectory")
    parser.add_argument(
        "--out", default="BENCH_core.json", help="trajectory JSON file to append to"
    )
    parser.add_argument(
        "--tune-jobs",
        type=int,
        default=4,
        help="worker count of the parallel tuning rows (default 4)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="TRACE.json",
        default=None,
        help=(
            "dump the tracing-enabled fit's span timeline to this JSON "
            "file (CI uploads it as a workflow artifact)"
        ),
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help=(
            "only measure tuning wall-clock at n_jobs=1 vs n_jobs=2 "
            "and append the observed multi-core scaling entry"
        ),
    )
    parser.add_argument(
        "--load",
        action="store_true",
        help=(
            "only measure the serving tier under concurrent HTTP load "
            "(workers=1 vs workers=2 + blue/green reload) and append "
            "the observed scaling entry"
        ),
    )
    parser.add_argument(
        "--sharded",
        action="store_true",
        help=(
            "only measure the sharded landmark-oracle rows (M = 100k "
            "fit + parity flag; with no --quick also the M = 1,000,000 "
            "acceptance fits) and append the entry"
        ),
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "only measure the serving tier under injected worker "
            "faults (crash/hang/slow/corrupt + blue/green reloads "
            "mid-chaos) and append the correctness-under-faults entry"
        ),
    )
    parser.add_argument(
        "--online",
        action="store_true",
        help=(
            "only measure the online drift-response loop (warm-refit "
            "latency, drift-to-reload wall time, served p99 during "
            "the hot swap) and append the entry"
        ),
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE.json",
        default=None,
        help=(
            "perf-regression gate: compare this run's entry against "
            "the trajectory in BASELINE.json and exit non-zero on a "
            "regression beyond --tolerance"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help=(
            "allowed slowdown fraction for --compare (0.5 = 1.5x the "
            "baseline; CI uses a larger value to absorb runner-vs-"
            "baseline machine differences)"
        ),
    )
    args = parser.parse_args()

    # Snapshot the baseline BEFORE running/appending: with --out and
    # --compare naming the same trajectory (the documented local
    # usage), gating after the write would compare the new entry
    # against itself and pass vacuously.  Reading first also fails
    # fast on a missing baseline instead of after minutes of bench.
    baseline_doc = None
    if args.compare is not None:
        baseline_path = Path(args.compare)
        if not baseline_path.exists():
            print(f"error: baseline {baseline_path} not found", file=sys.stderr)
            raise SystemExit(2)
        baseline_doc = json.loads(baseline_path.read_text())

    single_mode = (
        args.scaling or args.load or args.sharded or args.chaos or args.online
    )
    if single_mode:
        entry = _new_entry(args.label, args.quick)
        if args.scaling:
            entry.update(bench_tune_scaling(args.quick))
        if args.load:
            entry.update(bench_load_rows(args.quick))
        if args.sharded:
            entry.update(bench_sharded_rows(args.quick))
        if args.chaos:
            entry.update(bench_chaos_rows(args.quick))
        if args.online:
            entry.update(bench_online_rows(args.quick))
    else:
        entry = run(args.label, args.quick, args.tune_jobs, trace_out=args.trace_out)
    path = Path(args.out)
    if path.exists():
        doc = json.loads(path.read_text())
    else:
        doc = {"benchmark": "core-ops", "entries": []}
    doc["entries"].append(entry)
    path.write_text(json.dumps(doc, indent=2) + "\n")

    print(f"wrote {path} ({len(doc['entries'])} entries)")
    if args.scaling:
        jobs = entry["scaling_jobs"]
        speedups = ", ".join(
            f"jobs{j} {entry[f'scaling_jobs{j}_s']:.2f} s"
            + (
                f" ({entry[f'scaling_speedup_jobs{j}']:.2f}x)"
                if f"scaling_speedup_jobs{j}" in entry
                else ""
            )
            for j in jobs
        )
        print(
            f"tuning scaling ({entry['scaling_grid_points']}-point grid, "
            f"{entry['tuning_cpu_count']} cpus): {speedups}"
        )
    if "load_workers1_rps" in entry:
        import bench_load  # already on sys.path via bench_load_rows

        bench_load.print_summary(entry)
    if "m1e5_fit_s" in entry:
        sharded = (
            f"sharded oracle: M=1e5 fit {entry['m1e5_fit_s']:.2f} s, "
            f"parity {'OK' if entry['sharded_parity_ok'] else 'BROKEN'}"
        )
        if "m1e6_fit_s" in entry:
            sharded += (
                f"; M=1e6 fit {entry['m1e6_fit_s']:.2f} s, stochastic "
                f"{entry['m1e6_stochastic_fit_s']:.2f} s"
            )
        print(sharded)
    if "chaos_rps" in entry:
        import bench_chaos  # already on sys.path via bench_chaos_rows

        bench_chaos.print_summary(entry)
    if "online_drift_to_reload_s" in entry:
        import bench_online  # already on sys.path via bench_online_rows

        bench_online.print_summary(entry)
    if single_mode:
        _gate_and_exit(args, entry, baseline_doc)
        return
    _print_summary(entry)
    _gate_and_exit(args, entry, baseline_doc)


def _print_summary(entry: dict) -> None:
    """Human-readable digest of one full bench entry."""
    if "loss_and_grad_full_fast_s" not in entry:
        return  # partial entry (e.g. a stubbed run in tests)
    print(
        "loss_and_grad: full "
        f"{entry['loss_and_grad_full_fast_s'] * 1e3:.2f} ms, 50k sampled "
        f"{entry['loss_and_grad_sampled50k_fast_s'] * 1e3:.2f} ms, 50k sampled "
        f"p=3 {entry['loss_and_grad_sampled50k_p3_s'] * 1e3:.2f} ms"
    )
    print(
        f"landmark @ M={entry['landmark_M']}: L=64 "
        f"{entry['loss_and_grad_landmark64_s'] * 1e3:.2f} ms "
        f"(fair rel err {entry['landmark64_fair_rel_err']:.2e}), L=256 "
        f"{entry['loss_and_grad_landmark256_s'] * 1e3:.2f} ms "
        f"(rel err {entry['landmark256_fair_rel_err']:.2e}); p=3: full "
        f"{entry['loss_and_grad_full_p3_largeM_s'] * 1e3:.2f} ms, L=128 "
        f"{entry['loss_and_grad_landmark128_p3_s'] * 1e3:.2f} ms "
        f"(rel err {entry['landmark128_p3_fair_rel_err']:.2e})"
    )
    print(
        "fit M400 jobs2: cold pool "
        f"{entry['fit_M400_N20_K8_r2_jobs2_s'] * 1e3:.1f} ms, warm session "
        f"pool {entry['fit_M400_N20_K8_r2_jobs2_warm_s'] * 1e3:.1f} ms "
        f"(serial {entry['fit_M400_N20_K8_r2_s'] * 1e3:.1f} ms), parity "
        f"{'OK' if entry['fit_warm_pool_parity'] else 'BROKEN'}"
    )
    print(
        "telemetry overhead: fit "
        f"{entry['telemetry_fit_overhead_ratio']:.3f}x, serving p50 "
        f"{entry['telemetry_serving_overhead_ratio']:.3f}x "
        f"({'OK' if entry['telemetry_overhead_ok'] else 'OVER TOLERANCE'})"
    )
    jobs = entry["tuning_jobs"]
    agree = all(
        entry[f"halving_agree_{c.value}"] and entry[f"jobs_agree_{c.value}"]
        for c in TuningCriterion
    )
    print(
        f"tuning ({entry['tuning_grid_points']}-point grid, "
        f"{entry['tuning_cpu_count']} cpus): serial exhaustive "
        f"{entry['tuning_serial_exhaustive_s']:.2f} s, jobs={jobs} "
        f"{entry[f'tuning_jobs{jobs}_exhaustive_s']:.2f} s "
        f"({entry['tuning_speedup_jobs']:.2f}x), halving "
        f"{entry['tuning_serial_halving_s']:.2f} s "
        f"({entry['tuning_speedup_halving']:.2f}x, "
        f"{entry['tuning_halving_fits']} fits vs "
        f"{entry['tuning_exhaustive_fits']}), jobs+halving "
        f"{entry[f'tuning_jobs{jobs}_halving_s']:.2f} s; best "
        f"{entry['tuning_speedup_parallel']:.2f}x, selection agreement "
        f"{'OK' if agree else 'BROKEN'} under all three criteria"
    )


def _gate_and_exit(args, entry: dict, baseline_doc) -> None:
    """Apply the --compare regression gate; exits non-zero on failure.

    ``baseline_doc`` was loaded before this run's entry was appended,
    so the gate never compares an entry against itself.
    """
    if baseline_doc is None:
        return
    violations = compare_to_baseline(entry, baseline_doc, args.tolerance)
    if not violations:
        print(
            f"perf gate vs {args.compare}: OK "
            f"(tolerance {args.tolerance:.2f})"
        )
        return
    print(
        f"perf gate vs {args.compare}: {len(violations)} regression(s) "
        f"beyond tolerance {args.tolerance:.2f}:",
        file=sys.stderr,
    )
    for violation in violations:
        print(f"  - {violation}", file=sys.stderr)
    raise SystemExit(1)


if __name__ == "__main__":
    main()
