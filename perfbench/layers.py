"""Per-layer metrics from the traced run's spans and the program's own counts.

Span rows are ``[id, name, start, end, parent, ctx, thread, attrs]`` as
written by :mod:`perfbench.spans`.  Only spans that start inside the
timed phase count, except ``artifacts.load``, which is set-up work.
A metric whose layer does no work on a workload reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional

from perfbench.stats import percentile, percentile_allowed, self_time

#: Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "objective.calls": "count",
    "objective.self_s": "s",
    "objective.call_ms_p50": "ms",
    "objective.call_ms_p95": "ms",
    "kernels.dists_s": "s",
    "kernels.backward_s": "s",
    "kernels.softmax_s": "s",
    "kernels.fair_s": "s",
    "kernels.gflop_computed": "Gflop",
    "kernels.gbyte_computed": "GB",
    "model.restarts": "count",
    "model.lbfgs_iters": "count",
    "model.lbfgs_self_s": "s",
    "executor.pool_start_s": "s",
    "executor.tasks": "count",
    "executor.map_s": "s",
    "executor.worker_busy_s": "s",
    "executor.worker_idle_share": "ratio",
    "executor.retries": "count",
    "shm.broadcast_bytes": "bytes",
    "shm.arena_hit_ratio": "ratio",
    "tuning.fits": "count",
    "tuning.useful_fit_ratio": "ratio",
    "tuning.search_s": "s",
    "tuning.refit_s": "s",
    "evaluate.self_s": "s",
    "evaluate.knn_s": "s",
    "sched.runqueue_wait_s": "s",
    "sched.runqueue_wait_us_per_req": "us",
    "artifacts.load_s": "s",
    "http.overhead_ms_p50": "ms",
    "service.handle_us_p50": "us",
    "json.decode_us_p50": "us",
    "json.encode_us_p50": "us",
    "engine.verb_us_p50": "us",
    "engine.model_pass_us_p50": "us",
    "engine.scorer_us_p50": "us",
    "engine.cache_hit_ratio": "ratio",
    "engine.batch_flushes": "count",
    "monitor.observe_us_p50": "us",
    "monitor.checks": "count",
    "monitor.check_ms_p50": "ms",
    "monitor.cpu_share": "ratio",
    "dispatcher.hop_us_p50": "us",
    "dispatcher.parent_cpu_us_per_req": "us",
    "dispatcher.worker_cpu_us_per_req": "us",
    "dispatcher.retries": "count",
    "dispatcher.respawns": "count",
    "dispatcher.sheds": "count",
    "telemetry.delta_us_per_req": "us",
    "trace.overhead_latency_ratio": "ratio",
    "trace.overhead_cpu_ratio": "ratio",
}

_EVALUATE = ("evaluate.logreg_fit", "logreg.predict_proba", "evaluate.roc_auc", "evaluate.consistency")
_TELEMETRY = ("telemetry.snapshot", "telemetry.snapshot_diff", "telemetry.merge_snapshots")


class SpanSet:
    """Spans of one process with parent/child lookups."""

    def __init__(self, pid: int, rows: List[list]):
        self.pid = pid
        self.rows = [r for r in rows if r[3] >= r[2]]
        self.by_id = {r[0]: r for r in self.rows}
        self.children: Dict[int, List[list]] = defaultdict(list)
        for row in self.rows:
            if row[4] >= 0:
                self.children[row[4]].append(row)

    def named(self, *names: str, t0: float = float("-inf"), t1: float = float("inf")) -> List[list]:
        return [r for r in self.rows if r[1] in names and t0 <= r[2] <= t1]

    def self_s(self, row: list) -> float:
        return self_time((row[2], row[3]), [(c[2], c[3]) for c in self.children[row[0]]])

    def ancestors(self, row: list) -> Iterable[list]:
        parent = self.by_id.get(row[4])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent[4])

    def under(self, row: list, *names: str) -> bool:
        return any(a[1] in names for a in self.ancestors(row))


def _dur(row: list) -> float:
    return row[3] - row[2]


def _p50(values: List[float], scale: float = 1.0) -> float:
    return percentile(values, 50.0) * scale if values else 0.0


def _p95(values: List[float], scale: float = 1.0) -> float:
    return percentile(values, 95.0) * scale if percentile_allowed(len(values), 95.0) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _extent_by_ctx(sets: Iterable[SpanSet], t0: float, t1: float) -> Dict[object, float]:
    """Per request id: last end minus first start of its root spans."""
    lo: Dict[object, float] = {}
    hi: Dict[object, float] = {}
    for spans in sets:
        for row in spans.rows:
            if row[4] >= 0 or row[5] is None or not t0 <= row[2] <= t1:
                continue
            lo[row[5]] = min(lo.get(row[5], row[2]), row[2])
            hi[row[5]] = max(hi.get(row[5], row[3]), row[3])
    return {ctx: hi[ctx] - lo[ctx] for ctx in lo}


def fit_layers(sets: List[SpanSet], main_pid: int, t0: float, t1: float) -> Dict[str, float]:
    """Oracle, kernel, optimiser, executor, tuning and evaluation layers."""
    out: Dict[str, float] = {}
    calls = [(s, r) for s in sets for r in s.named("objective.loss_and_grad", t0=t0, t1=t1)]
    durations = [_dur(r) for _, r in calls]
    out["objective.calls"] = float(len(calls))
    out["objective.self_s"] = sum(s.self_s(r) for s, r in calls)
    out["objective.call_ms_p50"] = _p50(durations, 1e3)
    out["objective.call_ms_p95"] = _p95(durations, 1e3)

    flop = byte = 0.0
    for key, name in (("dists", "kernels.dists"), ("backward", "kernels.backward"),
                      ("softmax", "kernels.softmax"), ("fair", "kernels.fair")):
        rows = [r for s in sets for r in s.named(name, t0=t0, t1=t1)]
        out[f"kernels.{key}_s"] = sum(_dur(r) for r in rows)
        flop += sum((r[7] or {}).get("flop", 0.0) for r in rows)
        byte += sum((r[7] or {}).get("byte", 0.0) for r in rows)
    out["kernels.gflop_computed"] = flop / 1e9
    out["kernels.gbyte_computed"] = byte / 1e9

    minimizes = [
        (s, r) for s in sets for r in s.named("model.minimize", t0=t0, t1=t1) if s.under(r, "model.fit")
    ]
    out["model.restarts"] = float(len(minimizes))
    out["model.lbfgs_self_s"] = sum(s.self_s(r) for s, r in minimizes)

    main = next((s for s in sets if s.pid == main_pid), SpanSet(main_pid, []))
    workers = [s for s in sets if s.pid != main_pid]
    starts = main.named("executor.start", t0=t0, t1=t1)
    maps = main.named("executor.map", t0=t0, t1=t1)
    out["executor.pool_start_s"] = sum(_dur(r) for r in starts)
    out["executor.tasks"] = float(sum((r[7] or {}).get("n", 0) for r in maps))
    out["executor.map_s"] = sum(_dur(r) for r in maps)
    busy = sum(_dur(r) for s in workers for r in s.rows if r[4] < 0 and t0 <= r[2] <= t1)
    capacity = sum(_dur(r) * min((r[7] or {}).get("width", 1), max((r[7] or {}).get("n", 1), 1)) for r in maps)
    out["executor.worker_busy_s"] = busy
    out["executor.worker_idle_share"] = max(0.0, 1.0 - busy / capacity) if capacity else 0.0

    searches = main.named("tuning.search", t0=t0, t1=t1)
    fits = useful = 0
    for search in searches:
        rungs = sorted((r for r in maps if r[4] == search[0]), key=lambda r: r[2])
        sizes = [(r[7] or {}).get("n", 0) for r in rungs]
        fits += sum(sizes)
        useful += sizes[-1] if sizes else 0
    out["tuning.fits"] = float(fits)
    out["tuning.useful_fit_ratio"] = _ratio(useful, fits)
    out["tuning.search_s"] = sum(_dur(r) for r in searches)
    out["tuning.refit_s"] = (
        sum(_dur(r) for r in main.named("model.fit", t0=t0, t1=t1) if not main.under(r, "tuning.search"))
        if searches
        else 0.0
    )

    evaluate = [
        (s, r) for s in sets for r in s.named(*_EVALUATE, t0=t0, t1=t1)
        if not s.under(r, *_EVALUATE, "monitor.observe", "monitor.metrics", "service.dispatch")
    ]
    out["evaluate.self_s"] = sum(
        _dur(r) - sum(_dur(c) for c in s.children[r[0]] if c[1] not in _EVALUATE + ("model.minimize",))
        for s, r in evaluate
    )
    out["evaluate.knn_s"] = sum(_dur(r) for s, r in evaluate if r[1] == "evaluate.consistency")
    return out


def serve_layers(
    sets: List[SpanSet],
    main_pid: int,
    t0: float,
    t1: float,
    client_rtt: Dict[int, float],
    answered: int,
    cpu0: Dict[str, float],
    cpu1: Dict[str, float],
) -> Dict[str, float]:
    """HTTP, JSON, engine, monitor, dispatcher and telemetry layers.

    ``client_rtt`` maps a request id (CRC-32 of its body) to the round
    trip the generator measured; ``cpu0``/``cpu1`` are per-pid CPU
    seconds of the server tree at the ends of the timed phase.
    """
    out: Dict[str, float] = {}
    main = next((s for s in sets if s.pid == main_pid), SpanSet(main_pid, []))
    workers = [s for s in sets if s.pid != main_pid]
    out["artifacts.load_s"] = sum(_dur(r) for r in main.named("artifacts.load"))

    handling = _extent_by_ctx([main], t0, t1)
    overhead = [client_rtt[c] - h for c, h in handling.items() if c in client_rtt]
    out["http.overhead_ms_p50"] = _p50(overhead, 1e3)
    out["service.handle_us_p50"] = _p50([h for c, h in handling.items() if c in client_rtt], 1e6)

    out["json.decode_us_p50"] = _p50([_dur(r) for s in sets for r in s.named("json.loads", t0=t0, t1=t1)], 1e6)
    out["json.encode_us_p50"] = _p50([_dur(r) for s in sets for r in s.named("json.dumps", t0=t0, t1=t1)], 1e6)

    verbs = [(s, r) for s in sets for r in s.named("engine.score", "engine.decide", t0=t0, t1=t1)]
    out["engine.verb_us_p50"] = _p50([_dur(r) for _, r in verbs], 1e6)
    model_pass: List[float] = []
    scorer: List[float] = []
    for s, verb in verbs:
        inner = [r for r in s.rows if r[6] == verb[6] and verb[2] <= r[2] and r[3] <= verb[3]]
        model_pass.append(sum(_dur(r) for r in inner if r[1] in ("engine.scaler", "model.transform") and not s.under(r, "model.transform", "monitor.observe")))
        scorer.append(sum(_dur(r) for r in inner if r[1] in ("logreg.predict_proba", "engine.thresholds")))
    out["engine.model_pass_us_p50"] = _p50(model_pass, 1e6)
    out["engine.scorer_us_p50"] = _p50(scorer, 1e6)

    observes = [r for s in sets for r in s.named("monitor.observe", t0=t0, t1=t1)]
    checks = [r for s in sets for r in s.named("monitor.metrics", t0=t0, t1=t1) if s.under(r, "monitor.observe")]
    out["monitor.observe_us_p50"] = _p50([_dur(r) for r in observes], 1e6)
    out["monitor.checks"] = float(len(checks))
    out["monitor.check_ms_p50"] = _p50([_dur(r) for r in checks], 1e3)
    server_cpu = sum(cpu1.get(p, 0.0) - cpu0.get(p, 0.0) for p in cpu1)
    out["monitor.cpu_share"] = _ratio(sum(_dur(r) for r in observes), server_cpu)

    hops: List[float] = []
    if workers:
        worker_handling = _extent_by_ctx(workers, t0, t1)
        for row in main.named("dispatcher.handle_http", t0=t0, t1=t1):
            if row[5] in worker_handling:
                hops.append(_dur(row) - worker_handling[row[5]])
        parent_cpu = cpu1.get(str(main_pid), 0.0) - cpu0.get(str(main_pid), 0.0)
        out["dispatcher.parent_cpu_us_per_req"] = _ratio(parent_cpu, answered) * 1e6
        out["dispatcher.worker_cpu_us_per_req"] = _ratio(server_cpu - parent_cpu, answered) * 1e6
        telemetry = sum(
            _dur(r) for s in workers for r in s.named(*_TELEMETRY, t0=t0, t1=t1)
            if not s.under(r, *_TELEMETRY)
        )
        out["telemetry.delta_us_per_req"] = _ratio(telemetry, answered) * 1e6
    out["dispatcher.hop_us_p50"] = _p50(hops, 1e6)
    return out


def registry_layers(counts: Dict[str, float]) -> Dict[str, float]:
    """Layer counts the program keeps in its own metrics registry."""

    def total(prefix: str) -> float:
        return sum(v for k, v in counts.items() if k == prefix or k.startswith((prefix + "{", prefix + "|")))

    hits, misses = total("serving_cache_hits_total"), total("serving_cache_misses_total")
    arena_hits, arena_misses = total("shm_arena_hits_total"), total("shm_arena_misses_total")
    return {
        "model.lbfgs_iters": total("fit_lbfgs_iterations_total"),
        "executor.retries": total("executor_task_retries_total"),
        "shm.broadcast_bytes": total("shm_broadcast_bytes_total"),
        "shm.arena_hit_ratio": _ratio(arena_hits, arena_hits + arena_misses),
        "engine.cache_hit_ratio": _ratio(hits, hits + misses),
        "engine.batch_flushes": total("serving_batch_flushes_total"),
        "dispatcher.retries": total("serving_request_retries_total"),
        "dispatcher.respawns": total("serving_worker_respawns_total"),
        "dispatcher.sheds": total("serving_shed_total"),
    }


def parse_prometheus(text: str) -> Dict[str, float]:
    """``name{labels}`` -> value for every sample line of an exposition."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            samples[key] = samples.get(key, 0.0) + float(value)
        except ValueError:
            continue
    return samples


def complete(values: Dict[str, Optional[float]]) -> Dict[str, float]:
    """Every per-layer metric, in report order; absent ones read 0."""
    return {name: float(values.get(name) or 0.0) for name in PER_LAYER_UNITS}
