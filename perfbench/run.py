#!/usr/bin/env python3
"""One command for the iFair benchmark: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload fit --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload serve-score --seed 3 --seconds 24 --trace 1
    python3 perfbench/run.py --steadiness 10 --seconds 24

Each run starts the program in fresh processes (``perfbench/program.py``),
prints every metric by name with its unit and sample count, and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
It exits non-zero when an output check fails.  ``--steadiness K`` runs
every workload K times in each of two sets, in alternating order, and
exits non-zero when a metric's quartile spread exceeds its bound in
``BENCHMARK.json`` or its median is worse in the second set by more than
that bound.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import select
import shutil
import subprocess
import sys
import time
import zlib
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

WORKLOADS = ("fit", "tune", "serve-score", "serve-decide")

#: End-to-end metrics of every workload: unit and one-line definition.
END_TO_END = {
    "setup_s": ("s", "fresh process launch -> timed phase ready (median of the run's set-ups)"),
    "latency_p50_ms": ("ms", "median wall time of one operation: a fit, a tuned fit, or a request round trip"),
    "throughput_ops": ("1/s", "operations completed per second of the timed phase"),
    "cpu_ms_per_op": ("ms", "CPU of the program's process tree in the timed phase, per operation"),
    "peak_rss_mb": ("MB", "largest peak resident set of any program process (MiB)"),
    "test_auc": ("ratio", "AUC of held-out census records (served scores for serve-*)"),
    "test_ynn": ("ratio", "yNN consistency of held-out or served scores"),
}

#: Set-up samples per run, median reported.  The measured process's own
#: launch is one; the others are fresh processes, timed before and after
#: the timed phase (fit/tune) or between its load segments while the
#: loaded server idles (serve-*), so they span the run instead of landing
#: in one of this VM's multi-second fast or slow stretches.  Timing them
#: between fits slowed the fit after each by up to a third.
SETUPS = {"fit": 5, "tune": 5, "serve-score": 4, "serve-decide": 4}
SETUP_TIMEOUT_S = 90.0
#: Steadiness sets whose medians must agree.
SETS = 2
CALLERS = 2
RECORDS_PER_REQUEST = 16
POOL_BODIES = 1280  # 20480 distinct records, 5x one engine's record cache
#: Quality is judged on the first 2048 pool records, which every run answers,
#: so it is the same for a seed however fast the server is.
EVAL_BODIES = 128
#: The served artifact: full pairs and K=10 as in the fit workload, on 1000
#: records.  One restart fits it in about 2 s instead of 6 s; over six seeds
#: its served AUC spread no wider than with three.
SERVE_TRAIN_RECORDS = 1000
SERVE_ARTIFACT_PARAMS = dict(n_prototypes=10, n_restarts=1, pair_mode="full")


class ChildError(RuntimeError):
    pass


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    extra = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        extra.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(extra)
    return env


class Child:
    """A program process driven over its stdin/stdout line protocol."""

    def __init__(self, args: List[str]):
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.program", *args],
            cwd=ROOT,
            env=_child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        self._buf = b""

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _readline(self, deadline: float) -> bytes:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ChildError("timed out waiting for the program")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise ChildError(f"program exited with code {self.proc.wait()}")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    def expect(self, kind: str, timeout_s: float) -> Dict:
        deadline = time.perf_counter() + timeout_s
        while True:
            line = self._readline(deadline)
            if line.startswith(b"@@ "):
                message = json.loads(line[3:])
                if message.get("kind") == kind:
                    return message

    def send(self, command: str) -> None:
        self.proc.stdin.write((command + "\n").encode())
        self.proc.stdin.flush()

    def close(self, timeout_s: float = 60.0) -> None:
        """Close stdin and wait for exit; kill after ``timeout_s``."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _trace_args(trace_dir: Optional[str]) -> List[str]:
    return ["--trace-dir", trace_dir] if trace_dir else []


# ----------------------------------------------------------------------
# fit and tune


def fresh_setup(args: List[str]) -> float:
    """Launch -> ready of one fresh fit/tune process, which then exits unused."""
    child = Child(args)
    try:
        child.expect("ready", SETUP_TIMEOUT_S)
        return time.perf_counter() - child.launched
    finally:
        child.close()


def fit_pass(kind: str, seed: int, seconds: float, setups: int, trace_dir: Optional[str]) -> Dict:
    """Time fresh set-ups around one timed run of a fit/tune program process.

    Half the other samples are fresh processes launched before the
    measured one, whose own launch -> ready is the next sample; the rest
    are launched after it exits.
    """
    args = [kind, "--seed", str(seed)]
    samples = [fresh_setup(args) for _ in range((setups - 1) // 2)]
    child = Child(args + _trace_args(trace_dir))
    try:
        child.expect("ready", SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - child.launched)
        child.send(f"run {seconds}")
        result = child.expect("result", seconds + 120.0)
    finally:
        child.close()
    while len(samples) < setups:
        samples.append(fresh_setup(args))
    result.update(setup_samples=samples, main_pid=child.pid)
    return result


def per_dataset_mean(ops: List[Dict], key: str) -> float:
    """Mean over datasets of each dataset's median ``key`` (failed ops excluded)."""
    from perfbench import stats

    by_dataset: Dict[int, List[float]] = {}
    for op in ops:
        if op["error"] is None:
            by_dataset.setdefault(op["dataset"], []).append(op[key])
    medians = [stats.percentile(v, 50.0) for v in by_dataset.values()]
    return sum(medians) / len(medians) if medians else float("nan")


def fit_metrics(result: Dict, seed: int, expected: Dict[str, float]) -> Tuple[Dict, List]:
    """End-to-end metrics and output checks of one fit/tune pass.

    Times and CPU are balanced over the run's datasets: each dataset's
    median, averaged, so the figures do not depend on how many cycles
    the run completed.
    """
    from perfbench import quality, stats

    ops = result["ops"]
    errors = [op["error"] for op in ops if op["error"]]
    wall_s = per_dataset_mean(ops, "wall_s")
    metrics = {
        "setup_s": (stats.percentile(result["setup_samples"], 50.0), len(result["setup_samples"])),
        "latency_p50_ms": (wall_s * 1e3, len(ops)),
        "throughput_ops": (1.0 / wall_s, len(ops)),
        "cpu_ms_per_op": (per_dataset_mean(ops, "cpu_s") * 1e3, len(ops)),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
        "test_auc": (result["test_auc"], len(result["finite"])),
        "test_ynn": (result["test_ynn"], len(result["finite"])),
    }
    checks = [("fit error", False, err) for err in errors]
    checks.append(("fits completed", len(ops) > len(errors), f"{len(ops) - len(errors)} of {len(ops)}"))
    checks.append(("representations finite", bool(result["finite"]) and all(result["finite"]), f"{len(result['finite'])} fitted datasets"))
    if result["test_auc"] is None:
        checks.append(("every dataset evaluated", False, "a dataset never fitted"))
    else:
        checks += quality.quality_checks(seed, result["test_auc"], result["test_ynn"], expected)
    return metrics, checks


# ----------------------------------------------------------------------
# serving


class ServeInputs:
    """Artifact and pre-encoded request bodies made from the seed."""

    def __init__(self, seed: int, work: str, decide: bool):
        import numpy as np

        from perfbench import quality
        from repro.data.census import generate_census
        from repro.posthoc.thresholds import GroupThresholdAdjuster
        from repro.serving import fit_serving_pipeline, save_artifact

        train = generate_census(SERVE_TRAIN_RECORDS, random_state=quality.substream(seed, 3))
        artifact = fit_serving_pipeline(train, random_state=quality.substream(seed, 3), **SERVE_ARTIFACT_PARAMS)
        # The default parity target, the share of scores >= 0.5, is about 0
        # on census scores and would reject every record; accepting the
        # training positive rate keeps the served decisions two-valued.
        train_scores = artifact.scorer.predict_proba(artifact.model.transform(artifact.scaler.transform(train.X)))
        artifact.thresholds = GroupThresholdAdjuster("parity", target_rate=float(train.y.mean())).fit(
            train_scores, train.protected
        )
        self.artifact_dir = os.path.join(work, "artifact")
        save_artifact(self.artifact_dir, artifact)
        self.protected_indices = list(artifact.protected_indices)

        n_pool = POOL_BODIES * RECORDS_PER_REQUEST
        n_warm = max(SETUPS.values())
        data = generate_census(n_pool + (n_warm + 1) * RECORDS_PER_REQUEST, random_state=quality.substream(seed, 4))
        self.X = np.round(data.X, 4)  # short JSON numbers; requests and checks share them
        self.y = data.y
        self.groups = data.protected.astype(int)
        self.decide = decide
        self.bodies = [self._body(i * RECORDS_PER_REQUEST) for i in range(POOL_BODIES)]
        self.crcs = [zlib.crc32(b) for b in self.bodies]
        self.warm = [self._body(n_pool + i * RECORDS_PER_REQUEST) for i in range(n_warm)]
        self.probe_start = n_pool + n_warm * RECORDS_PER_REQUEST
        self.probe = self._body(self.probe_start)

    def _body(self, start: int) -> bytes:
        rows = slice(start, start + RECORDS_PER_REQUEST)
        payload = {"records": self.X[rows].tolist()}
        if self.decide:
            payload["groups"] = self.groups[rows].tolist()
        return json.dumps(payload).encode()

    def parse(self, payload: Optional[bytes]) -> Optional[Dict[str, list]]:
        """Scores (and decisions) of a reply, or None unless one per record."""
        try:
            body = json.loads(payload)
        except (TypeError, ValueError):
            return None
        keys = ("scores", "decisions") if self.decide else ("scores",)
        if not isinstance(body, dict) or any(
            not isinstance(body.get(k), list) or len(body[k]) != RECORDS_PER_REQUEST for k in keys
        ):
            return None
        return {k: body[k] for k in keys}


def _request(port: int, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
    """One request on a fresh connection (set-up answers, the probe, the scrape)."""
    from perfbench.loadgen import connect, request_once

    conn = connect("127.0.0.1", port)[0]
    try:
        return request_once(conn, method, path, body)
    finally:
        conn.close()


def fresh_server(args: List[str], path: str, body: bytes) -> Tuple[float, Tuple[int, bytes]]:
    """Launch -> first answer of one fresh server, which is then stopped."""
    child = Child(args)
    try:
        port = child.expect("ready", SETUP_TIMEOUT_S)["port"]
        reply = _request(port, "POST", path, body)
        took = time.perf_counter() - child.launched
        child.send("stop")
        child.expect("stopped", 60.0)
    finally:
        child.close()
    return took, reply


def serve_pass(kind: str, inputs: ServeInputs, seconds: float, setups: int, trace_dir: Optional[str]) -> Dict:
    """Load one server in ``setups`` segments, timing a fresh server between them.

    The loaded server's own launch -> first answer is the first set-up
    sample; between segments it idles while one more fresh server is
    timed, so the samples span the run.  The load connections stay open
    across segments, and each segment is sampled at both ends while they
    are open, so the server's per-connection threads are counted.
    """
    from perfbench.loadgen import closed_loop, connect

    path = "/v1/decide" if kind == "serve-decide" else "/v1/score"
    workers = 1 if kind == "serve-decide" else 2
    args = ["serve", "--artifact", inputs.artifact_dir, "--workers", str(workers)]
    child = Child(args + _trace_args(trace_dir))
    out: Dict = {"segments": []}
    conns: List[http.client.HTTPConnection] = []
    try:
        port = child.expect("ready", SETUP_TIMEOUT_S)["port"]
        warm = [_request(port, "POST", path, inputs.warm[0])]
        samples = [time.perf_counter() - child.launched]
        conns = connect("127.0.0.1", port, CALLERS)
        next_body = 0
        for segment in range(setups):
            if segment:
                took, reply = fresh_server(args, path, inputs.warm[segment])
                samples.append(took)
                warm.append(reply)
            child.send("sample")
            start = child.expect("sample", 30.0)
            loop = closed_loop(conns, path, inputs.bodies, seconds / setups, first_body=next_body)
            child.send("sample")
            out["segments"].append((start, child.expect("sample", 30.0), loop))
            next_body += loop.attempted
        out["probe"] = _request(port, "POST", path, inputs.probe)
        out["scrape"] = _request(port, "GET", "/v1/metrics")
        child.send("stamp")
        out["stamp"] = child.expect("stamp", 30.0)["stamp"]
        for conn in conns:
            conn.close()
        child.send("stop")
        child.expect("stopped", 60.0)
    finally:
        for conn in conns:
            conn.close()
        child.close()
    out.update(setup_samples=samples, warm=warm, main_pid=child.pid)
    return out


def serve_metrics(result: Dict, inputs: ServeInputs, seed: int, expected: Dict[str, float]) -> Tuple[Dict, List, Dict]:
    """End-to-end metrics, output checks and p99 latency of one serve pass."""
    import numpy as np

    from perfbench import quality, stats
    from repro.serving import InferenceEngine, load_artifact

    segments = result["segments"]
    replies = [r for _, _, loop in segments for r in loop.replies]
    parsed = [(r, inputs.parse(r.payload) if r.ok else None) for r in replies]
    answered = [(r, p) for r, p in parsed if p is not None]
    rtts_ms = [r.rtt_s * 1e3 for r, _ in answered]
    elapsed = sum(loop.elapsed_s for _, _, loop in segments)
    cpu = sum(end["cpu_s"] - start["cpu_s"] for start, end, _ in segments)
    first: Dict[int, Dict[str, list]] = {}
    for reply, p in answered:
        first.setdefault(reply.body_index, p)

    def records(index: int) -> slice:
        return slice(index * RECORDS_PER_REQUEST, (index + 1) * RECORDS_PER_REQUEST)

    idx = [i for i in sorted(first) if i < EVAL_BODIES]
    scores = np.array([s for i in idx for s in first[i]["scores"]], dtype=float)
    labels = np.concatenate([inputs.y[records(i)] for i in idx]) if idx else np.array([])
    auc = quality.roc_auc(labels, scores) if idx else float("nan")
    # yNN audits the served scores on both workloads, as the fit check does.
    ynn_value = float("nan")
    if scores.size > quality.YNN_K:
        X_eval = np.concatenate([inputs.X[records(i)] for i in idx])
        ynn_value = quality.ynn(X_eval, inputs.protected_indices, scores)

    metrics = {
        "setup_s": (stats.percentile(result["setup_samples"], 50.0), len(result["setup_samples"])),
        "latency_p50_ms": stats.reported(rtts_ms, 50.0),
        "throughput_ops": (len(answered) / elapsed, len(answered)),
        "cpu_ms_per_op": (cpu / max(len(answered), 1) * 1e3, len(answered)),
        "peak_rss_mb": (segments[-1][1]["peak_rss_mb"], 1),
        "test_auc": (auc, len(scores)),
        "test_ynn": (ynn_value, len(scores)),
    }
    extra = {"latency_p99_ms": stats.reported(rtts_ms, 99.0)}

    engine = InferenceEngine(load_artifact(inputs.artifact_dir))
    probe_rows = inputs.X[inputs.probe_start : inputs.probe_start + RECORDS_PER_REQUEST].tolist()
    status, payload = result["probe"]
    served = inputs.parse(payload) if status == 200 else None
    probe_ok = served is not None and np.array_equal(np.asarray(served["scores"]), engine.score(probe_rows))
    probe_detail = "scores"
    if inputs.decide:
        groups = inputs.groups[inputs.probe_start : inputs.probe_start + RECORDS_PER_REQUEST].tolist()
        local = engine.decide(probe_rows, groups)["decisions"]
        probe_ok = probe_ok and served["decisions"] == local
        probe_detail = f"scores and decisions ({int(sum(local))} of {len(local)} accepted)"

    warm_ok = sum(1 for status, payload in result["warm"] if status == 200 and inputs.parse(payload) is not None)
    checks = [
        ("set-up answers parse", warm_ok == len(result["warm"]), f"{warm_ok} of {len(result['warm'])}"),
        ("served replies parse, one per record", bool(replies) and len(answered) == len(replies), f"{len(answered)} of {len(replies)}"),
        ("probe equals in-process InferenceEngine", bool(probe_ok), probe_detail),
    ]
    checks += quality.quality_checks(seed, auc, ynn_value, expected)
    result.update(
        attempted=len(replies),
        failed=sum(1 for r in replies if not r.ok),
        answered=len(answered),
        rtt_by_crc={inputs.crcs[r.body_index]: r.rtt_s for r, _ in answered},
    )
    return metrics, checks, extra


# ----------------------------------------------------------------------
# one run


def _stamp_line(stamp: Dict) -> str:
    return "stamp: " + json.dumps(stamp, sort_keys=True)


def _print_metrics(rows: Dict[str, Tuple[Optional[float], int]], units: Dict[str, str]) -> None:
    print(f"{'metric':34s} {'value':>14s} {'unit':>7s} {'n':>7s}")
    for name, (value, n) in rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>14s} {units.get(name, ''):>7s} {n:>7d}")


def measure(kind: str, seed: int, seconds: float, setups: int, trace_dir: Optional[str], inputs=None) -> Dict:
    """One pass of ``kind``: metrics, checks, and the raw result."""
    from perfbench import layers, quality

    expected = quality.load_expected(BENCH_DIR).get(kind, {})
    if kind in ("fit", "tune"):
        result = fit_pass(kind, seed, seconds, setups, trace_dir)
        metrics, checks = fit_metrics(result, seed, expected)
        extra = {
            "wall_s": (metrics["latency_p50_ms"][0] / 1e3, metrics["latency_p50_ms"][1]),
            "cpu_s": (metrics["cpu_ms_per_op"][0] / 1e3, metrics["cpu_ms_per_op"][1]),
        }
        ops, failed_ops = len(result["ops"]), sum(1 for op in result["ops"] if op["error"])
        counts = result["counts"]
        stamp = result["stamp"]
        stamp["tree_threads"] = result["threads"]
    else:
        result = serve_pass(kind, inputs, seconds, setups, trace_dir)
        metrics, checks, extra = serve_metrics(result, inputs, seed, expected)
        ops, failed_ops = result["attempted"], result["failed"]
        status, scrape = result["scrape"]
        counts = layers.parse_prometheus(scrape.decode("utf-8", "replace")) if status == 200 else {}
        if status != 200:
            checks.append(("metrics scrape", False, f"status {status}"))
        stamp = result["stamp"]
        stamp["tree_threads"] = result["segments"][-1][1]["threads"]
    return {
        "metrics": metrics,
        "extra": extra,
        "checks": checks,
        "attempted": ops + len(checks),
        "failed": failed_ops + sum(1 for _, passed, _ in checks if not passed),
        "counts": counts,
        "stamp": stamp,
        "result": result,
    }


def trace_metrics(kind: str, traced: Dict, untraced: Dict, trace_dir: str) -> Dict[str, float]:
    from perfbench import layers, spans

    result = traced["result"]
    dumps = spans.load_spans(trace_dir)
    sets = [layers.SpanSet(pid, data["spans"]) for pid, data in dumps.items()]
    if kind in ("fit", "tune"):
        t0, t1 = result["t0"], result["t1"]
        values = layers.fit_layers(sets, result["main_pid"], t0, t1)
        # The main process's threads live through the phase; executor
        # workers are born and reaped inside it and read their own wait
        # just before exiting.
        values["sched.runqueue_wait_s"] = result["runqueue_wait_s"] + sum(
            data["runqueue_wait_s"]
            for pid, data in dumps.items()
            if pid != result["main_pid"] and t0 <= data["born"] <= t1
        )
    else:
        segments = result["segments"]
        t0, t1 = segments[0][2].started, segments[-1][2].ended
        cpu0, cpu1 = segments[0][0]["per_pid_cpu"], segments[-1][1]["per_pid_cpu"]
        values = layers.serve_layers(sets, result["main_pid"], t0, t1, result["rtt_by_crc"], result["answered"], cpu0, cpu1)
        wait = sum(end["runqueue_wait_s"] - start["runqueue_wait_s"] for start, end, _ in segments)
        values["sched.runqueue_wait_us_per_req"] = wait / max(result["answered"], 1) * 1e6
    values.update(layers.registry_layers(traced["counts"]))
    values["trace.overhead_latency_ratio"] = traced["metrics"]["latency_p50_ms"][0] / untraced["metrics"]["latency_p50_ms"][0]
    values["trace.overhead_cpu_ratio"] = traced["metrics"]["cpu_ms_per_op"][0] / untraced["metrics"]["cpu_ms_per_op"][0]
    return layers.complete(values)


def run_once(kind: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import layers

    print(f"perfbench workload={kind} seed={seed} seconds={seconds:g} trace={int(trace)}")
    os.makedirs(WORK_DIR, exist_ok=True)
    work = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        inputs = ServeInputs(seed, work, kind == "serve-decide") if kind.startswith("serve") else None
        if not trace:
            run = measure(kind, seed, seconds, SETUPS[kind], None, inputs)
            runs = [run]
            print(_stamp_line(run["stamp"]))
            units = {k: v[0] for k, v in END_TO_END.items()}
            units.update(wall_s="s", cpu_s="s", latency_p99_ms="ms")
            _print_metrics({**run["metrics"], **run["extra"]}, units)
            out = {k: v[0] for k, v in run["metrics"].items()}
            out_units = {k: v[0] for k, v in END_TO_END.items()}
        else:
            half = seconds / 2.0
            untraced = measure(kind, seed, half, 1, None, inputs)
            trace_dir = os.path.join(work, "trace")
            os.makedirs(trace_dir)
            traced = measure(kind, seed, half, 1, trace_dir, inputs)
            runs = [untraced, traced]
            print(_stamp_line(traced["stamp"]))
            out = trace_metrics(kind, traced, untraced, trace_dir)
            out_units = layers.PER_LAYER_UNITS
            _print_metrics({k: (v, 1) for k, v in out.items()}, out_units)
        for run in runs:
            print("setup samples s: " + " ".join(f"{v:.4f}" for v in run["result"]["setup_samples"]))
            if "ops" in run["result"]:
                print("ops dataset:wall_s:cpu_s: " + " ".join(
                    f"{op['dataset']}:{op['wall_s']:.4f}:{op['cpu_s']:.4f}" for op in run["result"]["ops"]))
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        for run in runs:
            for name, passed, detail in run["checks"]:
                print(f"check {'ok  ' if passed else 'FAIL'} {name}: {detail}")
        print(f"error_ratio {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
        print("registry: " + json.dumps({k: v for k, v in sorted(runs[-1]["counts"].items()) if v}, sort_keys=True))
        correct = failed == 0 and all(v is not None for v in out.values())
        metrics = {k: {"value": v, "unit": out_units[k]} for k, v in out.items()}
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


# ----------------------------------------------------------------------
# steadiness


def _run_command(kind: str, seed: int, seconds: float, trace: int) -> List[str]:
    return [sys.executable, os.path.abspath(__file__), "--workload", kind, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]


def steadiness(runs: int, seconds: float, first_seed: int) -> int:
    """Run every workload ``runs`` times in each of :data:`SETS` sets.

    Each set's quartile spread of every metric is judged against the
    metric's bound, ``setup_s`` included, and so is the change of each
    median from the first set to the second.
    """
    from perfbench import procs, stats

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    values: Dict[Tuple[int, str, str], List[float]] = {}
    stamps: List[Dict] = []
    failures = 0
    for set_index in range(SETS):
        for rep in range(runs):
            order = WORKLOADS if rep % 2 == 0 else WORKLOADS[::-1]
            for kind in order:
                seed = first_seed + set_index * runs + rep
                started = time.perf_counter()
                proc = subprocess.run(_run_command(kind, seed, seconds, 0), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
                took = time.perf_counter() - started
                lines = proc.stdout.strip().splitlines()
                try:
                    last = json.loads(lines[-1])
                except (IndexError, ValueError):
                    last = None
                if proc.returncode != 0 or last is None or not last["correct"]:
                    failures += 1
                    print(f"set {set_index} run {rep} {kind} seed {seed}: FAILED (exit {proc.returncode})", flush=True)
                    continue
                stamps += [json.loads(l[len("stamp: "):]) for l in lines if l.startswith("stamp: ")]
                for name, entry in last["metrics"].items():
                    values.setdefault((set_index, kind, name), []).append(entry["value"])
                brief = " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items())
                print(f"set {set_index} run {rep} {kind} seed {seed} ({took:.1f} s): {brief}", flush=True)
    bad = failures
    if stamps and not all(procs.comparable(stamps[0], s) for s in stamps):
        print("machine stamps differ between runs; the results are not comparable")
        bad += 1
    print(f"\n{'set':>3s} {'workload':12s} {'metric':16s} {'q1':>10s} {'median':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    medians: Dict[Tuple[str, str], List[float]] = {}
    for (set_index, kind, name), vals in sorted(values.items()):
        if len(vals) < 2:
            continue
        q1, med, q3, spread = stats.quartile_spread(vals)
        bound = bounds[name]
        if spread <= bound / 3:
            verdict = "ok, under a third of the bound"
        elif spread <= bound:
            verdict = "ok"
        else:
            verdict = "OVER"
            bad += 1
        medians.setdefault((kind, name), []).append(med)
        print(f"{set_index:3d} {kind:12s} {name:16s} {q1:10.5g} {med:10.5g} {q3:10.5g} {spread:7.3f} {bound:6.3f} {verdict}")
    for (kind, name), meds in sorted(medians.items()):
        if len(meds) < SETS:
            continue
        worse = (meds[1] - meds[0]) / abs(meds[0]) * (1 if better[name] == "lower" else -1)
        verdict = "ok" if worse <= bounds[name] else "WORSE"
        bad += verdict != "ok"
        print(f"sets agree {kind:12s} {name:16s} {meds[0]:10.5g} -> {meds[1]:10.5g} worse by {worse:+.3f} (bound {bounds[name]}) {verdict}")
    return 1 if bad else 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload once, each in its own fresh orchestrator process."""
    status = 0
    for kind in WORKLOADS:
        status |= subprocess.run(_run_command(kind, seed, seconds, trace), cwd=ROOT).returncode
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload once, each in a fresh process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="K",
                        help="run each workload K times in each of two sets; judge spreads and agreement")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source under src/repro; nothing to measure", file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args.steadiness, args.seconds, args.seed)
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        parser.error("--workload or --all is required")
    try:
        return run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
