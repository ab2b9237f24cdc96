"""In-memory span tracing from the benchmark's own wrappers.

:func:`install` replaces the public entry points of each layer (module
functions and class methods, looked up the way the program calls them)
with wrappers that record a span: name, start, end, parent span, the
request or fit id, thread, and optional attributes such as the work a
kernel call did.  Nothing under ``src/`` changes.

Every process keeps its spans in memory.  The main process writes them
with :meth:`Recorder.dump`; forked ``multiprocessing`` workers inherit
the wrappers and write theirs when they exit normally.  Each file also
carries the process's birth time and the run-queue wait of its threads,
read as it is written, so a worker born and reaped inside the timed
phase still counts.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import procs

# Captured before any patching: the recorder's own output must not be traced.
_json_dumps = json.dumps


def _crc(data) -> Optional[int]:
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, (bytes, bytearray, memoryview)):
        return zlib.crc32(data)
    return None


class Recorder:
    """Span buffer of one process; re-armed in every forked child."""

    def __init__(self, out_dir: str, role: str):
        self.out_dir = out_dir
        self.role = role
        self.pid = os.getpid()
        self.born = time.perf_counter()
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._fit_ids = itertools.count()
        self._tls = threading.local()

    # -- recording -----------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        ctx: Optional[Callable] = None,
        sticky: bool = False,
        attrs: Optional[Callable] = None,
    ) -> Callable:
        """A drop-in replacement for ``fn`` that records one span per call.

        A root span (no traced caller on this thread) takes its id from
        ``ctx(args)`` when given; ``sticky`` keeps that id on the thread
        so later root spans of the same request share it.  Nested spans
        inherit their parent's id.
        """
        recorder = self

        def traced(*args, **kwargs):
            tls = recorder._tls
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            if stack:
                parent = stack[-1]
                span_ctx = parent[5]
                parent_id = parent[0]
            else:
                parent_id = -1
                span_ctx = ctx(args) if ctx is not None else None
                if sticky:
                    tls.ctx = span_ctx
                elif span_ctx is None:
                    span_ctx = getattr(tls, "ctx", None)
            extra = attrs(args, kwargs) if attrs is not None else None
            entry = [next(recorder._ids), name, 0.0, 0.0, parent_id, span_ctx, threading.get_ident(), extra]
            recorder.spans.append(entry)
            stack.append(entry)
            entry[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[3] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def fit_ctx(self, _args) -> str:
        return f"fit-{os.getpid()}-{next(self._fit_ids)}"

    # -- fork handling and output ---------------------------------------

    def _after_fork_in_child(self) -> None:
        self.pid = os.getpid()
        self.born = time.perf_counter()
        self.role = "child"
        self.spans = []
        self._tls = threading.local()

    def _after_mp_bootstrap(self) -> None:
        # Runs inside multiprocessing's child bootstrap, after it cleared
        # the inherited finalizers; exit priority 0 runs in its first pass.
        from multiprocessing import util

        util.Finalize(None, self.dump, exitpriority=0)

    def arm_fork_hooks(self) -> None:
        from multiprocessing import util

        os.register_at_fork(after_in_child=self._after_fork_in_child)
        util.register_after_fork(self, lambda rec: rec._after_mp_bootstrap())

    def dump(self) -> str:
        """Write this process's spans to ``out_dir/spans-<pid>.json``."""
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as fh:
            fh.write(
                _json_dumps(
                    {
                        "pid": self.pid,
                        "ppid": os.getppid(),
                        "role": self.role,
                        "born": self.born,
                        "runqueue_wait_s": procs.runqueue_wait_s([self.pid]),
                        "spans": self.spans,
                    }
                )
            )
        return path


def load_spans(out_dir: str) -> Dict[int, Dict]:
    """Every span file in ``out_dir``, keyed by pid."""
    found: Dict[int, Dict] = {}
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as fh:
                data = json.load(fh)
            found[int(data["pid"])] = data
    return found


# ----------------------------------------------------------------------
# what gets wrapped


def _shape(a, axis: int) -> int:
    shape = getattr(a, "shape", ())
    return int(shape[axis]) if len(shape) > axis else 1


def _work(flop: float, byte: float) -> Dict[str, float]:
    return {"flop": float(flop), "byte": float(byte)}


# Dominant-term operation counts and compulsory bytes (operands read once,
# results written once, 8-byte floats) computed from argument shapes.
def _dists_work(args, _kwargs):
    X, V = args[0], args[1]
    m, n, k = _shape(X, 0), _shape(X, 1), _shape(V, 0)
    return _work(2 * m * k * n + 2 * m * n + 3 * m * k, 8 * (2 * m * n + k * n + m * k))


def _backward_work(args, _kwargs):
    P, X = args[0], args[1]
    m, k, n = _shape(P, 0), _shape(P, 1), _shape(X, 1)
    return _work(2 * m * k * n + 2 * m * n + 2 * m * k, 8 * (m * k + 2 * m * n + k * n))


def _softmax_work(args, _kwargs):
    m, k = _shape(args[0], 0), _shape(args[0], 1)
    return _work(5 * m * k, 16 * m * k)


def _full_fair_work(args, _kwargs):
    this, Xt = args[0], args[1]
    m, n = _shape(Xt, 0), _shape(Xt, 1)
    ns = _shape(getattr(this, "_Xs", None), 1)
    return _work(4 * m * n * n + 4 * m * n * ns + 8 * m * n, 8 * (3 * m * n + m * ns))


def _pair_work(args, _kwargs):
    this, X = args[0], args[-1]
    pairs = _shape(getattr(this, "_A", None), 0)
    m, n = _shape(X, 0), _shape(X, 1)
    return _work(4 * pairs * n, 8 * (pairs * n + m * n) + 24 * pairs)


def _map_attrs(args, _kwargs):
    executor, payloads = args[0], args[1]
    return {"n": len(payloads), "width": int(getattr(executor, "n_jobs", 1) or 1)}


def _handle_ctx(args):
    return _crc(args[2]) if len(args) > 2 else None


def _json_ctx(args):
    return _crc(args[0]) if args else None


#: (span name, module, attribute path, options) for the fit and tuning layers.
FIT_TARGETS: List[Tuple[str, str, str, Dict]] = [
    ("model.fit", "repro.core.model", "IFair.fit", {"ctx": "fit"}),
    ("model.minimize", "scipy.optimize", "minimize", {}),
    ("objective.loss_and_grad", "repro.core.objective", "IFairObjective.loss_and_grad", {}),
    ("kernels.dists", "repro.utils.kernels", "weighted_sq_dists_gemm", {"attrs": _dists_work}),
    ("kernels.dists", "repro.utils.kernels", "weighted_sq_dists_rowstable", {"attrs": _dists_work}),
    ("kernels.softmax", "repro.utils.kernels", "softmax_neg_inplace", {"attrs": _softmax_work}),
    ("kernels.backward", "repro.utils.kernels", "sq_dist_backward", {"attrs": _backward_work}),
    ("kernels.fair", "repro.utils.kernels", "FullPairFairness.loss_row_grad", {"attrs": _full_fair_work}),
    ("kernels.fair", "repro.utils.kernels", "FullPairFairness.loss", {"attrs": _full_fair_work}),
    ("kernels.fair", "repro.utils.kernels", "PairScatter.diffs", {"attrs": _pair_work}),
    ("kernels.fair", "repro.utils.kernels", "PairScatter.scatter_add", {"attrs": _pair_work}),
    ("kernels.fair", "repro.utils.kernels", "LandmarkFairness.loss_and_grad_x", {}),
    ("executor.start", "repro.core.executor", "ParallelExecutor.start", {}),
    ("executor.map", "repro.core.executor", "ParallelExecutor.map", {"attrs": _map_attrs}),
    ("tuning.search", "repro.core.tuning", "GridSearch.run", {}),
    ("evaluate.logreg_fit", "repro.learners.logistic", "LogisticRegression.fit", {}),
    ("logreg.predict_proba", "repro.learners.logistic", "LogisticRegression.predict_proba", {}),
    ("evaluate.roc_auc", "repro.metrics.classification", "roc_auc", {}),
    ("evaluate.consistency", "repro.metrics.individual", "consistency", {}),
    ("model.transform", "repro.core.model", "IFair.transform", {}),
]

#: Serving layers; stdlib ``json`` is traced in server processes only.
SERVE_TARGETS: List[Tuple[str, str, str, Dict]] = [
    ("artifacts.load", "repro.serving.artifacts", "load_artifact", {}),
    ("service.dispatch", "repro.serving.service", "dispatch", {}),
    ("engine.score", "repro.serving.engine", "InferenceEngine.score", {}),
    ("engine.decide", "repro.serving.engine", "InferenceEngine.decide", {}),
    ("engine.scaler", "repro.learners.scaler", "StandardScaler.transform", {}),
    ("model.transform", "repro.core.model", "IFair.transform", {}),
    ("logreg.predict_proba", "repro.learners.logistic", "LogisticRegression.predict_proba", {}),
    ("engine.thresholds", "repro.posthoc.thresholds", "GroupThresholdAdjuster.predict", {}),
    ("monitor.observe", "repro.telemetry.fairness", "FairnessMonitor.observe", {}),
    ("monitor.metrics", "repro.telemetry.fairness", "FairnessMonitor.metrics", {}),
    ("evaluate.consistency", "repro.metrics.individual", "consistency", {}),
    ("dispatcher.handle_http", "repro.serving.dispatcher", "EngineDispatcher.handle_http", {"ctx": _handle_ctx}),
    ("telemetry.snapshot", "repro.telemetry.metrics", "MetricsRegistry.snapshot", {}),
    ("telemetry.snapshot_diff", "repro.telemetry.metrics", "snapshot_diff", {}),
    ("telemetry.merge_snapshots", "repro.telemetry.metrics", "merge_snapshots", {}),
    ("json.loads", "json", "loads", {"ctx": _json_ctx, "sticky": True}),
    ("json.dumps", "json", "dumps", {}),
]


def _rebind_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global bound to ``original`` at ``replacement``.

    Covers ``from module import function`` bindings, which patching the
    defining module alone would miss.
    """
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder, targets: List[Tuple[str, str, str, Dict]]) -> int:
    """Wrap every target (before any fork); returns how many were wrapped."""
    importlib.import_module("repro.serving")
    wrapped = 0
    seen = set()
    for name, mod_name, path, options in targets:
        if (mod_name, path) in seen:
            continue
        seen.add((mod_name, path))
        owner = importlib.import_module(mod_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        ctx = options.get("ctx")
        if ctx == "fit":
            ctx = recorder.fit_ctx
        replacement = recorder.wrap(
            name, original, ctx=ctx, sticky=options.get("sticky", False), attrs=options.get("attrs")
        )
        setattr(owner, attr, replacement)
        if not owner_path and mod_name != "json":
            _rebind_everywhere(original, replacement)
        wrapped += 1
    recorder.arm_fork_hooks()
    return wrapped
