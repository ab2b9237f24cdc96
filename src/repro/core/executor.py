"""Process-based parallel task execution for experiment workloads.

Grid search fits hundreds of independent candidates and ``IFair.fit``
runs independent restarts; both are pure-CPU NumPy/Python work that a
thread pool cannot scale (the L-BFGS driver holds the GIL between BLAS
calls).  :class:`ParallelExecutor` runs such task lists on a pool of
**worker processes** with three properties the experiment layers rely
on:

* **determinism** — tasks carry their own seeds in the payload, results
  are returned in task order, and reductions over them are therefore
  independent of scheduling; for a fixed seed, ``n_jobs=1`` and
  ``n_jobs=8`` produce bitwise-identical outputs;
* **zero-copy inputs** — large arrays are broadcast once through
  :mod:`repro.utils.shm` instead of being pickled per task; workers
  read them via :func:`get_shared`;
* **crash isolation** — a worker that dies mid-task (OOM kill,
  segfault, ``os._exit``) is detected, respawned, and the task retried
  up to ``max_retries`` times before :class:`WorkerCrashError` is
  raised; a task that *raises* surfaces as a :class:`TaskError`
  carrying the worker traceback, and the pool stays usable either way.

Pool lifetime
-------------
A pool lives exactly as long as its executor.  ``n_jobs == 1`` runs
tasks inline, the reference semantics the pool must reproduce bitwise.
Otherwise :meth:`ParallelExecutor.start` starts a private pool of
``n_jobs`` workers (forked, or spawned where the platform has no
``fork``) and broadcasts ``shared`` once, and
:meth:`ParallelExecutor.shutdown` stops the workers and unlinks the
segments.  Under fork the task function and ``state`` reach workers
through inherited memory, so closures work; under spawn they are
pickled, so they must be module-level.  Tasks run at one OpenBLAS thread either way
(:mod:`repro.utils.blas`), because the thread count changes results
in the last bits.

Nesting is refused gracefully: code running inside a worker sees
:func:`in_worker` return ``True`` and :func:`effective_n_jobs`
collapse to 1, so a parallel grid search over a model whose ``fit``
is itself parallel never over-subscribes the machine.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import traceback
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import ReproError, ValidationError
from repro.telemetry.metrics import get_registry, snapshot_diff
from repro.telemetry.tracing import get_tracer
from repro.utils import blas
from repro.utils.shm import SharedArrayHandle, SharedArrays, attach

#: Environment flag set in worker processes; survives exec-style spawn.
_WORKER_ENV = "REPRO_EXECUTOR_WORKER"

# Mints process-unique executor tokens, so worker-side caches keyed by
# :func:`get_config_token` never collide across executors (unlike
# ``id(state)``, which the allocator may reuse).
_CFG_COUNTER = itertools.count(1)

# Task context, set in workers and around inline maps so task
# functions read their inputs the same way either way.
_WORKER_STATE: Optional[Any] = None
_WORKER_SHARED: Dict[str, np.ndarray] = {}
_WORKER_CFG_TOKEN: Optional[int] = None


class TaskError(ReproError):
    """A task raised inside a worker; carries the remote traceback."""

    def __init__(self, task_index: int, exc_type: str, message: str, remote_tb: str):
        super().__init__(
            f"task {task_index} raised {exc_type}: {message}\n"
            f"--- worker traceback ---\n{remote_tb}"
        )
        self.task_index = task_index
        self.exc_type = exc_type
        self.remote_traceback = remote_tb


class WorkerCrashError(ReproError):
    """A worker process died mid-task and retries were exhausted."""

    def __init__(self, task_index: int, attempts: int):
        super().__init__(
            f"worker died while running task {task_index} "
            f"({attempts} attempt(s)); the task was retried on fresh "
            "workers and crashed every time"
        )
        self.task_index = task_index
        self.attempts = attempts


def in_worker() -> bool:
    """True when the calling code runs inside an executor worker."""
    return os.environ.get(_WORKER_ENV) == "1"


def get_state() -> Any:
    """The ``state`` object the executor was constructed with."""
    return _WORKER_STATE


def get_shared() -> Dict[str, np.ndarray]:
    """The broadcast arrays, keyed as passed to ``shared=``."""
    return _WORKER_SHARED


def get_config_token() -> Optional[int]:
    """Process-unique token of the executor serving the current task.

    Stable across every task of one executor and never reused, inline
    or in a pool — the safe key for worker-side caches that must not
    leak from one executor's tasks into another's (see
    ``repro.core.model._WORKER_FIT_CACHE``).
    """
    return _WORKER_CFG_TOKEN


def effective_n_jobs(n_jobs: Optional[int], *, limit: Optional[int] = None) -> int:
    """Resolve an ``n_jobs`` knob into a concrete worker count.

    ``None``/``1`` mean serial, ``-1`` means one worker per CPU this
    process may run on (its affinity mask, where the platform has one),
    and the result is clamped to ``limit`` (e.g. the task count).
    Inside an executor worker this always returns 1 — nested pools
    would oversubscribe the machine without speeding anything up.
    """
    if n_jobs is not None and (n_jobs == 0 or n_jobs < -1):
        raise ValidationError("n_jobs must be None, -1, or a positive integer")
    if n_jobs is None:
        jobs = 1
    elif n_jobs == -1:
        if hasattr(os, "sched_getaffinity"):
            jobs = len(os.sched_getaffinity(0))
        else:  # pragma: no cover - platforms without affinity masks
            jobs = os.cpu_count() or 1
    else:
        jobs = int(n_jobs)
    if in_worker():
        return 1
    if limit is not None:
        jobs = min(jobs, max(1, int(limit)))
    return max(1, jobs)


@dataclass(frozen=True)
class _WireConfig:
    """The one task context (fn, state, shared handles) a pool serves.

    Every worker receives it as a process argument: inherited without
    pickling under fork, which is what lets closures capture numpy
    arrays or fitted models as task functions, and pickled under spawn,
    where ``fn`` and ``state`` must be module-level.
    """

    token: int
    fn: Callable[[Any], Any]
    state: Any = None
    shared: Optional[Dict[str, SharedArrayHandle]] = None


def _worker_main(wire: _WireConfig, conn) -> None:
    """Worker process body: serve tasks of the pool's one config.

    Each worker talks to the parent over its **own** duplex pipe —
    there is no shared queue, so a worker dying at any instant can
    never leave a cross-worker lock held or interleave a partial
    message into another worker's stream (``Connection.send`` is
    synchronous; an async feeder thread would let ``os._exit`` kill a
    half-written frame).  Messages in are ``None`` (exit) or ``(index,
    payload)``; messages out are ``(task_index, status, payload,
    telemetry)`` with status ``"ok"`` or ``"err"`` and ``telemetry``
    either ``None`` or ``(metrics_delta, spans)`` — the worker's
    process-local registry delta since its previous reply plus any
    finished tracer spans, which the parent folds into its own
    registry/tracer (so cross-process totals are exact and
    schedule-independent).  Everything here is deliberately small: this
    code runs outside the parent's test coverage, so the logic that
    matters (retry accounting, ordering, reduction) lives parent-side.

    The worker runs at one BLAS thread for its whole life, because the
    pool's width already uses the cores (see :mod:`repro.utils.blas`).
    """
    global _WORKER_STATE, _WORKER_SHARED, _WORKER_CFG_TOKEN
    os.environ[_WORKER_ENV] = "1"

    # Telemetry baseline: under fork the child inherits the parent's
    # registry contents and tracer buffer — snapshot/clear now so only
    # counts produced *by this worker* are ever shipped back.
    registry = get_registry()
    tracer = get_tracer()
    tracer.clear()
    shipped = registry.snapshot()

    def telemetry_delta():
        nonlocal shipped
        current = registry.snapshot()
        delta = snapshot_diff(current, shipped)
        shipped = current
        spans = tracer.drain() if tracer.enabled else []
        if not delta and not spans:
            return None
        return (delta or None, spans or None)

    # A config that fails to install (e.g. a broadcast segment that is
    # already gone) must not kill the worker: its tasks answer with the
    # install error instead, which the parent surfaces as a TaskError.
    attached = None
    broken = None
    try:
        # Workers share the parent's resource tracker; attaching
        # neither duplicates its registration nor takes over the unlink
        # duty, which stays with the creating parent.
        attached = attach(wire.shared or {})
        _WORKER_STATE, _WORKER_SHARED = wire.state, attached.arrays
        _WORKER_CFG_TOKEN = wire.token
    except Exception as exc:
        broken = (
            type(exc).__name__,
            f"config install failed: {exc}",
            traceback.format_exc(),
        )
    try:
        with blas.limit(1):
            while True:
                msg = conn.recv()
                if msg is None:
                    break
                index, payload = msg
                if broken is not None:
                    conn.send((index, "err", broken, None))
                    continue
                try:
                    result = wire.fn(payload)
                    conn.send((index, "ok", result, telemetry_delta()))
                except BaseException as exc:  # surfaced parent-side as TaskError
                    conn.send(
                        (
                            index,
                            "err",
                            (type(exc).__name__, str(exc), traceback.format_exc()),
                            telemetry_delta(),
                        )
                    )
    except EOFError:  # parent died; nothing left to serve
        pass
    finally:
        if attached is not None:
            attached.close()


def _process_context():
    """The multiprocessing context every pool uses (fork when available)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class WorkerPool:
    """A set of worker processes serving one config.

    The pool receives its config (:class:`_WireConfig`) before it
    starts, and every (re)spawned worker installs it, which is what
    keeps crash-respawn working mid-map.  :class:`ParallelExecutor`
    owns one pool for its lifetime.
    """

    def __init__(self, n_workers: int, config: _WireConfig):
        if n_workers < 1:
            raise ValidationError("n_workers must be at least 1")
        self.n_workers = int(n_workers)
        self._config = config
        self._workers: List = []
        self._conns: List = []
        self._ctx = _process_context()
        self._started = False
        # Runs are serialised: the dispatch loop owns every pipe.
        self._run_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        if self._started:
            return
        if self._ctx.get_start_method() == "fork":
            # Pool tasks are fits and their scoring, which call SciPy's
            # solver: load it once here rather than in every worker.
            blas.import_scipy("optimize")
        self._workers = []
        self._conns = []
        for worker_id in range(self.n_workers):
            self._spawn_worker(worker_id)
        self._started = True

    def _spawn_worker(self, worker_id: int) -> None:
        """(Re)start one worker on a private duplex pipe.

        The worker receives the config through the process arguments —
        inherited under fork, pickled under spawn — so a respawn after
        a crash installs it before the retried task arrives.
        """
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._config, child_conn),
            daemon=True,
        )
        process.start()
        # The child holds its own copy of the pipe end; closing ours
        # makes a dead worker observable as EOF on parent_conn.
        child_conn.close()
        if worker_id < len(self._workers):
            self._workers[worker_id] = process
            self._conns[worker_id] = parent_conn
        else:
            self._workers.append(process)
            self._conns.append(parent_conn)

    def shutdown(self) -> None:
        """Stop the workers (idempotent)."""
        for conn in self._conns:
            try:
                conn.send(None)
            except (OSError, ValueError, BrokenPipeError):  # dead worker
                pass
        for process in self._workers:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self._workers = []
        self._conns = []
        self._started = False

    def _abort(self) -> None:
        """Hard teardown after an unrecoverable crash."""
        for process in self._workers:
            if process.is_alive():
                process.terminate()
        for process in self._workers:
            process.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self._workers = []
        self._conns = []
        self._started = False

    # ------------------------------------------------------------------
    # execution

    def run(self, payloads: Sequence[Any], max_retries: int) -> List[Any]:
        """Run the config's task over payloads; results in payload order.

        ``connection.wait`` watches every worker's pipe *and* its
        process sentinel, so a completed task and a crashed worker are
        both observed immediately, with no polling interval and no
        shared queue whose locks a dying worker could take down.
        """
        with self._run_lock:
            if not self._started:
                self.start()
            return self._run_inner(list(payloads), int(max_retries))

    def _run_inner(self, payloads: List[Any], max_retries: int) -> List[Any]:
        n_tasks = len(payloads)
        results: List[Any] = [None] * n_tasks
        done = [False] * n_tasks
        retries = [0] * n_tasks
        pending = list(range(n_tasks - 1, -1, -1))  # pop() -> task order
        assigned: Dict[int, Optional[int]] = {
            w: None for w in range(len(self._workers))
        }
        n_done = 0
        failure: Optional[TaskError] = None

        def dispatch(worker_id: int) -> None:
            while failure is None and pending:
                index = pending.pop()
                try:
                    self._conns[worker_id].send((index, payloads[index]))
                except (BrokenPipeError, OSError):
                    # The worker died between its last answer and this
                    # send; its slot is already unassigned, so this is
                    # a plain respawn, not a task retry.
                    pending.append(index)
                    self._handle_crash(worker_id, assigned, retries, pending, max_retries)
                    continue
                assigned[worker_id] = index
                return

        def record(
            index: int, status: str, payload: Any, telemetry: Any
        ) -> None:
            nonlocal n_done, failure
            if telemetry is not None:
                # Parent-side reduction of the worker's shipped delta:
                # counters/histograms add, so the totals are exact no
                # matter which worker ran which task.
                metrics_delta, spans = telemetry
                if metrics_delta:
                    get_registry().merge(metrics_delta)
                if spans:
                    get_tracer().ingest(spans)
            if status == "ok":
                results[index] = payload
            elif failure is None:
                failure = TaskError(index, *payload)
            if not done[index]:
                done[index] = True
                n_done += 1

        for worker_id in assigned:
            dispatch(worker_id)

        while n_done < n_tasks:
            if failure is not None and all(
                index is None for index in assigned.values()
            ):
                break  # error + nothing in flight: surface it
            watch = {self._conns[w]: w for w in assigned}
            watch.update({self._workers[w].sentinel: w for w in assigned})
            for ready in connection.wait(list(watch)):
                worker_id = watch[ready]
                conn = self._conns[worker_id]
                if ready is conn or conn.poll():
                    # Drain the result even when the wake-up came from
                    # the sentinel — the worker may have finished its
                    # task and exited before we looked.
                    try:
                        index, status, payload, telemetry = conn.recv()
                    except (EOFError, OSError):
                        self._handle_crash(
                            worker_id, assigned, retries, pending, max_retries
                        )
                        dispatch(worker_id)
                        continue
                    assigned[worker_id] = None
                    record(index, status, payload, telemetry)
                    dispatch(worker_id)
                elif not self._workers[worker_id].is_alive():
                    self._handle_crash(
                        worker_id, assigned, retries, pending, max_retries
                    )
                    dispatch(worker_id)

        if failure is not None:
            raise failure
        return results

    def _handle_crash(
        self,
        worker_id: int,
        assigned: Dict[int, Optional[int]],
        retries: List[int],
        pending: List[int],
        max_retries: int,
    ) -> None:
        """Respawn a dead worker and requeue (or give up on) its task."""
        get_registry().counter("executor_worker_respawns_total").inc()
        self._workers[worker_id].join()
        self._conns[worker_id].close()
        index = assigned[worker_id]
        self._spawn_worker(worker_id)
        assigned[worker_id] = None
        if index is None:
            return
        retries[index] += 1
        if retries[index] > max_retries:
            self._abort()
            raise WorkerCrashError(index, retries[index])
        # Retry on the freshly spawned worker; determinism is
        # unaffected because the payload (and its seed) is reused.
        # Counted separately from respawns: a respawn between runs
        # (dead pipe on dispatch) retries nothing.
        get_registry().counter("executor_task_retries_total").inc()
        pending.append(index)


class ParallelExecutor:
    """Run one task function over payload lists, in parallel.

    Parameters
    ----------
    fn:
        The task function, called as ``fn(payload)`` for every payload
        passed to :meth:`map`.  It reads broadcast arrays via
        :func:`get_shared` and the shared ``state`` via
        :func:`get_state`, identically inline and in workers.
    n_jobs:
        Worker count (``None``/1 inline, ``-1`` per-CPU).
    state:
        Arbitrary object made available to tasks via :func:`get_state`
        — inherited under fork, pickled under spawn.
    shared:
        Mapping of name -> ndarray broadcast zero-copy to workers
        (:mod:`repro.utils.shm`).  The executor owns the segments and
        unlinks them on :meth:`shutdown`, even when a map raises.
    max_retries:
        How many times a task whose worker *died* is retried on a
        fresh worker before :class:`WorkerCrashError`.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        n_jobs: Optional[int] = None,
        *,
        state: Any = None,
        shared: Optional[Mapping[str, np.ndarray]] = None,
        max_retries: int = 1,
    ):
        if max_retries < 0:
            raise ValidationError("max_retries must be non-negative")
        self.fn = fn
        self.n_jobs = effective_n_jobs(n_jobs)
        self.max_retries = int(max_retries)
        self._state = state
        self._shared_input = dict(shared) if shared else {}
        self._shm: Optional[SharedArrays] = None
        self._pool: Optional[WorkerPool] = None
        self._token: int = 0
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle

    def __enter__(self) -> "ParallelExecutor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._token = next(_CFG_COUNTER)
        if self.n_jobs == 1:
            return
        try:
            handles = None
            if self._shared_input:
                self._shm = SharedArrays(self._shared_input)
                handles = self._shm.handles
            wire = _WireConfig(self._token, self.fn, self._state, handles)
            self._pool = WorkerPool(self.n_jobs, wire)
            self._pool.start()
        except BaseException:
            # A half-started executor must not strand segments or
            # workers; shutdown releases whatever the failing step had
            # already acquired.
            self.shutdown()
            raise

    def shutdown(self) -> None:
        """Stop the workers and unlink the shared segments (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._shm is not None:
            self._shm.unlink()
            self._shm = None
        self._started = False

    # ------------------------------------------------------------------
    # execution

    def map(self, payloads: Sequence[Any]) -> List[Any]:
        """Run ``fn`` over every payload; results in payload order.

        Raises :class:`TaskError` if a task raised (after letting
        in-flight tasks finish) and :class:`WorkerCrashError` when a
        worker death exhausted its retries.  The pool survives a
        ``TaskError`` — subsequent :meth:`map` calls reuse it; after a
        ``WorkerCrashError`` the executor resets, and the next map
        rebuilds its context from the *current* ``fn``/``state``.
        """
        if not self._started:
            self.start()
        payloads = list(payloads)
        if not payloads:
            return []
        # Counted parent-side so inline and pooled maps report the same
        # totals for the same work — the invariant the metrics-merge
        # parity test pins down.
        registry = get_registry()
        registry.counter("executor_maps_total").inc()
        registry.counter("executor_tasks_total").inc(len(payloads))
        with get_tracer().span(
            "executor.map", n_jobs=self.n_jobs, n_tasks=len(payloads)
        ):
            if self._pool is None:
                return self._map_local(payloads)
            try:
                return self._pool.run(payloads, self.max_retries)
            except WorkerCrashError:
                self.shutdown()
                raise

    def _map_local(self, payloads: List[Any]) -> List[Any]:
        """Inline execution with the same context accessors.

        Leaves the :func:`in_worker` flag down: a serial search over
        parallel fits is legitimate.  Tasks run at one BLAS thread, as
        pool workers do, so both paths compute the same bits.
        """
        global _WORKER_STATE, _WORKER_SHARED, _WORKER_CFG_TOKEN
        prev = (_WORKER_STATE, _WORKER_SHARED, _WORKER_CFG_TOKEN)
        _WORKER_STATE = self._state
        _WORKER_SHARED = dict(self._shared_input)
        _WORKER_CFG_TOKEN = self._token
        try:
            with blas.limit(1):
                return [self.fn(payload) for payload in payloads]
        finally:
            _WORKER_STATE, _WORKER_SHARED, _WORKER_CFG_TOKEN = prev


def run_tasks(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    n_jobs: Optional[int] = None,
    *,
    state: Any = None,
    shared: Optional[Mapping[str, np.ndarray]] = None,
    max_retries: int = 1,
) -> List[Any]:
    """One-shot convenience wrapper around :class:`ParallelExecutor`."""
    with ParallelExecutor(
        fn, n_jobs, state=state, shared=shared, max_retries=max_retries
    ) as executor:
        return executor.map(payloads)
