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

Pool modes
----------
``pool="per-call"`` (default) spawns a private pool per executor and
tears it down on shutdown — fully isolated, but a small fit pays the
whole spawn + broadcast cost every time.  ``pool="session"`` borrows a
persistent pool from the process-wide :class:`PoolBroker` instead: the
workers outlive the executor (reference-counted, reaped after
``PoolBroker.idle_timeout`` seconds without a lease), the task
function travels by pickle, and shared arrays go through the
content-addressed :func:`repro.utils.shm.arena` cache so a matrix
already broadcast for tuning is reused by the subsequent refit.
Results are bitwise-identical between the two modes; a task function
that cannot be pickled (a closure) silently falls back to a per-call
pool, where fork inheritance still transports it.

Backends
--------
``"process"`` (default) forks one process per job slot.  Under the
``fork`` start method the task function and ``state`` are handed to
workers through inherited memory, so closures work; under ``spawn``
they are pickled, so they must be module-level.  ``"thread"`` is an
explicit escape hatch for workloads that release the GIL (e.g. fits
dominated by large BLAS calls), and ``"serial"`` runs inline — the
reference semantics the parallel backends must reproduce bitwise.
Every backend runs its tasks at one OpenBLAS thread
(:mod:`repro.utils.blas`), because the thread count changes results
in the last bits.

Nesting is refused gracefully: code running inside a worker sees
:func:`in_worker` return ``True`` and :func:`effective_n_jobs`
collapse to 1, so a parallel grid search over a model whose ``fit``
is itself parallel never over-subscribes the machine.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import connection, shared_memory
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import ReproError, ValidationError
from repro.telemetry.metrics import get_registry, snapshot_diff
from repro.telemetry.tracing import get_tracer
from repro.utils import blas
from repro.utils.shm import ArenaLease, SharedArrayHandle, SharedArrays, arena

EXECUTOR_BACKENDS = ("process", "thread", "serial")
POOL_MODES = ("per-call", "session")

#: Default seconds a broker pool survives without a lease before its
#: workers are reaped (mutable on ``PoolBroker.instance()``).
DEFAULT_IDLE_TIMEOUT = 30.0

#: Environment flag set in worker processes; survives exec-style spawn.
_WORKER_ENV = "REPRO_EXECUTOR_WORKER"

# Fork-path handoff: (fn, state) published here before the fork are
# inherited by the child without pickling, which is what lets closures
# capture numpy arrays or fitted models as task functions.
_FORK_HANDOFF: Dict[int, tuple] = {}

# Mints process-unique config tokens: every executor lifecycle gets a
# fresh one, so worker-side caches keyed by :func:`get_config_token`
# can never collide across the sequential fits a session pool serves
# (unlike ``id(state)``, which the allocator may reuse).
_CFG_COUNTER = itertools.count(1)

# Worker-side context, also used by the serial/thread backends so task
# functions read their inputs the same way under every backend.
_WORKER_STATE: Optional[Any] = None
_WORKER_SHARED: Dict[str, np.ndarray] = {}
_WORKER_HANDLES: Dict[str, SharedArrayHandle] = {}
_WORKER_CFG_TOKEN: Optional[int] = None
_IN_WORKER = False


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
    return _IN_WORKER or os.environ.get(_WORKER_ENV) == "1"


def get_state() -> Any:
    """The ``state`` object the executor was constructed with."""
    return _WORKER_STATE


def get_shared() -> Dict[str, np.ndarray]:
    """The broadcast arrays, keyed as passed to ``shared=``."""
    return _WORKER_SHARED


def get_shared_handles() -> Dict[str, SharedArrayHandle]:
    """Segment descriptors of the broadcast arrays (process backend).

    Segment names are minted from a never-reused counter and, under
    the session arena, content-addressed — two broadcasts carrying the
    same name are byte-identical.  That makes the name a sound key for
    worker-side caches of derived structures (e.g. a fit objective
    precomputed from the training matrix).  Empty for the serial and
    thread backends, where no segments exist.
    """
    return _WORKER_HANDLES


def get_config_token() -> Optional[int]:
    """Process-unique token of the executor serving the current task.

    Stable across every task of one executor lifecycle and never
    reused, under any backend — the safe key for worker-side caches
    that must not leak between the consecutive fits a session pool
    serves (see ``repro.core.model._WORKER_FIT_CACHE``).
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
    """One task context (fn, state, shared handles) as sent to workers.

    Exactly one transport is set: ``handoff`` (a :data:`_FORK_HANDOFF`
    token, inherited without pickling — per-call pools under fork),
    ``payload`` (the raw ``(fn, state)`` tuple, pickled by the
    multiprocessing machinery — per-call pools under spawn), or
    ``blob`` (bytes pre-pickled in the parent — session pools, where
    the workers already exist and eager pickling lets unpicklable
    functions fail fast and fall back to a per-call pool).
    """

    token: int
    handoff: Optional[int] = None
    payload: Optional[tuple] = None
    blob: Optional[bytes] = None
    shared: Optional[Dict[str, SharedArrayHandle]] = None


def _worker_main(configs: Dict[int, _WireConfig], conn) -> None:
    """Worker process body: serve tasks for any installed config.

    Each worker talks to the parent over its **own** duplex pipe —
    there is no shared queue, so a worker dying at any instant can
    never leave a cross-worker lock held or interleave a partial
    message into another worker's stream (``Connection.send`` is
    synchronous; an async feeder thread would let ``os._exit`` kill a
    half-written frame).  Messages in are ``None`` (exit),
    ``("cfg", wire)``, ``("drop", token)``, or ``("task", token,
    index, payload)``; messages out are ``(task_index, status,
    payload, telemetry)`` with status ``"ok"`` or ``"err"`` and
    ``telemetry`` either ``None`` or ``(metrics_delta, spans)`` — the
    worker's process-local registry delta since its previous reply
    plus any finished tracer spans, which the parent folds into its
    own registry/tracer (so cross-process totals are exact and
    schedule-independent).  Shared-memory
    segments are attached once per name and refcounted across configs,
    so a session pool re-targeted at the same broadcast (the arena
    cache hit) pays no re-attach.  Everything here is deliberately
    small: this code runs outside the parent's test coverage, so the
    logic that matters (retry accounting, ordering, reduction) lives
    parent-side.

    The worker runs at one BLAS thread for its whole life, because the
    pool's width already uses the cores (see :mod:`repro.utils.blas`).
    """
    global _WORKER_STATE, _WORKER_SHARED, _WORKER_HANDLES
    global _WORKER_CFG_TOKEN, _IN_WORKER
    _IN_WORKER = True
    os.environ[_WORKER_ENV] = "1"
    # Segment mappings live for the whole worker lifetime: closing a
    # mapping unmaps its pages even while numpy views exist, and task
    # code legitimately caches structures derived from the broadcast
    # across configs (e.g. the fit oracle memo in repro.core.model,
    # keyed by segment name) — dropping a config must never turn such
    # a cache entry into a dangling pointer.  The mappings die with
    # the worker, which the broker reaps together with the arena's
    # cached segments.
    segments: Dict[str, shared_memory.SharedMemory] = {}
    installed: Dict[int, tuple] = {}  # token -> (fn, state, arrays, handles)
    broken: Dict[int, tuple] = {}  # token -> (exc_type, message, traceback)

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

    def install(wire: _WireConfig) -> None:
        # A config that fails to install (typically: the blob pickled
        # by reference to a name this worker's modules don't have yet)
        # must not kill the worker — its tasks answer with the install
        # error instead, which the parent surfaces as a TaskError.
        try:
            if wire.handoff is not None:  # fork path: inherited, never pickled
                fn, state = _FORK_HANDOFF[wire.handoff]
            elif wire.blob is not None:  # session path: parent-pickled
                fn, state = pickle.loads(wire.blob)
            else:  # spawn path: pickled by the mp machinery
                fn, state = wire.payload
            handles = wire.shared or {}
            arrays: Dict[str, np.ndarray] = {}
            for key, handle in handles.items():
                segment = segments.get(handle.name)
                if segment is None:
                    # Workers share the parent's resource tracker;
                    # attaching neither duplicates its registration nor
                    # takes over the unlink duty, which stays with the
                    # creating parent.
                    segment = shared_memory.SharedMemory(name=handle.name)
                    segments[handle.name] = segment
                view = np.ndarray(
                    handle.shape, dtype=np.dtype(handle.dtype), buffer=segment.buf
                )
                view.flags.writeable = False
                arrays[key] = view
        except BaseException as exc:
            broken[wire.token] = (
                type(exc).__name__,
                f"config install failed: {exc}",
                traceback.format_exc(),
            )
            return
        broken.pop(wire.token, None)
        installed[wire.token] = (fn, state, arrays, handles)

    def drop(token: int) -> None:
        installed.pop(token, None)  # mappings stay (see above)
        broken.pop(token, None)

    for wire in configs.values():
        install(wire)
    try:
        with blas.limit(1):
            while True:
                msg = conn.recv()
                if msg is None:
                    break
                kind = msg[0]
                if kind == "cfg":
                    install(msg[1])
                    continue
                if kind == "drop":
                    drop(msg[1])
                    continue
                token, index, payload = msg[1], msg[2], msg[3]
                if token in broken:
                    conn.send((index, "err", broken[token], None))
                    continue
                fn, state, arrays, handles = installed[token]
                _WORKER_STATE, _WORKER_SHARED, _WORKER_CFG_TOKEN = state, arrays, token
                _WORKER_HANDLES = dict(handles)
                try:
                    result = fn(payload)
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
        for segment in segments.values():
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - best-effort
                pass


def _process_context():
    """The multiprocessing context every pool uses (fork when available)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class WorkerPool:
    """A set of persistent, *retargetable* worker processes.

    The pool carries no task function of its own: callers install
    **configs** (:class:`_WireConfig`) and run payload batches against
    a config token, so one pool can serve a grid search, then a fit's
    restarts, then a serving refit without respawning.
    :class:`ParallelExecutor` owns a private pool for the per-call
    mode; :class:`PoolBroker` lends long-lived ones for the session
    mode.  The config table is replayed to every (re)spawned worker,
    which is what keeps crash-respawn working mid-session.
    """

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValidationError("n_workers must be at least 1")
        self.n_workers = int(n_workers)
        self._configs: Dict[int, _WireConfig] = {}
        self._workers: List = []
        self._conns: List = []
        self._ctx = None
        self._started = False
        # Runs are serialised: the dispatch loop owns every pipe.
        self._run_lock = threading.Lock()

    @property
    def started(self) -> bool:
        return self._started

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (diagnostics and warm-reuse tests)."""
        return [process.pid for process in self._workers]

    @property
    def is_fork(self) -> bool:
        """Whether workers inherit memory (fork) or pickle (spawn)."""
        ctx = self._ctx if self._ctx is not None else _process_context()
        return ctx.get_start_method() == "fork"

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        if self._started:
            return
        self._ctx = _process_context()
        self._workers = []
        self._conns = []
        for worker_id in range(self.n_workers):
            self._spawn_worker(worker_id)
        self._started = True

    def _spawn_worker(self, worker_id: int) -> None:
        """(Re)start one worker on a private duplex pipe.

        The worker receives the *current* config table through the
        process arguments — inherited under fork, pickled under spawn
        — so a respawn after a crash re-installs every live config
        before the retried task arrives.
        """
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(dict(self._configs), child_conn),
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

    def add_config(self, wire: _WireConfig) -> None:
        """Install a config on every worker (and in the respawn table).

        Takes the run lock: a concurrent :meth:`run` (another thread
        sharing this broker pool) owns the pipes while dispatching,
        and ``Connection.send`` frames must never interleave.
        """
        with self._run_lock:
            self._configs[wire.token] = wire
            if not self._started:
                return
            for worker_id in range(len(self._workers)):
                try:
                    self._conns[worker_id].send(("cfg", wire))
                except (BrokenPipeError, OSError, ValueError):
                    # Dead between runs: a fresh worker picks the config
                    # up from the table; no task was in flight to retry.
                    self._respawn_dead(worker_id)

    def drop_config(self, token: int) -> None:
        """Forget a config (workers release its arrays, best-effort)."""
        with self._run_lock:
            self._configs.pop(token, None)
            for conn in self._conns:
                try:
                    conn.send(("drop", token))
                except (BrokenPipeError, OSError, ValueError):
                    pass  # dead worker respawns from the (updated) table

    def _respawn_dead(self, worker_id: int) -> None:
        self._workers[worker_id].join()
        self._conns[worker_id].close()
        self._spawn_worker(worker_id)

    def shutdown(self) -> None:
        """Stop the workers (idempotent); the config table survives."""
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
        """Hard teardown after an unrecoverable crash.

        Configs are kept: a broker-owned pool respawns from the table
        on its next run, so one poisoned session does not strand every
        later caller.
        """
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

    def run(
        self, token: int, payloads: Sequence[Any], max_retries: int
    ) -> List[Any]:
        """Run one config over payloads; results in payload order.

        ``connection.wait`` watches every worker's pipe *and* its
        process sentinel, so a completed task and a crashed worker are
        both observed immediately, with no polling interval and no
        shared queue whose locks a dying worker could take down.
        """
        with self._run_lock:
            if not self._started:
                self.start()
            return self._run_inner(token, list(payloads), int(max_retries))

    def _run_inner(
        self, token: int, payloads: List[Any], max_retries: int
    ) -> List[Any]:
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
                    self._conns[worker_id].send(
                        ("task", token, index, payloads[index])
                    )
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


class PoolLease:
    """A reference-counted borrow of a broker pool (release once)."""

    def __init__(self, broker: "PoolBroker", key: int, pool: WorkerPool):
        self._broker = broker
        self._key = key
        self.pool = pool
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._broker._release(self._key)


class PoolBroker:
    """Process-wide lender of persistent :class:`WorkerPool`s.

    One pool per worker count, created on first lease and shared by
    every ``pool="session"`` executor that asks for that width (grid
    search, fit restarts, serving refits).  Leases are reference-
    counted; when the last one is released a daemon timer reaps the
    pool after :attr:`idle_timeout` seconds of disuse (and, once no
    pool remains, the refcount-free entries of the shm arena cache),
    so an idle interpreter holds no worker processes or segments
    forever.  A fork guard drops inherited broker state in child
    processes — the parent's workers are not the child's to talk to.
    """

    _instance: Optional["PoolBroker"] = None
    _instance_lock = threading.Lock()

    def __init__(self, idle_timeout: float = DEFAULT_IDLE_TIMEOUT):
        self.idle_timeout = float(idle_timeout)
        self._lock = threading.RLock()
        self._pools: Dict[int, dict] = {}
        self._pid = os.getpid()

    @classmethod
    def instance(cls) -> "PoolBroker":
        with cls._instance_lock:
            if cls._instance is None:
                cls._instance = PoolBroker()
            return cls._instance

    @classmethod
    def reset(cls) -> None:
        """Shut the singleton down (tests, atexit)."""
        with cls._instance_lock:
            broker = cls._instance
            cls._instance = None
        if broker is not None:
            broker.shutdown()

    # ------------------------------------------------------------------

    def lease(self, n_workers: int) -> PoolLease:
        """Borrow the shared pool of ``n_workers`` (creating it cold)."""
        with self._lock:
            self._check_fork()
            entry = self._pools.get(n_workers)
            if entry is None:
                entry = {
                    "pool": WorkerPool(n_workers),
                    "refs": 0,
                    "generation": 0,
                    "timer": None,
                }
                self._pools[n_workers] = entry
            if entry["timer"] is not None:
                entry["timer"].cancel()
                entry["timer"] = None
            entry["refs"] += 1
            entry["generation"] += 1
            return PoolLease(self, n_workers, entry["pool"])

    def _release(self, key: int) -> None:
        with self._lock:
            entry = self._pools.get(key)
            if entry is None:
                return
            entry["refs"] -= 1
            if entry["refs"] > 0:
                return
            generation = entry["generation"]
            if self.idle_timeout <= 0:
                self._reap(key, generation)
                return
            timer = threading.Timer(
                self.idle_timeout, self._reap, args=(key, generation)
            )
            timer.daemon = True
            entry["timer"] = timer
            timer.start()

    def _reap(self, key: int, generation: int) -> None:
        """Shut an idle pool down, unless it was re-leased meanwhile."""
        with self._lock:
            entry = self._pools.get(key)
            if (
                entry is None
                or entry["refs"] > 0
                or entry["generation"] != generation
            ):
                return
            entry["pool"].shutdown()
            del self._pools[key]
            last_pool = not self._pools
        if last_pool:
            # No session pool left to warm: cached (refcount-free)
            # arena broadcasts would outlive their only consumers.
            arena().reap()

    def reap_idle(self) -> None:
        """Immediately reap every lease-free pool (deterministic tests)."""
        with self._lock:
            keys = [
                (key, entry["generation"])
                for key, entry in self._pools.items()
                if entry["refs"] <= 0
            ]
        for key, generation in keys:
            self._reap(key, generation)

    def shutdown(self) -> None:
        """Stop every pool and cancel pending reap timers."""
        with self._lock:
            entries = list(self._pools.values())
            self._pools = {}
        for entry in entries:
            if entry["timer"] is not None:
                entry["timer"].cancel()
            entry["pool"].shutdown()

    def stats(self) -> Dict[int, Dict[str, int]]:
        """Per-width pool diagnostics (refcounts, liveness).

        The same numbers land in the process-wide metrics registry as
        ``executor_pool_*`` gauges, so the Prometheus endpoint and this
        dict can never disagree.
        """
        with self._lock:
            stats = {
                key: {
                    "refs": entry["refs"],
                    "started": entry["pool"].started,
                    "workers": len(entry["pool"].worker_pids()),
                }
                for key, entry in self._pools.items()
            }
        registry = get_registry()
        registry.gauge("executor_pools").set(len(stats))
        for key, entry in stats.items():
            labels = {"width": str(key)}
            registry.gauge("executor_pool_refs", labels).set(entry["refs"])
            registry.gauge("executor_pool_workers", labels).set(
                entry["workers"]
            )
        return stats

    def _check_fork(self) -> None:
        # A forked child inherits this dict, but the worker processes
        # in it belong to the parent: forget them without touching.
        if os.getpid() != self._pid:
            self._pools.clear()
            self._pid = os.getpid()


def shutdown_session_pools() -> None:
    """Tear down the broker's pools and the shm arena cache.

    The explicit end-of-session hook for benchmarks and tests that
    must leave ``/dev/shm`` clean before asserting on it; interpreter
    exit runs the same cleanup through ``atexit``.
    """
    PoolBroker.reset()
    arena().clear()


def _forget_broker_in_child() -> None:
    broker = PoolBroker._instance
    if broker is not None:
        broker._pools.clear()
        broker._pid = os.getpid()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX-only repo
    os.register_at_fork(after_in_child=_forget_broker_in_child)

atexit.register(shutdown_session_pools)


class ParallelExecutor:
    """Run one task function over payload lists, in parallel.

    Parameters
    ----------
    fn:
        The task function, called as ``fn(payload)`` for every payload
        passed to :meth:`map`.  It reads broadcast arrays via
        :func:`get_shared` and the shared ``state`` via
        :func:`get_state`, identically under every backend.
    n_jobs:
        Worker count (``None``/1 serial, ``-1`` per-CPU).
    backend:
        ``"process"`` (default), ``"thread"``, or ``"serial"``.
    state:
        Arbitrary object made available to tasks via :func:`get_state`
        — transported by fork inheritance when possible, by pickle
        under spawn and in session pools.
    shared:
        Mapping of name -> ndarray broadcast zero-copy to workers
        (:mod:`repro.utils.shm`).  A per-call executor owns the
        segments and unlinks them on :meth:`shutdown` even when a map
        raises; a session executor leases them from the process-wide
        arena cache, which keeps them warm for the next publisher of
        the same bytes.
    max_retries:
        How many times a task whose worker *died* is retried on a
        fresh worker before :class:`WorkerCrashError`.
    pool:
        ``"per-call"`` (default: private pool, torn down with the
        executor) or ``"session"`` (borrow the persistent broker pool
        and the arena cache — same results, amortised spawn/broadcast
        cost).  ``fn``/``state`` that cannot be pickled fall back to
        per-call, where fork inheritance transports them.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        n_jobs: Optional[int] = None,
        *,
        backend: str = "process",
        state: Any = None,
        shared: Optional[Mapping[str, np.ndarray]] = None,
        max_retries: int = 1,
        pool: str = "per-call",
    ):
        if backend not in EXECUTOR_BACKENDS:
            raise ValidationError(
                f"backend must be one of {EXECUTOR_BACKENDS}, got {backend!r}"
            )
        if pool not in POOL_MODES:
            raise ValidationError(
                f"pool must be one of {POOL_MODES}, got {pool!r}"
            )
        if max_retries < 0:
            raise ValidationError("max_retries must be non-negative")
        self.fn = fn
        self.n_jobs = effective_n_jobs(n_jobs)
        self.backend = backend if self.n_jobs > 1 else "serial"
        self.pool_mode = pool
        self.max_retries = int(max_retries)
        self._state = state
        self._shared_input = dict(shared) if shared else {}
        self._shm: Optional[SharedArrays] = None
        self._own_pool: Optional[WorkerPool] = None
        self._lease: Optional[PoolLease] = None
        self._arena_lease: Optional[ArenaLease] = None
        self._handoff_token: Optional[int] = None
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
        if self.backend != "process":
            return
        try:
            if self.pool_mode == "session" and self._start_session():
                return
            self._start_per_call()
        except BaseException:
            # A half-started executor must not strand leases (a leaked
            # refcount keeps broker workers alive past every idle
            # reap) or segments; shutdown releases whatever the
            # failing step had already acquired.
            self.shutdown()
            raise

    def _start_session(self) -> bool:
        """Borrow the broker pool; False -> fall back to per-call."""
        try:
            blob = pickle.dumps((self.fn, self._state))
        except Exception:
            # Closures can't reach pre-existing workers; a private
            # fork-inheriting pool still runs them, with identical
            # results (only the warmth is lost).
            return False
        handles = None
        if self._shared_input:
            self._arena_lease = arena().publish(self._shared_input)
            handles = self._arena_lease.handles
        self._lease = PoolBroker.instance().lease(self.n_jobs)
        self._lease.pool.add_config(
            _WireConfig(token=self._token, blob=blob, shared=handles)
        )
        return True

    def _start_per_call(self) -> None:
        self._own_pool = WorkerPool(self.n_jobs)
        handles = None
        if self._shared_input:
            self._shm = SharedArrays(self._shared_input)
            handles = self._shm.handles
        if self._own_pool.is_fork:
            self._handoff_token = next(_CFG_COUNTER)
            _FORK_HANDOFF[self._handoff_token] = (self.fn, self._state)
            wire = _WireConfig(
                token=self._token, handoff=self._handoff_token, shared=handles
            )
        else:
            wire = _WireConfig(
                token=self._token, payload=(self.fn, self._state), shared=handles
            )
        self._own_pool.add_config(wire)
        self._own_pool.start()

    def shutdown(self) -> None:
        """Release workers and shared segments (idempotent).

        Per-call: stop the private pool and unlink its segments.
        Session: drop this executor's config from the shared pool and
        release the leases — the workers (and the cached broadcast)
        stay warm for the next caller.
        """
        if self._lease is not None:
            self._lease.pool.drop_config(self._token)
            self._lease.release()
            self._lease = None
        if self._arena_lease is not None:
            self._arena_lease.release()
            self._arena_lease = None
        if self._own_pool is not None:
            self._own_pool.shutdown()
            self._own_pool = None
        if self._handoff_token is not None:
            _FORK_HANDOFF.pop(self._handoff_token, None)
            self._handoff_token = None
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
        # Counted parent-side so every backend (serial, thread,
        # process) reports the same totals for the same work — the
        # invariant the metrics-merge parity test pins down.
        registry = get_registry()
        registry.counter("executor_maps_total").inc()
        registry.counter("executor_tasks_total").inc(len(payloads))
        with get_tracer().span(
            "executor.map", backend=self.backend, n_tasks=len(payloads)
        ):
            if self.backend == "serial":
                return self._map_local(payloads, parallel=False)
            if self.backend == "thread":
                return self._map_local(payloads, parallel=True)
            pool = (
                self._lease.pool if self._lease is not None else self._own_pool
            )
            try:
                return pool.run(self._token, payloads, self.max_retries)
            except WorkerCrashError:
                self.shutdown()
                raise

    def _map_local(self, payloads: List[Any], *, parallel: bool) -> List[Any]:
        """Serial/thread execution with the same context accessors.

        The thread backend also raises the :func:`in_worker` flag so
        task code applying the nested-parallelism guard behaves the
        same as under the process backend; plain serial maps leave it
        down (a serial search over parallel fits is legitimate).  Tasks
        run at one BLAS thread, as process workers do, so every backend
        computes the same bits.
        """
        global _WORKER_STATE, _WORKER_SHARED, _WORKER_HANDLES
        global _WORKER_CFG_TOKEN, _IN_WORKER
        prev = (
            _WORKER_STATE,
            _WORKER_SHARED,
            _WORKER_HANDLES,
            _WORKER_CFG_TOKEN,
            _IN_WORKER,
        )
        _WORKER_STATE = self._state
        _WORKER_SHARED = dict(self._shared_input)
        _WORKER_HANDLES = {}
        _WORKER_CFG_TOKEN = self._token
        try:
            with blas.limit(1):
                if not parallel:
                    return [self.fn(payload) for payload in payloads]
                _IN_WORKER = True
                with ThreadPoolExecutor(max_workers=self.n_jobs) as pool:
                    return list(pool.map(self.fn, payloads))
        finally:
            (
                _WORKER_STATE,
                _WORKER_SHARED,
                _WORKER_HANDLES,
                _WORKER_CFG_TOKEN,
                _IN_WORKER,
            ) = prev


def run_tasks(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    n_jobs: Optional[int] = None,
    *,
    backend: str = "process",
    state: Any = None,
    shared: Optional[Mapping[str, np.ndarray]] = None,
    max_retries: int = 1,
    pool: str = "per-call",
) -> List[Any]:
    """One-shot convenience wrapper around :class:`ParallelExecutor`."""
    with ParallelExecutor(
        fn,
        n_jobs,
        backend=backend,
        state=state,
        shared=shared,
        max_retries=max_retries,
        pool=pool,
    ) as executor:
        return executor.map(payloads)
