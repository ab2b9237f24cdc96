"""Zero-copy broadcast of numpy arrays to worker processes.

Process-parallel tuning (:mod:`repro.core.executor`) fans hundreds of
candidate fits over a worker pool.  Pickling the training/validation
matrices into every task would copy a 20k x N dataset once per grid
point; instead the parent publishes each array once into a POSIX
shared-memory segment (:mod:`multiprocessing.shared_memory`) and
workers map the same pages read-only.

:class:`SharedArrays` owns the parent side (create, unlink), and
:func:`attach` opens the worker side from the picklable
:class:`SharedArrayHandle` descriptors.  Both ends are context
managers so segments are released even when a fit raises — leaked
``/dev/shm`` entries are a test-enforced bug
(``tests/unit/test_shm.py``).  Every executor owns its broadcast and
unlinks it when it shuts down.

The serving dispatcher (:mod:`repro.serving.dispatcher`) publishes
model artifacts to its engine workers through the **arena**
(:class:`ShmArena`, reachable through the process-wide :func:`arena`
singleton): a content-addressed, reference-counted cache of published
arrays.  Publishing the same bytes twice — a blue/green reload of an
unchanged artifact — returns the *existing* segment instead of
re-copying it, and releasing a lease keeps the segment cached until
the dispatcher reaps the cache on stop or the interpreter exits.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import get_tracer

#: Prefix of every segment this module creates; tests sweep
#: ``/dev/shm`` for it to prove nothing leaks.
SEGMENT_PREFIX = "repro_shm_"

# pid + a process-local counter makes names unique: only the creating
# process mints them, and concurrent parents differ in pid.
_SEGMENT_COUNTER = itertools.count()


@dataclass(frozen=True)
class SharedArrayHandle:
    """Picklable descriptor of one shared array (name, layout)."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


class AttachedArrays:
    """Worker-side view of a :class:`SharedArrays` broadcast.

    Maps every segment named by ``handles`` and exposes read-only
    ndarray views under the original keys.  ``close()`` (or the
    context manager) drops the mappings; the parent keeps the unlink
    responsibility.
    """

    def __init__(self, handles: Mapping[str, SharedArrayHandle]):
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self.arrays: Dict[str, np.ndarray] = {}
        try:
            for key, handle in handles.items():
                # Workers share the parent's resource-tracker process
                # (the fd rides along under both fork and spawn), and
                # its registration cache is a per-name set — attaching
                # here neither duplicates the entry nor takes over the
                # unlink duty, which stays with the creating parent.
                shm = shared_memory.SharedMemory(name=handle.name)
                self._segments[key] = shm
                view = np.ndarray(
                    handle.shape, dtype=np.dtype(handle.dtype), buffer=shm.buf
                )
                view.flags.writeable = False
                self.arrays[key] = view
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Drop every mapping (views become invalid)."""
        self.arrays = {}
        for shm in self._segments.values():
            try:
                shm.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        self._segments = {}

    def __enter__(self) -> "AttachedArrays":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach(handles: Mapping[str, SharedArrayHandle]) -> AttachedArrays:
    """Open the worker-side view of a broadcast (see ``SharedArrays``)."""
    return AttachedArrays(handles)


class SharedArrays:
    """Parent-side owner of a set of shared-memory array segments.

    Parameters
    ----------
    arrays:
        Mapping of key -> ndarray.  Each array is copied once into a
        fresh segment (C-contiguous); workers then attach by name with
        no further copies or pickling.

    Use as a context manager (or call :meth:`unlink`) so the segments
    are removed from ``/dev/shm`` even when the parallel section
    raises.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        if not arrays:
            raise ValidationError("SharedArrays needs at least one array")
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._handles: Dict[str, SharedArrayHandle] = {}
        self.arrays: Dict[str, np.ndarray] = {}
        registry = get_registry()
        try:
            with get_tracer().span("shm.broadcast", n_arrays=len(arrays)):
                self._create(arrays, registry)
        except BaseException:
            self.unlink()
            raise

    def _create(self, arrays: Mapping[str, np.ndarray], registry) -> None:
        for key, array in arrays.items():
            array = np.ascontiguousarray(array)
            if array.size == 0:
                raise ValidationError(f"shared array {key!r} must not be empty")
            shm = shared_memory.SharedMemory(
                create=True,
                size=array.nbytes,
                name=f"{SEGMENT_PREFIX}{os.getpid()}_{next(_SEGMENT_COUNTER)}",
            )
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
            view[...] = array
            view.flags.writeable = False
            self._segments[key] = shm
            self._handles[key] = SharedArrayHandle(
                name=shm.name, shape=tuple(array.shape), dtype=array.dtype.str
            )
            self.arrays[key] = view
            registry.counter("shm_broadcast_segments_total").inc()
            registry.counter("shm_broadcast_bytes_total").inc(array.nbytes)

    @property
    def handles(self) -> Dict[str, SharedArrayHandle]:
        """Picklable descriptors for :func:`attach` in workers."""
        return dict(self._handles)

    def unlink(self) -> None:
        """Close the mappings and remove the segments from the system."""
        self.arrays = {}
        self._handles = {}
        for shm in self._segments.values():
            try:
                shm.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = {}

    def __enter__(self) -> "SharedArrays":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


@dataclass
class _ArenaEntry:
    """One cached broadcast array (segment + refcount)."""

    segment: shared_memory.SharedMemory
    handle: SharedArrayHandle
    refs: int = 0


class ArenaLease:
    """A reference-counted borrow of arena segments (release once).

    ``handles`` maps the caller's array keys to picklable
    :class:`SharedArrayHandle` descriptors, exactly like
    ``SharedArrays.handles`` — the dispatcher ships them to workers
    unchanged.  Releasing does **not** unlink: the segments stay
    cached so the next publisher of the same bytes gets a warm hit.
    """

    def __init__(
        self,
        owner: "ShmArena",
        digests: List[str],
        handles: Dict[str, SharedArrayHandle],
    ):
        self._owner = owner
        self._digests = digests
        self.handles = handles
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._owner._release(self._digests)


def _array_digest(array: np.ndarray) -> str:
    """Content address of one C-contiguous array (bytes + layout)."""
    digest = hashlib.sha1()
    digest.update(str(array.shape).encode())
    digest.update(array.dtype.str.encode())
    digest.update(array.data)
    return digest.hexdigest()


class ShmArena:
    """Content-addressed, refcounted cache of shared-array broadcasts.

    The cached counterpart of :class:`SharedArrays`: callers
    :meth:`publish` a mapping of arrays and get an :class:`ArenaLease`
    whose handles workers attach to.  Arrays are keyed by a digest of
    their bytes, so publishing the same artifact twice (a reload of
    unchanged weights) costs one hash instead of a second copy.
    Releasing a lease decrements refcounts but keeps segments cached;
    :meth:`reap` unlinks the refcount-free ones (the dispatcher calls
    it when it stops) and :meth:`clear` unlinks everything (atexit,
    tests).  Fork-inherited state is forgotten in children — the
    parent keeps the unlink duty.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._entries: Dict[str, _ArenaEntry] = {}
        self._pid = os.getpid()
        self.hits = 0
        self.misses = 0

    def publish(self, arrays: Mapping[str, np.ndarray]) -> ArenaLease:
        """Lease segments for ``arrays``, reusing cached identical bytes."""
        if not arrays:
            raise ValidationError("ShmArena.publish needs at least one array")
        registry = get_registry()
        with self._lock, get_tracer().span(
            "shm.arena_publish", n_arrays=len(arrays)
        ):
            self._check_fork()
            digests: List[str] = []
            handles: Dict[str, SharedArrayHandle] = {}
            for key, array in arrays.items():
                array = np.ascontiguousarray(array)
                if array.size == 0:
                    raise ValidationError(f"shared array {key!r} must not be empty")
                digest = _array_digest(array)
                entry = self._entries.get(digest)
                if entry is None:
                    self.misses += 1
                    registry.counter("shm_arena_misses_total").inc()
                    registry.counter("shm_broadcast_bytes_total").inc(
                        array.nbytes
                    )
                    segment = shared_memory.SharedMemory(
                        create=True,
                        size=array.nbytes,
                        name=(
                            f"{SEGMENT_PREFIX}{os.getpid()}_"
                            f"{next(_SEGMENT_COUNTER)}"
                        ),
                    )
                    view = np.ndarray(
                        array.shape, dtype=array.dtype, buffer=segment.buf
                    )
                    view[...] = array
                    entry = _ArenaEntry(
                        segment=segment,
                        handle=SharedArrayHandle(
                            name=segment.name,
                            shape=tuple(array.shape),
                            dtype=array.dtype.str,
                        ),
                    )
                    self._entries[digest] = entry
                else:
                    self.hits += 1
                    registry.counter("shm_arena_hits_total").inc()
                entry.refs += 1
                digests.append(digest)
                handles[key] = entry.handle
            return ArenaLease(self, digests, handles)

    def _release(self, digests: List[str]) -> None:
        with self._lock:
            for digest in digests:
                entry = self._entries.get(digest)
                if entry is not None and entry.refs > 0:
                    entry.refs -= 1

    def reap(self) -> int:
        """Unlink every refcount-free (cached-but-unleased) segment."""
        with self._lock:
            idle = [d for d, e in self._entries.items() if e.refs <= 0]
            return sum(self._unlink(digest) for digest in idle)

    def clear(self) -> int:
        """Unlink every segment, leased or not (atexit / test teardown)."""
        with self._lock:
            return sum(self._unlink(d) for d in list(self._entries))

    def _unlink(self, digest: str) -> int:
        entry = self._entries.pop(digest, None)
        if entry is None:  # pragma: no cover - caller holds the lock
            return 0
        try:
            entry.segment.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        try:
            entry.segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        return 1

    def stats(self) -> Dict[str, int]:
        """Cache diagnostics: entry count, hit/miss counters.

        The gauges mirror into the process-wide metrics registry
        (``shm_arena_entries``/``shm_arena_leased``); the hit/miss
        counters already live there as ``shm_arena_*_total``, updated
        at publish time.
        """
        with self._lock:
            stats = {
                "entries": len(self._entries),
                "leased": sum(1 for e in self._entries.values() if e.refs > 0),
                "hits": self.hits,
                "misses": self.misses,
                "bytes": sum(
                    e.segment.size for e in self._entries.values()
                ),
            }
        registry = get_registry()
        registry.gauge("shm_arena_entries").set(stats["entries"])
        registry.gauge("shm_arena_leased").set(stats["leased"])
        registry.gauge("shm_arena_bytes").set(stats["bytes"])
        return stats

    def _check_fork(self) -> None:
        # A forked child inherits the entry table but not the unlink
        # duty: dropping the dict keeps the parent's segments intact.
        if os.getpid() != self._pid:
            self._entries.clear()
            self._pid = os.getpid()


_ARENA: Optional[ShmArena] = None
_ARENA_LOCK = threading.Lock()


def arena() -> ShmArena:
    """The process-wide arena instance (created lazily)."""
    global _ARENA
    with _ARENA_LOCK:
        if _ARENA is None:
            _ARENA = ShmArena()
        return _ARENA


def _forget_arena_in_child() -> None:
    if _ARENA is not None:
        _ARENA._entries.clear()
        _ARENA._pid = os.getpid()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX-only repo
    os.register_at_fork(after_in_child=_forget_arena_in_child)


@atexit.register
def _clear_arena_at_exit() -> None:  # pragma: no cover - interpreter exit
    if _ARENA is not None:
        _ARENA.clear()


def leaked_segments() -> list:
    """Names of live segments created by this module (diagnostics).

    Scans ``/dev/shm`` for :data:`SEGMENT_PREFIX`; returns ``[]`` on
    platforms without a visible tmpfs mount.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-Linux
        return []
    return sorted(name for name in entries if name.startswith(SEGMENT_PREFIX))
