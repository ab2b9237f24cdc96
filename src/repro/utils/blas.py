"""OpenBLAS thread-count control through ``ctypes``.

The NumPy and SciPy wheels each bundle an OpenBLAS whose thread pool
defaults to one thread per core.  An iFair fit at census shapes
(N = 101 features, a few hundred to a few thousand records) runs
L-BFGS over an oracle made of small GEMMs, and under threaded BLAS the
two libraries' pools stall each other: on a 2-core machine a 500-record
fit (3 restarts, 100 iterations) takes 3.1-4.6 s at the default 2
threads and 0.9-1.0 s at one.  Fits therefore run at one thread
(``IFair.fit``, ``fit_serving_pipeline``, every executor task); the
README's "BLAS threads" paragraph has the crossover measurements.  This
module finds every OpenBLAS mapped into the process (through
``/proc/self/maps``), reads and sets its thread count with the
library's own ``*_get_num_threads*`` / ``*_set_num_threads*`` entry
points, and offers one scope, :func:`limit`.

The count is process-global: OpenBLAS keeps one count for every calling
thread.  Scopes opened from any thread therefore form one stack under a
lock.  The most recently entered scope that is still open sets the
count, and when the last one closes, the counts in force before the
first one opened come back, whatever order the scopes closed in.

The thread count changes results in the last bits, so every process
that evaluates one problem must use the same count: the same one
thread, whether the work runs serially or on executor workers.

Libraries are resolved on first use, not at import; an OpenBLAS mapped
after that is not controlled.  Without ``/proc`` or without any
OpenBLAS every scope is a no-op.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.exceptions import ValidationError

_SYMBOL_PREFIXES = ("openblas", "scipy_openblas")
_SYMBOL_SUFFIXES = ("", "64_", "_64")


def _mapped_paths() -> List[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        path = line.split()[-1] if line.split() else ""
        name = os.path.basename(path).lower()
        if path.startswith("/") and name.startswith("lib") and "openblas" in name:
            paths.add(path)
    return sorted(paths)


class OpenBLAS:
    """One mapped OpenBLAS: its path and thread-count entry points."""

    def __init__(self, path: str, get_fn, set_fn):
        self.path = path
        self._get = get_fn
        self._set = set_fn

    @classmethod
    def open(cls, path: str) -> Optional["OpenBLAS"]:
        """Bind an already-mapped library; None without the entry points."""
        try:
            # RTLD_NOLOAD: only bind what is mapped, never load anything.
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            return None
        for prefix in _SYMBOL_PREFIXES:
            for suffix in _SYMBOL_SUFFIXES:
                get_fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_fn = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get_fn is None or set_fn is None:
                    continue
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                return cls(path, get_fn, set_fn)
        return None

    def get(self) -> int:
        return int(self._get())

    def set(self, n: int) -> None:
        if self.get() != n:
            self._set(n)


class ThreadController:
    """The process's OpenBLAS libraries and the stack of open scopes."""

    def __init__(self):
        self._lock = threading.Lock()
        self._libraries: Optional[List[OpenBLAS]] = None
        self._scopes: List[tuple] = []  # (token, n), most recent last
        self._outer: List[int] = []  # counts before the first open scope

    def libraries(self) -> List[OpenBLAS]:
        """Every controllable OpenBLAS, resolved on the first call."""
        with self._lock:
            return self._resolve()

    def _resolve(self) -> List[OpenBLAS]:
        if self._libraries is None:
            opened = (OpenBLAS.open(path) for path in _mapped_paths())
            self._libraries = [lib for lib in opened if lib is not None]
        return self._libraries

    def thread_counts(self) -> Dict[str, int]:
        """Current thread count per library file name."""
        return {os.path.basename(lib.path): lib.get() for lib in self.libraries()}

    @contextmanager
    def limit(self, n: int) -> Iterator[None]:
        """Run the block with every OpenBLAS at ``n`` threads.

        The previous counts come back on exit, also on an exception.
        """
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValidationError(f"BLAS thread count must be an int >= 1, got {n!r}")
        scope = (object(), n)
        with self._lock:
            libraries = self._resolve()
            if libraries:
                if not self._scopes:
                    self._outer = [lib.get() for lib in libraries]
                self._scopes.append(scope)
                for lib in libraries:
                    lib.set(n)
        try:
            yield
        finally:
            if libraries:
                with self._lock:
                    if scope in self._scopes:
                        self._scopes.remove(scope)
                    if self._scopes:
                        counts = [self._scopes[-1][1]] * len(libraries)
                    else:
                        counts = self._outer
                    for lib, count in zip(libraries, counts):
                        lib.set(count)

    def _after_fork_in_child(self) -> None:
        # The parent's open scopes belong to its threads, and another
        # parent thread may have held the lock at the fork.  The child
        # keeps the resolved libraries and the counts it inherited.
        self._lock = threading.Lock()
        self._scopes = []
        self._outer = []


_CONTROLLER = ThreadController()

if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX-only repo
    os.register_at_fork(after_in_child=_CONTROLLER._after_fork_in_child)


def limit(n: int):
    """Context manager: run the block at ``n`` BLAS threads."""
    return _CONTROLLER.limit(n)


def thread_counts() -> Dict[str, int]:
    """Current thread count of every controllable OpenBLAS, by file name."""
    return _CONTROLLER.thread_counts()
