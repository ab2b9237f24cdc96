"""Process-tree accounting and the machine/build stamp (Linux ``/proc``).

CPU time is read at nanosecond resolution: the calling process through
``time.process_time`` (all threads, exited ones included), live
descendants through their process CPU clocks, and descendants already
reaped through ``getrusage(RUSAGE_CHILDREN)``.  Summing the three at two
instants and differencing gives the tree's CPU in between, whether a
child lived through the interval, was forked inside it, or exited and
was reaped inside it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import resource
import sys
import time
from typing import Dict, List, Optional

_CPUCLOCK_SCHED = 2


def process_cpu_clock(pid: int) -> int:
    """Clock id of ``pid``'s process-wide CPU clock (``clock_getcpuclockid``)."""
    return ((~pid) << 3) | _CPUCLOCK_SCHED


def process_cpu_s(pid: int) -> float:
    """CPU seconds used so far by live process ``pid`` (0.0 if it is gone)."""
    try:
        return time.clock_gettime(process_cpu_clock(pid))
    except OSError:
        return 0.0


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def parent_pid(pid: int) -> Optional[int]:
    stat = _read(f"/proc/{pid}/stat")
    if stat is None:
        return None
    # The command name may contain spaces; fields resume after ')'.
    return int(stat.rsplit(")", 1)[1].split()[1])


def descendants(root: int) -> List[int]:
    """Live descendant pids of ``root`` (children, grandchildren, ...)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        ppid = parent_pid(int(entry))
        if ppid is not None:
            children.setdefault(ppid, []).append(int(entry))
    found: List[int] = []
    stack = [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return found


def tree_cpu_s() -> float:
    """CPU seconds of this process, its reaped children and live descendants."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time() + reaped.ru_utime + reaped.ru_stime
    for pid in descendants(os.getpid()):
        total += process_cpu_s(pid)
    return total


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of live process ``pid`` in MiB."""
    status = _read(f"/proc/{pid}/status") or ""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def tree_peak_rss_mb() -> float:
    """Largest peak RSS of any process in this process's tree, in MiB."""
    reaped_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peaks = [peak_rss_mb(os.getpid()), reaped_kib / 1024.0]
    peaks += [peak_rss_mb(pid) for pid in descendants(os.getpid())]
    return max(peaks)


def runqueue_wait_s(pids: List[int]) -> float:
    """Seconds the live threads of ``pids`` have waited on a run queue."""
    total_ns = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            fields = (_read(f"/proc/{pid}/task/{tid}/schedstat") or "").split()
            if len(fields) >= 2:
                total_ns += int(fields[1])
    return total_ns / 1e9


def tree_sample() -> Dict[str, float]:
    """One reading of this process tree: CPU, peak RSS, run-queue wait."""
    tree = [os.getpid()] + descendants(os.getpid())
    threads = sum(len(os.listdir(f"/proc/{p}/task")) for p in tree if os.path.isdir(f"/proc/{p}/task"))
    return {
        "cpu_s": tree_cpu_s(),
        "peak_rss_mb": tree_peak_rss_mb(),
        "runqueue_wait_s": runqueue_wait_s(tree),
        "threads": threads,
    }


# ----------------------------------------------------------------------
# machine and build stamp


def _cgroup_cpu_max() -> str:
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2 is not None:
        return v2.strip()
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is not None and period is not None:
        quota = quota.strip()
        return f"{'max' if quota == '-1' else quota} {period.strip()}"
    return "unknown"


def blas_libraries() -> List[Dict[str, object]]:
    """Loaded OpenBLAS libraries with their configured thread count.

    Read-only: queries ``*openblas_get_num_threads*`` and the config
    string of every OpenBLAS mapped into this process; sets nothing.
    """
    paths = set()
    for line in (_read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1] if line.split() else ""
        name = os.path.basename(path).lower()
        if path.startswith("/") and name.startswith("lib") and "blas" in name:
            paths.add(path)
    found = []
    for path in sorted(paths):
        entry: Dict[str, object] = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            found.append(entry)
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is None:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                entry["threads"] = int(threads())
                if config is not None:
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    entry["config"] = config().decode("ascii", "replace").strip()
                break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def _git_commit(root: str) -> Optional[str]:
    """HEAD commit read from ``.git`` directly (None outside a git checkout)."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(root, ".git", ref))
    if direct is not None:
        return direct.strip()
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest(src_dir: str) -> str:
    """SHA-256 over every ``.py`` file under ``src_dir`` (path + bytes)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def machine_stamp(root: str) -> Dict[str, object]:
    """Hardware, load and build identity; results are compared only within one stamp."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _cgroup_cpu_max(),
        "loadavg_1m": os.getloadavg()[0],
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(os.path.join(root, "src")),
        "blas_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "executable": os.path.basename(sys.executable),
    }


def comparable(a: Dict[str, object], b: Dict[str, object]) -> bool:
    """Whether two stamps describe the same machine shape and BLAS setup."""
    keys = ("nproc", "affinity", "cgroup_cpu_max", "machine", "python", "numpy", "scipy", "blas_env")
    return all(a.get(k) == b.get(k) for k in keys) and [
        (lib.get("library"), lib.get("threads")) for lib in a.get("blas", [])  # type: ignore[union-attr]
    ] == [(lib.get("library"), lib.get("threads")) for lib in b.get("blas", [])]  # type: ignore[union-attr]
