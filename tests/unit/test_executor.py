"""Tests for repro.core.executor."""

import os

import numpy as np
import pytest

from repro.core.executor import (
    ParallelExecutor,
    TaskError,
    WorkerCrashError,
    WorkerPool,
    _WireConfig,
    effective_n_jobs,
    get_config_token,
    get_shared,
    get_state,
    in_worker,
    run_tasks,
)
from repro.exceptions import ValidationError
from repro.telemetry.metrics import get_registry
from repro.utils.shm import SEGMENT_PREFIX, SharedArrayHandle, leaked_segments


def _double(payload):
    return payload * 2


def _shared_row_sum(i):
    return float(get_shared()["X"][i].sum()) * get_state()["scale"]


def _raise_on_two(payload):
    if payload == 2:
        raise ValueError("payload two is broken")
    return payload


def _crash(payload):
    os._exit(17)


def _pid(payload):
    return os.getpid()


class TestEffectiveNJobs:
    def test_none_and_one_are_serial(self):
        assert effective_n_jobs(None) == 1
        assert effective_n_jobs(1) == 1

    def test_minus_one_uses_cpus(self):
        assert effective_n_jobs(-1) == len(os.sched_getaffinity(0))

    def test_minus_one_counts_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert effective_n_jobs(-1) == 1

    def test_limit_clamps(self):
        assert effective_n_jobs(8, limit=3) == 3

    @pytest.mark.parametrize("bad", [0, -2])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValidationError):
            effective_n_jobs(bad)


#: ``n_jobs`` alone picks the path: 1 runs inline, 2 on a process pool.
BACKENDS = {"serial": 1, "process": 2}


class TestBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_map_preserves_order(self, backend):
        out = run_tasks(_double, list(range(7)), n_jobs=BACKENDS[backend])
        assert out == [0, 2, 4, 6, 8, 10, 12]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_state_and_shared_reach_tasks(self, backend):
        X = np.arange(12, dtype=np.float64).reshape(3, 4)
        out = run_tasks(
            _shared_row_sum,
            [0, 1, 2],
            n_jobs=BACKENDS[backend],
            state={"scale": 2.0},
            shared={"X": X},
        )
        assert out == [12.0, 44.0, 76.0]

    def test_empty_payloads(self):
        assert run_tasks(_double, [], n_jobs=2) == []

    def test_n_jobs_one_runs_inline(self):
        executor = ParallelExecutor(_pid, 1)
        assert executor.n_jobs == 1
        assert executor.map([1, 2]) == [os.getpid()] * 2
        assert executor._pool is None

    def test_closures_work_under_fork(self):
        captured = np.array([10.0, 20.0])
        out = run_tasks(lambda i: float(captured[i]), [0, 1], n_jobs=2)
        assert out == [10.0, 20.0]


class TestWorkerFlags:
    def test_parent_not_in_worker(self):
        assert not in_worker()

    def test_process_tasks_see_worker_flag(self):
        assert run_tasks(lambda _: in_worker(), [0], n_jobs=2) == [True]

    def test_serial_map_leaves_flag_down(self):
        # A serial search over parallel fits is legitimate; only real
        # pools raise the nested-parallelism guard.
        assert run_tasks(lambda _: in_worker(), [0]) == [False]

    def test_nested_jobs_collapse_inside_worker(self):
        out = run_tasks(lambda _: effective_n_jobs(8), [0], n_jobs=2)
        assert out == [1]


class TestTaskErrors:
    def test_task_error_carries_remote_traceback(self):
        with pytest.raises(TaskError) as excinfo:
            run_tasks(_raise_on_two, [0, 1, 2, 3], n_jobs=2)
        assert excinfo.value.task_index == 2
        assert excinfo.value.exc_type == "ValueError"
        assert "payload two is broken" in str(excinfo.value)
        assert "Traceback" in excinfo.value.remote_traceback

    def test_pool_survives_task_error(self):
        with ParallelExecutor(_raise_on_two, 2) as executor:
            with pytest.raises(TaskError):
                executor.map([0, 2])
            assert executor.map([0, 1, 3]) == [0, 1, 3]

    def test_serial_backend_raises_directly(self):
        with pytest.raises(ValueError):
            run_tasks(_raise_on_two, [2])


class TestCrashRecovery:
    def test_crash_retried_on_fresh_worker(self, tmp_path):
        marker_dir = str(tmp_path)

        def crash_once(i):
            marker = os.path.join(marker_dir, str(i))
            if not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(13)
            return i * 10

        registry = get_registry()
        respawns = registry.counter("executor_worker_respawns_total")
        retries = registry.counter("executor_task_retries_total")
        respawns_before, retries_before = respawns.value, retries.value
        out = run_tasks(crash_once, [0, 1, 2, 3], n_jobs=2)
        assert out == [0, 10, 20, 30]
        # Every task killed its worker once: one respawn and one retry each.
        assert respawns.value - respawns_before == 4
        assert retries.value - retries_before == 4

    def test_persistent_crash_raises_after_retries(self):
        with pytest.raises(WorkerCrashError) as excinfo:
            run_tasks(_crash, [0], n_jobs=2, max_retries=1)
        assert excinfo.value.task_index == 0
        assert excinfo.value.attempts == 2

    def test_pool_usable_after_crash_abort(self):
        executor = ParallelExecutor(_crash, 2, max_retries=0)
        with pytest.raises(WorkerCrashError):
            executor.map([0])
        # The crashed pool was torn down; a new map restarts it.
        executor.fn = _double
        assert executor.map([3]) == [6]
        executor.shutdown()


class TestSharedMemoryLifecycle:
    def test_no_segments_leak_after_map(self):
        X = np.ones((4, 4))
        run_tasks(_shared_row_sum, [0], n_jobs=2, state={"scale": 1.0}, shared={"X": X})
        assert leaked_segments() == []

    def test_no_segments_leak_after_task_error(self):
        X = np.ones((4, 4))
        with pytest.raises(TaskError):
            run_tasks(_raise_on_two, [2], n_jobs=2, shared={"X": X})
        assert leaked_segments() == []

    def test_no_segments_leak_after_crash(self):
        X = np.ones((4, 4))
        with pytest.raises(WorkerCrashError):
            run_tasks(_crash, [0], n_jobs=2, max_retries=0, shared={"X": X})
        assert leaked_segments() == []


class TestPoolLifetime:
    def test_consecutive_executors_spawn_fresh_pools(self):
        first = set(run_tasks(_pid, range(4), n_jobs=2))
        second = set(run_tasks(_pid, range(4), n_jobs=2))
        assert first.isdisjoint(second)

    def test_config_tokens_differ_per_executor(self):
        # The worker-side fit cache is keyed by this token: it must
        # not collide between executors, inline or pooled.
        tokens = [
            run_tasks(lambda _: get_config_token(), [0], n_jobs=n_jobs)[0]
            for n_jobs in (1, 1, 2, 2)
        ]
        assert None not in tokens
        assert len(set(tokens)) == 4

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            WorkerPool(0, _WireConfig(token=0, fn=_pid))


class TestConfigInstall:
    def test_config_install_failure_surfaces_as_task_error(self):
        # A broadcast segment that is gone before the workers attach:
        # tasks must answer with the install error, not kill the worker.
        gone = SharedArrayHandle(f"{SEGMENT_PREFIX}gone_{os.getpid()}", (2,), "<f8")
        pool = WorkerPool(2, _WireConfig(token=0, fn=_pid, shared={"X": gone}))
        try:
            with pytest.raises(TaskError, match="config install failed"):
                pool.run([0, 1], max_retries=0)
            # The same (still alive) workers keep answering.
            with pytest.raises(TaskError, match="config install failed"):
                pool.run([2], max_retries=0)
            assert all(process.is_alive() for process in pool._workers)
        finally:
            pool.shutdown()


class TestStartFailureHygiene:
    def test_failed_broadcast_leaves_nothing_behind(self):
        executor = ParallelExecutor(_pid, 2, shared={"X": np.empty((0, 3))})
        with pytest.raises(ValidationError, match="must not be empty"):
            executor.start()
        # Nothing held: no workers, no segments, restartable.
        assert executor._pool is None
        assert leaked_segments() == []
        executor._shared_input = {"X": np.ones((2, 3))}
        assert len(executor.map([0, 1])) == 2  # restartable after fix-up
        executor.shutdown()
        assert leaked_segments() == []


@pytest.mark.nightly
class TestExecutorStress:
    """High-volume checks, run on the scheduled nightly profile."""

    def test_many_tasks_preserve_order(self):
        out = run_tasks(_double, list(range(200)), n_jobs=4)
        assert out == [2 * i for i in range(200)]

    def test_repeated_crash_recovery(self, tmp_path):
        marker_dir = str(tmp_path)

        def crash_once(i):
            marker = os.path.join(marker_dir, str(i))
            if not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(11)
            return i

        out = run_tasks(crash_once, list(range(12)), n_jobs=3, max_retries=1)
        assert out == list(range(12))
