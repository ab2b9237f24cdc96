"""Tests for repro.utils.blas: the OpenBLAS thread controller.

* ``limit`` restores the counts in force before it, on normal exit, on
  an exception, when nested, and when several threads open scopes at
  once;
* without a mapped OpenBLAS every scope is a no-op;
* a library mapped inside an open scope (SciPy's, imported on first
  use) runs at the innermost scope's count and gets its own count back
  when the last scope closes; one mapped outside every scope keeps its
  count;
* executor tasks run at one thread inline and in pool workers, and a
  fit and the serving pipeline run at one thread and leave their
  caller's count as they found it;
* a fit's result is bitwise equal between ``n_jobs=1`` and a process
  pool, at a census-sized and at a large shape.
"""

import random
import sys
import threading

import numpy as np
import pytest

from repro.core.executor import run_tasks
from repro.core.model import IFair
from repro.exceptions import ValidationError
from repro.utils import blas
from repro.utils.shm import leaked_segments

pytestmark = pytest.mark.skipif(
    not blas.thread_counts(), reason="no controllable OpenBLAS mapped"
)


def _counts_are(n):
    return set(blas.thread_counts().values()) == {n}


def _task_counts(payload):
    return blas.thread_counts()


@pytest.fixture
def no_leaked_segments():
    yield
    assert leaked_segments() == []


class TestLimit:
    def test_restores_on_normal_exit(self):
        before = blas.thread_counts()
        with blas.limit(3):
            assert _counts_are(3)
        assert blas.thread_counts() == before

    def test_restores_on_exception(self):
        before = blas.thread_counts()
        with pytest.raises(RuntimeError):
            with blas.limit(3):
                raise RuntimeError("boom")
        assert blas.thread_counts() == before

    def test_nested_scopes_unwind_in_order(self):
        before = blas.thread_counts()
        with blas.limit(3):
            with blas.limit(1):
                assert _counts_are(1)
                with blas.limit(2):
                    assert _counts_are(2)
                assert _counts_are(1)
            assert _counts_are(3)
        assert blas.thread_counts() == before

    @pytest.mark.parametrize("first_out", ["first_in", "second_in"])
    def test_two_threads_at_once(self, first_out):
        before = blas.thread_counts()
        both_in = threading.Barrier(2, timeout=10)
        left = threading.Event()
        seen = {}

        def scope(name, n, entered):
            with blas.limit(n):
                entered.set()
                both_in.wait()
                if name != first_out:
                    assert left.wait(10)
                    seen[name] = blas.thread_counts()
            if name == first_out:
                left.set()

        a_in = threading.Event()
        a = threading.Thread(target=scope, args=("first_in", 1, a_in))
        a.start()
        assert a_in.wait(10)
        b = threading.Thread(target=scope, args=("second_in", 3, threading.Event()))
        b.start()
        for t in (a, b):
            t.join(10)
            assert not t.is_alive()
        # The scope still open after the other closed sets the count.
        (survivor,) = seen
        expected = 1 if survivor == "first_in" else 3
        assert set(seen[survivor].values()) == {expected}
        assert blas.thread_counts() == before

    def test_many_threads_leave_counts_as_found(self):
        before = blas.thread_counts()
        errors = []

        def churn(seed):
            rng = random.Random(seed)
            try:
                for _ in range(200):
                    with blas.limit(rng.choice([1, 2, 3])):
                        with blas.limit(rng.choice([1, 4])):
                            pass
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert blas._CONTROLLER._scopes == []
        assert blas.thread_counts() == before

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2", None])
    def test_rejects_invalid_counts(self, bad):
        with pytest.raises(ValidationError):
            with blas.limit(bad):
                pass

    def test_no_op_without_openblas(self, monkeypatch):
        monkeypatch.setattr(blas, "_mapped_paths", lambda: [])
        controller = blas.ThreadController()
        before = blas.thread_counts()
        with controller.limit(1):
            assert blas.thread_counts() == before
        assert controller.libraries() == []
        assert controller.thread_counts() == {}


class _FakeLibrary:
    """An OpenBLAS stand-in: a path and a thread count."""

    def __init__(self, path, count):
        self.path = path
        self.count = count

    def get(self):
        return self.count

    def set(self, n):
        self.count = n


@pytest.fixture
def mapped(monkeypatch):
    """The fake libraries mapped into the process; append to map one."""
    libraries = []
    monkeypatch.setattr(blas, "_mapped_paths", lambda: [lib.path for lib in libraries])
    monkeypatch.setattr(
        blas.OpenBLAS,
        "open",
        classmethod(lambda cls, path: next(lib for lib in libraries if lib.path == path)),
    )
    return libraries


class TestAdoption:
    def test_library_mapped_inside_a_scope_follows_it(self, mapped):
        numpy_lib = _FakeLibrary("/libs/libopenblas64_.so", 4)
        scipy_lib = _FakeLibrary("/libs/libscipy_openblas.so", 2)
        mapped.append(numpy_lib)
        controller = blas.ThreadController()
        with controller.limit(3):
            with controller.limit(1):
                mapped.append(scipy_lib)
                controller.adopt()
                assert (numpy_lib.count, scipy_lib.count) == (1, 1)
            assert (numpy_lib.count, scipy_lib.count) == (3, 3)
        assert (numpy_lib.count, scipy_lib.count) == (4, 2)
        assert controller.thread_counts() == {
            "libopenblas64_.so": 4,
            "libscipy_openblas.so": 2,
        }

    def test_library_mapped_outside_every_scope_keeps_its_count(self, mapped):
        numpy_lib = _FakeLibrary("/libs/libopenblas64_.so", 4)
        scipy_lib = _FakeLibrary("/libs/libscipy_openblas.so", 2)
        mapped.append(numpy_lib)
        controller = blas.ThreadController()
        with controller.limit(1):
            pass
        mapped.append(scipy_lib)
        controller.adopt()
        controller.adopt()  # binds each library once
        assert len(controller.libraries()) == 2
        assert (numpy_lib.count, scipy_lib.count) == (4, 2)
        with controller.limit(1):
            assert (numpy_lib.count, scipy_lib.count) == (1, 1)
        assert (numpy_lib.count, scipy_lib.count) == (4, 2)

    def test_scope_opened_without_libraries_binds_later_ones(self, mapped):
        scipy_lib = _FakeLibrary("/libs/libscipy_openblas.so", 2)
        controller = blas.ThreadController()
        with controller.limit(1):
            mapped.append(scipy_lib)
            controller.adopt()
            assert scipy_lib.count == 1
        assert scipy_lib.count == 2


class TestWorkersAndFits:
    @pytest.mark.parametrize("backend", ["process", "serial"])
    def test_executor_task_reports_one_thread(self, backend, no_leaked_segments):
        n_jobs = 1 if backend == "serial" else 2
        with blas.limit(3):
            counts = run_tasks(_task_counts, [0, 1, 2], n_jobs=n_jobs)
            assert _counts_are(3)
        for task in counts:
            assert task and set(task.values()) == {1}

    def test_fit_leaves_caller_count_unchanged(self, monkeypatch):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 5))
        during = []
        run_restart = IFair._run_restart

        def spy(self, *args, **kwargs):
            during.append(blas.thread_counts())
            return run_restart(self, *args, **kwargs)

        monkeypatch.setattr(IFair, "_run_restart", spy)
        with blas.limit(3):
            IFair(n_prototypes=2, n_restarts=1, max_iter=3).fit(X, [4])
            assert _counts_are(3)
            with pytest.raises(ValidationError):
                IFair(n_prototypes=2, warm_start_theta=np.ones(3)).fit(X, [4])
            assert _counts_are(3)
        assert during and set(during[0].values()) == {1}

    def test_serving_pipeline_scorer_runs_at_one_thread(self, tiny_compas, monkeypatch):
        from repro.serving import fit as serving_fit

        seen = []
        scorer_fit = serving_fit.LogisticRegression.fit

        def spy(self, *args, **kwargs):
            seen.append(blas.thread_counts())
            return scorer_fit(self, *args, **kwargs)

        monkeypatch.setattr(serving_fit.LogisticRegression, "fit", spy)
        with blas.limit(3):
            serving_fit.fit_serving_pipeline(
                tiny_compas, n_prototypes=2, max_iter=3, max_pairs=200
            )
            assert _counts_are(3)
        assert seen and all(set(counts.values()) == {1} for counts in seen)


# Both shapes give different gradient bits at 1 and 2 threads.  The
# callers below run at two threads, whatever the host's default.
SHAPES = pytest.mark.parametrize(
    "m, n, k, max_iter",
    [(2000, 40, 10, 6), (4000, 200, 2, 2)],
    ids=["census-size", "large"],
)


@SHAPES
def test_fit_bitwise_equal_across_n_jobs(m, n, k, max_iter, no_leaked_segments):
    X = np.random.default_rng(5).normal(size=(m, n))

    def fit(n_jobs):
        return IFair(
            n_prototypes=k,
            pair_mode="full",
            n_restarts=2,
            max_iter=max_iter,
            n_jobs=n_jobs,
            random_state=3,
        ).fit(X, [n - 1])

    with blas.limit(2):
        serial, parallel = fit(1), fit(2)
    assert np.array_equal(serial.theta_, parallel.theta_)
    assert serial.loss_ == parallel.loss_
