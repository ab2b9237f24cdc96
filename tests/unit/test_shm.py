"""Tests for repro.utils.shm."""

import os
import pickle

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.shm import (
    SEGMENT_PREFIX,
    SharedArrays,
    arena,
    attach,
    leaked_segments,
)


@pytest.fixture
def arrays():
    rng = np.random.default_rng(5)
    return {
        "X": rng.normal(size=(6, 4)),
        "y": np.arange(6, dtype=np.int64),
    }


class TestSharedArrays:
    def test_roundtrip_values_shape_dtype(self, arrays):
        with SharedArrays(arrays) as shm:
            attached = attach(shm.handles)
            for key, original in arrays.items():
                view = attached.arrays[key]
                assert view.shape == original.shape
                assert view.dtype == original.dtype
                np.testing.assert_array_equal(view, original)
            attached.close()

    def test_views_are_read_only(self, arrays):
        with SharedArrays(arrays) as shm:
            with pytest.raises(ValueError):
                shm.arrays["X"][0, 0] = 1.0
            attached = attach(shm.handles)
            with pytest.raises(ValueError):
                attached.arrays["X"][0, 0] = 1.0
            attached.close()

    def test_handles_are_picklable(self, arrays):
        with SharedArrays(arrays) as shm:
            restored = pickle.loads(pickle.dumps(shm.handles))
            assert set(restored) == {"X", "y"}
            assert restored["X"].shape == (6, 4)
            attached = attach(restored)
            np.testing.assert_array_equal(attached.arrays["X"], arrays["X"])
            attached.close()

    def test_segments_carry_the_module_prefix(self, arrays):
        with SharedArrays(arrays) as shm:
            for handle in shm.handles.values():
                assert handle.name.startswith(SEGMENT_PREFIX)

    def test_unlink_removes_segments(self, arrays):
        shm = SharedArrays(arrays)
        assert len(leaked_segments()) == 2
        shm.unlink()
        assert leaked_segments() == []
        shm.unlink()  # idempotent

    def test_context_manager_cleans_up_on_exception(self, arrays):
        with pytest.raises(RuntimeError):
            with SharedArrays(arrays):
                assert len(leaked_segments()) == 2
                raise RuntimeError("boom")
        assert leaked_segments() == []

    def test_copies_are_independent_of_source(self):
        source = np.ones((3, 3))
        with SharedArrays({"X": source}) as shm:
            source[:] = 7.0
            np.testing.assert_array_equal(shm.arrays["X"], np.ones((3, 3)))

    def test_non_contiguous_input_is_copied(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        with SharedArrays({"X": base[:, ::2]}) as shm:
            np.testing.assert_array_equal(shm.arrays["X"], base[:, ::2])

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValidationError):
            SharedArrays({})

    def test_empty_array_rejected(self):
        with pytest.raises(ValidationError):
            SharedArrays({"X": np.empty((0, 3))})
        assert leaked_segments() == []

    def test_attach_close_keeps_segment_alive(self, arrays):
        with SharedArrays(arrays) as shm:
            with attach(shm.handles) as attached:
                np.testing.assert_array_equal(attached.arrays["X"], arrays["X"])
            # worker detached; the parent's copy is untouched
            np.testing.assert_array_equal(shm.arrays["X"], arrays["X"])
        assert leaked_segments() == []


class TestArenaCache:
    """The content-addressed cache the serving dispatcher publishes through."""

    @pytest.fixture(autouse=True)
    def _empty_arena(self):
        arena().clear()
        yield
        arena().clear()
        assert leaked_segments() == []

    def test_same_bytes_reuse_the_segment(self):
        X = np.arange(6.0).reshape(2, 3)
        lease_a = arena().publish({"X": X})
        lease_b = arena().publish({"X": X.copy()})  # same bytes, new object
        assert lease_a.handles["X"].name == lease_b.handles["X"].name
        assert arena().stats()["entries"] == 1
        lease_a.release()
        lease_b.release()

    def test_different_bytes_get_different_segments(self):
        lease_a = arena().publish({"X": np.zeros((2, 2))})
        lease_b = arena().publish({"X": np.ones((2, 2))})
        assert lease_a.handles["X"].name != lease_b.handles["X"].name
        lease_a.release()
        lease_b.release()

    def test_release_keeps_segment_cached_until_reap(self):
        lease = arena().publish({"X": np.ones((2, 2))})
        name = lease.handles["X"].name
        lease.release()
        assert name in leaked_segments()  # warm, deliberately alive
        assert arena().reap() == 1
        assert name not in leaked_segments()

    def test_reap_spares_leased_segments(self):
        lease = arena().publish({"X": np.ones((2, 2))})
        assert arena().reap() == 0
        lease.release()
        assert arena().reap() == 1

    def test_empty_publish_rejected(self):
        with pytest.raises(ValidationError):
            arena().publish({})

    def test_forked_child_forgets_arena_entries(self):
        lease = arena().publish({"X": np.ones((3, 3))})
        pid = os.fork()
        if pid == 0:  # child: inherited entries are not its to unlink
            os._exit(0 if arena().stats()["entries"] == 0 else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        # The parent's cache is untouched by the child exit.
        assert arena().stats()["entries"] == 1
        lease.release()
