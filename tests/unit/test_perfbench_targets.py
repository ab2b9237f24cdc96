"""The traced benchmark's wrap targets exist in the program.

``perfbench/run.py --trace 1`` wraps program functions and methods by
name (:data:`perfbench.spans.FIT_TARGETS` / ``SERVE_TARGETS``).  A
rename under ``src/`` would otherwise surface only as a crashed traced
run; this test resolves every target the way
:func:`perfbench.spans.install` does, without patching anything.
"""

import importlib
import os
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import spans  # noqa: E402

TARGETS = sorted(
    {(module, path) for _, module, path, _ in spans.FIT_TARGETS + spans.SERVE_TARGETS}
)


@pytest.mark.parametrize("module, path", TARGETS)
def test_target_resolves_to_a_callable(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
