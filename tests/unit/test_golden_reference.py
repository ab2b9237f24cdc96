"""Golden-reference harness: the oracle vs the committed corpus.

``tests/golden/cases.json`` pins loss, components, gradient and
transform for both pair modes on frozen inputs, and the anchor
selection of :func:`repro.utils.landmarks.select_landmarks` (see
``tests/golden/regenerate.py``).  These tests rebuild each objective
from the stored inputs and hold the one production oracle path to the
stored numbers — so it is anchored to committed history, not just to
whatever the code currently computes.

Each case's ``fast_kernels`` field is provenance only: it records the
kernel flavour (GEMM fast path or einsum reference) that computed the
stored numbers when the oracle still had both.  Every case, whatever
its flavour, must match the one production path.

Tolerances: 1e-9 relative absorbs BLAS kernel differences across
machines (observed drift is ~1e-13).
"""

import json
import os

import numpy as np
import pytest

from repro.core.objective import IFairObjective
from repro.utils.landmarks import select_landmarks

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "golden", "cases.json"
)

RTOL = 1e-9


def _load_corpus():
    with open(GOLDEN_PATH) as fh:
        doc = json.load(fh)
    assert doc["format"] == "repro-golden-cases"
    return doc


CORPUS = _load_corpus()
CASES = {case["name"]: case for case in CORPUS["cases"]}
ANCHORS = {case["name"]: case for case in CORPUS["anchors"]["cases"]}


def _build(case):
    params = dict(case["params"])
    X = np.asarray(case["X"], dtype=np.float64)
    objective = IFairObjective(
        X,
        params.pop("protected"),
        lambda_util=params.pop("lambda_util"),
        mu_fair=params.pop("mu_fair"),
        n_prototypes=params.pop("k"),
        random_state=params.pop("random_state"),
        **{
            key: value
            for key, value in params.items()
            if key not in ("m", "n", "fast_kernels")
        },
    )
    theta = np.asarray(case["theta"], dtype=np.float64)
    return objective, theta


class TestGoldenCorpus:
    def test_covers_every_pair_mode_and_flavour(self):
        modes = {CASES[name]["params"].get("pair_mode", "auto") for name in CASES}
        assert "full" in modes
        assert any("max_pairs" in CASES[name]["params"] for name in CASES)
        flavours = {CASES[name]["params"]["fast_kernels"] for name in CASES}
        assert flavours == {True, False}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_expected(self, name):
        case = CASES[name]
        objective, theta = _build(case)
        expected = case["expected"]

        loss, grad = objective.loss_and_grad(theta)
        assert loss == pytest.approx(expected["loss"], rel=RTOL)
        np.testing.assert_allclose(
            grad, np.asarray(expected["grad"]), rtol=RTOL, atol=1e-12
        )

        l_util, l_fair = objective.loss_components(theta)
        assert l_util == pytest.approx(expected["l_util"], rel=RTOL)
        assert l_fair == pytest.approx(expected["l_fair"], rel=RTOL)

        V, alpha = objective.unpack(theta)
        np.testing.assert_allclose(
            objective.transform(V, alpha),
            np.asarray(expected["transform"]),
            rtol=RTOL,
            atol=1e-12,
        )
        assert objective.effective_pairs == expected["effective_pairs"]

    @pytest.mark.parametrize("name", sorted(ANCHORS))
    def test_landmark_selection_is_frozen(self, name):
        """Anchor choice is part of the pinned behaviour (seeded)."""
        case = ANCHORS[name]
        inputs = CORPUS["anchors"]
        X_star = np.delete(np.asarray(inputs["X"]), inputs["protected"], axis=1)
        idx = select_landmarks(
            X_star,
            case["n_landmarks"],
            method=case["method"],
            random_state=inputs["random_state"],
        )
        np.testing.assert_array_equal(np.sort(idx), np.asarray(case["landmarks"]))

    def test_fast_and_reference_goldens_agree(self):
        """The committed numbers themselves certify cross-path
        equivalence — no in-process comparison involved."""
        for fast_name, ref_name in (
            ("full_p2_fast", "full_p2_reference"),
            ("sampled_p2_fast", "sampled_p2_reference"),
        ):
            fast, ref = CASES[fast_name]["expected"], CASES[ref_name]["expected"]
            assert fast["loss"] == pytest.approx(ref["loss"], rel=1e-10)
            np.testing.assert_allclose(
                np.asarray(fast["grad"]),
                np.asarray(ref["grad"]),
                rtol=1e-10,
                atol=1e-10,
            )
