"""Regenerate the golden-reference fixture corpus (``cases.json``).

The golden corpus pins the iFair oracle's observable behaviour —
loss, loss components, analytic gradient, transform output, and (for
landmark mode) the selected anchors — for every fairness pair mode
(``full``, ``sampled``, ``landmark``) on small frozen inputs, so a
regression of the oracle breaks against committed numbers, not just
against an in-process comparison.

Each case records a ``fast_kernels`` provenance field.  Cases marked
``False`` are computed by the test oracle (``tests/oracle_reference.py``:
einsum tensors, dense ``D*``), the others by the production objective;
``tests/unit/test_golden_reference.py`` holds production to both.  The
committed numbers date from when the objective itself had the two
kernel flavours, so a re-run reproduces them within the tests' 1e-9,
not bitwise.

The inputs are derived from seeds but **stored verbatim** in the JSON
(NumPy ``Generator`` streams are not guaranteed stable across feature
releases), so the tests never regenerate them.  Floats round-trip
exactly through ``json`` (shortest-repr float64).

Run from the repository root to refresh after an intentional
behaviour change::

    PYTHONPATH=src python tests/golden/regenerate.py

and commit the resulting ``tests/golden/cases.json`` diff together
with the change that motivated it.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from oracle_reference import ReferenceObjective  # noqa: E402
from repro.core.objective import IFairObjective  # noqa: E402

OUT_PATH = os.path.join(os.path.dirname(__file__), "cases.json")

# One shared tiny geometry: 14 records, 5 features (last protected),
# 3 prototypes.  Non-unit mixture weights exercise the weighting.
M, N, K = 14, 5, 3
PROTECTED = [4]
LAMBDA, MU = 1.25, 0.75

# name -> objective kwargs beyond the shared ones, plus the
# ``fast_kernels`` provenance field (False: computed by the test oracle).
CASES = {
    "full_p2_fast": dict(p=2.0, pair_mode="full", fast_kernels=True),
    "full_p2_reference": dict(p=2.0, pair_mode="full", fast_kernels=False),
    "full_p3_reference": dict(p=3.0, pair_mode="full", fast_kernels=True),
    "sampled_p2_fast": dict(p=2.0, max_pairs=20, fast_kernels=True),
    "sampled_p2_reference": dict(p=2.0, max_pairs=20, fast_kernels=False),
    "sampled_p3_reference": dict(p=3.0, max_pairs=20, fast_kernels=True),
    "landmark_p2_fast": dict(
        p=2.0, pair_mode="landmark", n_landmarks=5, fast_kernels=True
    ),
    "landmark_p2_blocked": dict(
        p=2.0, pair_mode="landmark", n_landmarks=5, fast_kernels=False
    ),
    "landmark_p3_blocked": dict(
        p=3.0, pair_mode="landmark", n_landmarks=5, fast_kernels=True
    ),
    "landmark_farthest_p2_fast": dict(
        p=2.0,
        pair_mode="landmark",
        n_landmarks=5,
        landmark_method="farthest",
        fast_kernels=True,
    ),
    # L = M: the landmark loss must equal the full-pair loss (the
    # acceptance criterion pins these against the full_* cases).
    "landmark_LM_p2_fast": dict(
        p=2.0, pair_mode="landmark", n_landmarks=M, fast_kernels=True
    ),
    "landmark_LM_p3_blocked": dict(
        p=3.0, pair_mode="landmark", n_landmarks=M, fast_kernels=True
    ),
}


def build_case(name: str, kwargs: dict) -> dict:
    X = np.random.default_rng(20260727).normal(size=(M, N))
    params = {key: value for key, value in kwargs.items() if key != "fast_kernels"}
    oracle = IFairObjective if kwargs["fast_kernels"] else ReferenceObjective
    objective = oracle(
        X,
        PROTECTED,
        lambda_util=LAMBDA,
        mu_fair=MU,
        n_prototypes=K,
        random_state=11,
        **params,
    )
    theta = np.random.default_rng(424242).uniform(0.1, 0.9, size=objective.n_params)
    loss, grad = objective.loss_and_grad(theta)
    l_util, l_fair = objective.loss_components(theta)
    V, alpha = objective.unpack(theta)
    record = {
        "name": name,
        "params": {
            "m": M,
            "n": N,
            "k": K,
            "protected": PROTECTED,
            "lambda_util": LAMBDA,
            "mu_fair": MU,
            "random_state": 11,
            **{key: value for key, value in kwargs.items()},
        },
        "X": X.tolist(),
        "theta": theta.tolist(),
        "expected": {
            "loss": loss,
            "l_util": l_util,
            "l_fair": l_fair,
            "grad": grad.tolist(),
            "transform": objective.transform(V, alpha).tolist(),
            "effective_pairs": objective.effective_pairs,
        },
    }
    if objective.landmark_indices is not None:
        record["expected"]["landmarks"] = objective.landmark_indices.tolist()
    return record


def main() -> None:
    doc = {
        "format": "repro-golden-cases",
        "version": 1,
        "note": (
            "Frozen oracle fixtures; regenerate with "
            "`PYTHONPATH=src python tests/golden/regenerate.py` "
            "only after an intentional behaviour change."
        ),
        "cases": [build_case(name, kwargs) for name, kwargs in CASES.items()],
    }
    with open(OUT_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT_PATH} ({len(doc['cases'])} cases)")


if __name__ == "__main__":
    main()
