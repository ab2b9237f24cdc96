"""Inputs made from the seed, and the output checks recomputed from them.

AUC and yNN are implemented here rather than taken from the program, so
a broken library metric cannot vouch for itself.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

import numpy as np

#: Seed whose quality values ``workloads.json`` records.
DEFAULT_SEED = 0

#: Allowed distance between recomputed and recorded default-seed values.
EXPECTED_TOLERANCE = 0.02

#: Sanity floor for seeds without recorded values.  It catches broken
#: output, not weak models: the served model, fitted on 1000 records,
#: scores an AUC just under 0.5 on some seeds.  The recorded default-seed
#: values are what catch a regression.
QUALITY_FLOOR = 0.4

#: Neighbourhood size of yNN (the paper's k).
YNN_K = 10


def substream(seed: int, *keys: int) -> int:
    """Deterministic seed for one input of a workload run."""
    return int(np.random.SeedSequence([int(seed) % 2**32, 0x1FA1, *keys]).generate_state(1)[0])


def census_split(seed: int, index: int, n_train: int, n_test: int):
    """Train and held-out census records from one seeded draw."""
    from repro.data.census import generate_census
    from repro.data.schema import TabularDataset

    full = generate_census(n_train + n_test, random_state=substream(seed, 1, index))

    def part(rows: slice) -> TabularDataset:
        return TabularDataset(
            name="census",
            X=full.X[rows],
            y=full.y[rows],
            protected=full.protected[rows],
            protected_indices=full.protected_indices,
            feature_names=full.feature_names,
            task="classification",
        )

    return part(slice(0, n_train)), part(slice(n_train, None))


def roc_auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC with mid-ranks for ties."""
    from scipy.stats import rankdata

    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    ranks = rankdata(np.asarray(scores, dtype=np.float64).ravel())
    pos = y_true == 1.0
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def ynn(X: np.ndarray, protected_indices, outcomes: np.ndarray, k: int = YNN_K) -> float:
    """yNN consistency: 1 - mean |y_i - y_j| over each record's k nearest neighbours.

    Neighbours are found by Euclidean distance over the non-protected
    columns, standardised on the evaluated records themselves.
    """
    X = np.asarray(X, dtype=np.float64)
    keep = [c for c in range(X.shape[1]) if c not in set(int(i) for i in protected_indices)]
    Xs = X[:, keep]
    std = Xs.std(axis=0)
    Xs = (Xs - Xs.mean(axis=0)) / np.where(std > 0, std, 1.0)
    outcomes = np.asarray(outcomes, dtype=np.float64).ravel()
    sq = np.einsum("ij,ij->i", Xs, Xs)
    total = 0.0
    for start in range(0, Xs.shape[0], 512):
        block = Xs[start : start + 512]
        d = sq[start : start + 512, None] + sq[None, :] - 2.0 * block @ Xs.T
        rows = np.arange(block.shape[0])
        d[rows, start + rows] = np.inf  # exclude self
        nn = np.argpartition(d, k, axis=1)[:, :k]
        total += float(np.abs(outcomes[start : start + 512, None] - outcomes[nn]).sum())
    return 1.0 - total / (Xs.shape[0] * k)


def load_expected(bench_dir: str) -> Dict[str, Dict[str, float]]:
    """Recorded default-seed quality per workload from ``workloads.json``."""
    with open(os.path.join(bench_dir, "workloads.json")) as fh:
        spec = json.load(fh)
    return {name: w.get("expected_default_seed", {}) for name, w in spec["workloads"].items()}


def quality_checks(
    seed: int, auc: float, ynn_value: float, expected: Dict[str, float]
) -> List[Tuple[str, bool, str]]:
    """``(name, passed, detail)`` for the quality half of the output checks."""
    checks = []
    for name, value in (("test_auc", auc), ("test_ynn", ynn_value)):
        finite = bool(np.isfinite(value))
        if seed == DEFAULT_SEED and name in expected:
            want = float(expected[name])
            ok = finite and abs(value - want) <= EXPECTED_TOLERANCE
            detail = f"{value:.4f} vs recorded {want:.4f} (tolerance {EXPECTED_TOLERANCE})"
        else:
            ok = finite and QUALITY_FLOOR <= value <= 1.0
            detail = f"{value:.4f} within [{QUALITY_FLOOR}, 1]"
        checks.append((name, ok, detail))
    return checks

