"""Fit a complete serving pipeline from a labelled dataset.

This is the offline half of the serving story: take a
:class:`~repro.data.schema.TabularDataset`, learn scaler -> iFair ->
logistic scorer -> per-group thresholds, and package the result as a
:class:`~repro.serving.artifacts.ServingArtifact` ready for
``save_artifact`` / the ``repro fit-save`` CLI verb.

``tune=True`` grid-searches the mixture coefficients before the final
fit: candidates are trained on an internal train split, scored on a
held-out validation split by (AUC, yNN), selected under a
:class:`~repro.core.tuning.TuningCriterion`, and the winner is re-fit
on the full dataset.  The search drops every candidate artifact after
scoring (``keep_artifacts=False``) and runs on ``tune_jobs`` worker
processes — the encoded matrix is broadcast to them once via shared
memory, never pickled per candidate.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.executor import get_shared
from repro.core.model import IFair
from repro.core.tuning import GridSearch, HalvingConfig, TuningCriterion
from repro.data.schema import TabularDataset
from repro.data.splits import stratified_split
from repro.exceptions import ValidationError
from repro.learners.logistic import LogisticRegression
from repro.learners.scaler import StandardScaler
from repro.metrics.classification import roc_auc
from repro.metrics.individual import consistency
from repro.posthoc.thresholds import GroupThresholdAdjuster
from repro.serving.artifacts import ServingArtifact
from repro.telemetry.tracing import get_tracer
from repro.utils import blas

# Load the solver with this module, before any fit starts: a fit then
# never pays for the import, and worker processes forked from here
# inherit it.
blas.import_scipy("optimize")

#: Mixture grid searched by ``tune=True`` — wide spacing, crossed with
#: the model's prototype count.
TUNE_MIXTURES: Tuple[float, ...] = (0.1, 1.0, 10.0)


def _tune_build(spec: Dict, params: Dict) -> IFair:
    """Worker body: fit one tuning candidate on the train split."""
    shared = get_shared()
    X = shared["X"]
    model_params = dict(spec["model_params"])
    model_params.update(params)
    return IFair(**model_params).fit(
        X[shared["train"]], list(spec["protected_indices"])
    )


def _tune_evaluate(spec: Dict, model: IFair) -> Tuple[float, float]:
    """Validation (AUC, yNN) of one fitted tuning candidate."""
    shared = get_shared()
    X, y = shared["X"], shared["y"]
    train, val = shared["train"], shared["val"]
    Z_train = model.transform(X[train])
    Z_val = model.transform(X[val])
    clf = LogisticRegression(l2=spec["scorer_l2"]).fit(Z_train, y[train])
    proba = clf.predict_proba(Z_val)
    pred = (proba >= 0.5).astype(np.float64)
    try:
        auc = float(roc_auc(y[val], proba))
    except ValidationError:
        auc = float("nan")
    nonprotected = [
        i for i in range(X.shape[1]) if i not in set(spec["protected_indices"])
    ]
    ynn = float(
        consistency(
            X[val][:, nonprotected], pred, k=min(10, val.size - 1)
        )
    )
    return auc, ynn


def _tune_mixtures(
    X: np.ndarray,
    y: np.ndarray,
    protected_indices,
    model_params: Dict,
    *,
    scorer_l2: float,
    tune_criterion: str,
    tune_jobs: Optional[int],
    tune_strategy: str,
    tune_promote: str,
    random_state: int,
) -> Dict:
    """Select (lambda_util, mu_fair) on a held-out validation split."""
    split = stratified_split(y, random_state=random_state)
    # Budget keys ride in every grid point so the halving strategy can
    # shrink them on early rungs (and warm-start survivors).
    grid: List[Dict] = [
        {
            "lambda_util": lam,
            "mu_fair": mu,
            "max_iter": model_params["max_iter"],
            "n_restarts": model_params["n_restarts"],
        }
        for lam in TUNE_MIXTURES
        for mu in TUNE_MIXTURES
    ]
    spec = {
        "model_params": model_params,
        "protected_indices": tuple(int(i) for i in np.atleast_1d(protected_indices)),
        "scorer_l2": scorer_l2,
    }
    search = GridSearch(
        partial(_tune_build, spec),
        partial(_tune_evaluate, spec),
        grid,
        n_jobs=tune_jobs,
        strategy=tune_strategy,
        halving=HalvingConfig(promote=tune_promote),
        keep_artifacts=False,
        shared={
            "X": X,
            "y": y,
            "train": np.concatenate([split.train, split.test]),
            "val": split.val,
        },
    )
    best = search.run().best(TuningCriterion(tune_criterion))
    return {key: best.params[key] for key in ("lambda_util", "mu_fair")}


def fit_serving_pipeline(
    dataset: TabularDataset,
    *,
    n_prototypes: int = 10,
    lambda_util: float = 1.0,
    mu_fair: float = 1.0,
    init: str = "protected_zero",
    n_restarts: int = 1,
    max_iter: int = 100,
    max_pairs: Optional[int] = 2000,
    pair_mode: str = "auto",
    criterion: str = "parity",
    scorer_l2: float = 1.0,
    n_jobs: Optional[int] = None,
    tune: bool = False,
    tune_criterion: str = "optimal",
    tune_jobs: Optional[int] = None,
    tune_strategy: str = "exhaustive",
    tune_promote: str = "rank",
    random_state: int = 0,
) -> ServingArtifact:
    """Fit scaler + iFair + scorer (+ thresholds) on ``dataset``.

    Classification datasets get the full stack; ranking datasets (real-
    valued ``y``) get scaler + iFair + a scorer trained on the median
    split of the scores, but no thresholds (``decide`` is a
    classification verb).  ``pair_mode="full"`` switches the fairness
    oracle to the exact ordered-pair sum (and drops the default pair
    subsample, which only applies to ``sampled``).

    ``n_jobs`` runs the fit's restarts on worker processes; ``tune``
    grid-searches the mixture coefficients first (see module
    docstring), overriding ``lambda_util``/``mu_fair`` with the
    winner before the final full-data fit.  ``tune_promote=
    "extrapolate"`` switches halving rung promotion to learning-curve
    extrapolation.

    The whole pipeline runs at one BLAS thread (:mod:`repro.utils.blas`).
    """
    if dataset.n_records < 10:
        raise ValidationError("serving pipeline needs at least 10 records")
    if pair_mode == "full":
        max_pairs = None
    model_params = {
        "n_prototypes": n_prototypes,
        "lambda_util": lambda_util,
        "mu_fair": mu_fair,
        "init": init,
        "n_restarts": n_restarts,
        "max_iter": max_iter,
        "max_pairs": max_pairs,
        "pair_mode": pair_mode,
        "n_jobs": n_jobs,
        "random_state": random_state,
    }
    tracer = get_tracer()
    with tracer.span(
        "serving.fit_pipeline", dataset=dataset.name, tune=tune
    ), blas.limit(1):
        scaler = StandardScaler().fit(dataset.X)
        X = scaler.transform(dataset.X)
        y = dataset.y
        if dataset.task != "classification":
            y = (dataset.y >= np.median(dataset.y)).astype(np.float64)

        tuned_params: Optional[Dict] = None
        if tune:
            with tracer.span("serving.fit_pipeline.tune"):
                tuned_params = _tune_mixtures(
                    X,
                    y,
                    dataset.protected_indices,
                    model_params,
                    scorer_l2=scorer_l2,
                    tune_criterion=tune_criterion,
                    tune_jobs=tune_jobs,
                    tune_strategy=tune_strategy,
                    tune_promote=tune_promote,
                    random_state=random_state,
                )
            model_params.update(tuned_params)

        model = IFair(**model_params).fit(X, dataset.protected_indices)
        Z = model.transform(X)

        with tracer.span("serving.fit_pipeline.scorer"):
            scorer = LogisticRegression(l2=scorer_l2).fit(Z, y)
            scores = scorer.predict_proba(Z)

            thresholds = None
            if dataset.task == "classification":
                thresholds = GroupThresholdAdjuster(criterion=criterion).fit(
                    scores, dataset.protected, y_true=y
                )

    return ServingArtifact(
        model=model,
        protected_indices=dataset.protected_indices,
        scaler=scaler,
        scorer=scorer,
        thresholds=thresholds,
        feature_names=list(dataset.feature_names),
        metadata={
            "dataset": dataset.name,
            "task": dataset.task,
            "n_records": dataset.n_records,
            "random_state": random_state,
            "criterion": criterion if thresholds is not None else None,
            "ifair_loss": float(model.loss_),
            "pair_mode": pair_mode,
            "tuned": tuned_params,
            "tune_criterion": tune_criterion if tune else None,
        },
    )
