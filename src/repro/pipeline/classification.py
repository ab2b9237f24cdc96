"""Classification experiment runner (Figure 3 and Table III).

Protocol (Section V-B/V-D):

1. unit-variance scaling fitted on the train split;
2. random three-way split (train / validation / test);
3. every method is trained on the train split; candidates with
   hyper-parameters are scored on the validation split by (AUC, yNN);
4. Table III rows: for LFR / iFair-a / iFair-b, pick candidates by the
   three tuning criteria and report their *test* metrics;
5. Figure 3 points: test (AUC, yNN) of every candidate, with the
   cross-method Pareto front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.executor import get_shared
from repro.core.pareto import pareto_front
from repro.core.tuning import GridSearch, HalvingConfig, TuningCriterion
from repro.data.schema import TabularDataset
from repro.data.splits import Split, stratified_split
from repro.exceptions import ValidationError
from repro.learners.logistic import LogisticRegression
from repro.learners.scaler import StandardScaler
from repro.metrics.classification import accuracy, roc_auc
from repro.metrics.group import equal_opportunity, statistical_parity
from repro.metrics.individual import consistency
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.representations import (
    CLASSIFICATION_METHODS,
    FitContext,
    make_method,
    method_candidates,
)
from repro.utils.tables import render_table


@dataclass
class ClassifierMetrics:
    """The five Table III measures on one split."""

    accuracy: float
    auc: float
    eq_opp: float
    parity: float
    consistency: float

    def as_row(self) -> List[float]:
        return [self.accuracy, self.auc, self.eq_opp, self.parity, self.consistency]


@dataclass
class CandidateOutcome:
    """One (method, hyper-params) candidate, scored on val and test."""

    method: str
    params: Dict
    val_auc: float
    val_consistency: float
    test: ClassifierMetrics


@dataclass
class ClassificationReport:
    """Everything the classification benches print."""

    dataset: str
    candidates: List[CandidateOutcome] = field(default_factory=list)

    def method_candidates(self, method: str) -> List[CandidateOutcome]:
        return [c for c in self.candidates if c.method == method]

    def best(self, method: str, criterion: TuningCriterion) -> CandidateOutcome:
        """Tuning happens on validation scores, as in the paper."""
        pool = self.method_candidates(method)
        if not pool:
            raise ValidationError(f"no candidates for method {method!r}")
        return max(
            pool, key=lambda c: criterion.score(c.val_auc, c.val_consistency)
        )

    def pareto_points(self) -> List[CandidateOutcome]:
        """Cross-method Pareto front on test (AUC, yNN) — Figure 3."""
        pts = [[c.test.auc, c.test.consistency] for c in self.candidates]
        return [self.candidates[i] for i in pareto_front(pts)]

    def table3(self) -> str:
        """Render the dataset's Table III block."""
        headers = ["Tuning", "Method", "Acc", "AUC", "EqOpp", "Parity", "yNN"]
        rows: List[List] = []
        full = self.best("Full Data", TuningCriterion.MAX_UTILITY)
        rows.append(["Baseline", "Full Data"] + full.test.as_row())
        labels = {
            TuningCriterion.MAX_UTILITY: "Max Utility",
            TuningCriterion.MAX_FAIRNESS: "Max Fairness",
            TuningCriterion.OPTIMAL: "Optimal",
        }
        for criterion, label in labels.items():
            for method in ("LFR", "iFair-a", "iFair-b"):
                best = self.best(method, criterion)
                rows.append([label, method] + best.test.as_row())
        return render_table(headers, rows, title=f"Table III — {self.dataset}")

    def figure3(self) -> str:
        """Render the Figure 3 scatter (test AUC vs yNN per method)."""
        headers = ["Method", "AUC", "yNN", "Pareto"]
        front = {id(c) for c in self.pareto_points()}
        rows = [
            [c.method, c.test.auc, c.test.consistency, "*" if id(c) in front else ""]
            for c in self.candidates
        ]
        return render_table(headers, rows, title=f"Figure 3 — {self.dataset}")


def _classifier_metrics(
    clf: LogisticRegression,
    Z: np.ndarray,
    y: np.ndarray,
    protected: np.ndarray,
    X_star: np.ndarray,
    k: int,
) -> ClassifierMetrics:
    proba = clf.predict_proba(Z)
    pred = (proba >= 0.5).astype(np.float64)
    try:
        auc = roc_auc(y, proba)
    except ValidationError:
        auc = float("nan")
    try:
        eq = equal_opportunity(y, pred, protected)
    except ValidationError:
        eq = float("nan")
    try:
        parity = statistical_parity(pred, protected)
    except ValidationError:
        parity = float("nan")
    return ClassifierMetrics(
        accuracy=accuracy(y, pred),
        auc=auc,
        eq_opp=eq,
        parity=parity,
        consistency=consistency(X_star, pred, k=min(k, X_star.shape[0] - 1)),
    )


@dataclass(frozen=True)
class _CandidateSpec:
    """Picklable description of one method's candidate-fitting job.

    Everything a worker process needs *besides* the big arrays — those
    travel once through the executor's shared-memory broadcast
    (``X``, ``X_star``, ``y``, ``protected``) instead of being pickled
    into each of the hundreds of grid tasks.
    """

    method: str
    protected_indices: Tuple[int, ...]
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    l2: float
    consistency_k: int
    random_state: int


@dataclass
class _FittedCandidate:
    """Worker-side bundle of one fitted candidate (rarely pickled)."""

    method: object
    clf: LogisticRegression
    spec: _CandidateSpec

    @property
    def theta_(self) -> Optional[np.ndarray]:
        """Fitted parameter vector when the method exposes one."""
        return getattr(self.method, "theta_", None)


def _candidate_build(spec: _CandidateSpec, params: Dict) -> _FittedCandidate:
    """Fit one (method, hyper-params) candidate plus its classifier."""
    shared = get_shared()
    X, y = shared["X"], shared["y"]
    context = FitContext(
        X_train=X[spec.train],
        protected_indices=np.asarray(spec.protected_indices, dtype=np.intp),
        y_train=y[spec.train],
        protected_group_train=shared["protected"][spec.train],
        random_state=spec.random_state,
    )
    method = make_method(spec.method, params)
    method.fit(context)
    Z_train = method.transform(X[spec.train])
    clf = LogisticRegression(l2=spec.l2).fit(Z_train, y[spec.train])
    return _FittedCandidate(method=method, clf=clf, spec=spec)


def _candidate_evaluate(fitted: _FittedCandidate) -> Tuple[float, float]:
    """Validation (AUC, yNN) — the tuning scores of Section V-B."""
    shared = get_shared()
    spec = fitted.spec
    X, y, X_star = shared["X"], shared["y"], shared["X_star"]
    Z_val = fitted.method.transform(X[spec.val])
    val_proba = fitted.clf.predict_proba(Z_val)
    val_pred = (val_proba >= 0.5).astype(np.float64)
    try:
        val_auc = float(roc_auc(y[spec.val], val_proba))
    except ValidationError:
        val_auc = float("nan")
    val_ynn = float(
        consistency(
            X_star[spec.val],
            val_pred,
            k=min(spec.consistency_k, spec.val.size - 1),
        )
    )
    return val_auc, val_ynn


def _candidate_summarize(fitted: _FittedCandidate) -> Dict:
    """Test-split metrics, reduced before the artifact is dropped."""
    shared = get_shared()
    spec = fitted.spec
    X, y, X_star = shared["X"], shared["y"], shared["X_star"]
    metrics = _classifier_metrics(
        fitted.clf,
        fitted.method.transform(X[spec.test]),
        y[spec.test],
        shared["protected"][spec.test],
        X_star[spec.test],
        spec.consistency_k,
    )
    return vars(metrics)


def run_classification(
    dataset: TabularDataset,
    config: Optional[ExperimentConfig] = None,
    *,
    methods: Tuple[str, ...] = CLASSIFICATION_METHODS,
) -> ClassificationReport:
    """Run the full classification protocol on one dataset.

    Candidate fits route through :class:`repro.core.tuning.GridSearch`:
    ``config.tune_jobs`` fans them over worker processes (the scaled
    matrix, labels and group vectors are broadcast once via shared
    memory) and ``config.tune_strategy="halving"`` switches the tuned
    methods to successive halving — the report then contains the
    final-rung survivors of each method rather than every grid point.
    Fitted artifacts are always dropped after scoring
    (``keep_artifacts=False``); only metrics leave the workers.
    """
    config = config or ExperimentConfig.fast()
    if dataset.task != "classification":
        raise ValidationError(f"dataset {dataset.name!r} is not a classification task")

    split = stratified_split(dataset.y, random_state=config.random_state)
    scaler = StandardScaler().fit(dataset.X[split.train])
    X = scaler.transform(dataset.X)
    # yNN neighbours live in the original (pre-representation) record
    # space restricted to non-protected attributes; the unit-variance
    # scaling is part of preprocessing (Section V-B), so X* is scaled
    # too — otherwise a single wide-ranged column owns every neighbour.
    X_star = X[:, dataset.nonprotected_indices]
    shared = {
        "X": X,
        "X_star": X_star,
        "y": dataset.y,
        "protected": dataset.protected,
    }

    report = ClassificationReport(dataset=dataset.name)
    for name in methods:
        spec = _CandidateSpec(
            method=name,
            protected_indices=tuple(
                int(i) for i in np.atleast_1d(dataset.protected_indices)
            ),
            train=split.train,
            val=split.val,
            test=split.test,
            l2=config.l2,
            consistency_k=config.consistency_k,
            random_state=config.random_state,
        )
        search = GridSearch(
            partial(_candidate_build, spec),
            _candidate_evaluate,
            method_candidates(name, config),
            n_jobs=config.tune_jobs,
            strategy=config.tune_strategy,
            halving=HalvingConfig(promote=config.tune_promote),
            keep_artifacts=False,
            summarize=_candidate_summarize,
            shared=shared,
        )
        for candidate in search.run().candidates:
            report.candidates.append(
                CandidateOutcome(
                    method=name,
                    params=dict(candidate.params),
                    val_auc=candidate.utility,
                    val_consistency=candidate.fairness,
                    test=ClassifierMetrics(**candidate.info),
                )
            )
    return report
