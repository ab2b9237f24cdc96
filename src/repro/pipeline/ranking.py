"""Learning-to-rank experiment runner (Table IV and Table V).

Protocol (Section V-E): train a linear regression on each
representation to predict the deserved score; rank every query's
candidates by the predicted scores; report means of MAP(AP@10),
Kendall's tau, consistency yNN, and the protected share of the top 10
over all queries.  FA*IR enters as a post-processor of masked-data
scores (with the paper's fair-score interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.fair_ranking import FairRanker
from repro.core.tuning import GridSearch, HalvingConfig, TuningCriterion
from repro.data.schema import TabularDataset
from repro.data.splits import train_val_test_split
from repro.data.xing import DEFAULT_WEIGHTS, compute_scores
from repro.exceptions import ValidationError
from repro.learners.linear import LinearRegression
from repro.learners.scaler import StandardScaler
from repro.metrics.group import protected_share_at_k
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.representations import (
    RANKING_METHODS,
    FitContext,
    make_method,
    method_candidates,
)
from repro.ranking.engine import RankingEvaluation, evaluate_scores
from repro.ranking.query import Query, build_queries
from repro.utils.tables import render_table


@dataclass
class RankingRow:
    """One Table V row: a method's mean ranking measures."""

    method: str
    map_score: float
    kendall: float
    consistency: float
    protected_share: float
    params: Dict = field(default_factory=dict)

    def as_row(self) -> List:
        return [
            self.method,
            self.map_score,
            self.kendall,
            self.consistency,
            100.0 * self.protected_share,
        ]


@dataclass
class RankingReport:
    """Per-dataset ranking results (Table V block)."""

    dataset: str
    n_queries: int
    rows: List[RankingRow] = field(default_factory=list)

    def row(self, method: str) -> RankingRow:
        for row in self.rows:
            if row.method == method:
                return row
        raise ValidationError(f"no row for method {method!r}")

    def table5(self) -> str:
        headers = ["Method", "MAP", "KT", "yNN", "% Protected@10"]
        return render_table(
            headers,
            [r.as_row() for r in self.rows],
            title=f"Table V — {self.dataset} ({self.n_queries} queries)",
        )


def _fit_score_model(
    Z_train: np.ndarray, y_train: np.ndarray
) -> LinearRegression:
    return LinearRegression().fit(Z_train, y_train)


def _evaluate_method(
    method_name: str,
    params: Dict,
    dataset: TabularDataset,
    X_scaled: np.ndarray,
    queries: Sequence[Query],
    train_idx: np.ndarray,
    config: ExperimentConfig,
    true_scores: Optional[np.ndarray] = None,
) -> Tuple[RankingEvaluation, Dict]:
    """Fit representation + regression, score all records, evaluate."""
    context = FitContext(
        X_train=X_scaled[train_idx],
        protected_indices=dataset.protected_indices,
        random_state=config.random_state,
    )
    method = make_method(method_name, params)
    method.fit(context)
    Z = method.transform(X_scaled)
    truth = dataset.y if true_scores is None else true_scores
    model = _fit_score_model(Z[train_idx], truth[train_idx])
    predicted = model.predict(Z)
    evaluation = evaluate_scores(
        dataset,
        queries,
        predicted,
        consistency_k=config.consistency_k,
        true_scores=truth,
        X_star=X_scaled[:, dataset.nonprotected_indices],
    )
    return evaluation, dict(params)


def _ranking_candidate(
    method_name, dataset, X_scaled, queries, train_idx, config, true_scores, params
) -> RankingEvaluation:
    """GridSearch build: fit + evaluate one ranking candidate.

    Module-level (used through :func:`functools.partial` over
    picklable arguments) so the search works under the ``spawn``
    start method, not only under ``fork``.
    """
    return _evaluate_method(
        method_name,
        params,
        dataset,
        X_scaled,
        queries,
        train_idx,
        config,
        true_scores=true_scores,
    )[0]


def _ranking_scores(evaluation: RankingEvaluation) -> Tuple[float, float]:
    """GridSearch evaluate: MAP is the utility, yNN the fairness."""
    return evaluation.map_score, evaluation.consistency


def _ranking_summary(evaluation: RankingEvaluation) -> Dict:
    """The four Table V measures, kept after the artifact is dropped."""
    return {
        "map_score": evaluation.map_score,
        "kendall": evaluation.kendall,
        "consistency": evaluation.consistency,
        "protected_share": evaluation.protected_share,
    }


def _evaluate_fair_ranker(
    dataset: TabularDataset,
    X_scaled: np.ndarray,
    queries: Sequence[Query],
    train_idx: np.ndarray,
    config: ExperimentConfig,
    p: float,
    true_scores: Optional[np.ndarray] = None,
    base_scores: Optional[np.ndarray] = None,
) -> RankingEvaluation:
    """FA*IR baseline: masked-data regression scores, re-ranked per query.

    ``base_scores`` may supply pre-computed candidate scores (used by the
    Figure 5 post-processing study on iFair representations).
    """
    truth = dataset.y if true_scores is None else true_scores
    if base_scores is None:
        context = FitContext(
            X_train=X_scaled[train_idx],
            protected_indices=dataset.protected_indices,
            random_state=config.random_state,
        )
        masked = make_method("Masked Data", {})
        masked.fit(context)
        Z = masked.transform(X_scaled)
        model = _fit_score_model(Z[train_idx], truth[train_idx])
        base_scores = model.predict(Z)
    ranker = FairRanker(p=p, random_state=config.random_state)
    fair_scores = np.array(base_scores, dtype=np.float64, copy=True)
    for query in queries:
        idx = query.indices
        prot = dataset.protected[idx]
        # FA*IR needs both groups present; degenerate queries keep
        # their original scores.
        if prot.min() == prot.max():
            continue
        result = ranker.rank(base_scores[idx], prot)
        # Re-express fair scores in original record order: the item at
        # output rank r gets the interpolated score of rank r.
        fair_scores[idx[result.ranking]] = np.sort(result.scores)[::-1]
    return evaluate_scores(
        dataset,
        queries,
        fair_scores,
        consistency_k=config.consistency_k,
        true_scores=truth,
        X_star=X_scaled[:, dataset.nonprotected_indices],
    )


def run_ranking(
    dataset: TabularDataset,
    config: Optional[ExperimentConfig] = None,
    *,
    methods: Tuple[str, ...] = RANKING_METHODS,
    fair_ps: Tuple[float, ...] = (0.5, 0.9),
    min_query_size: int = 10,
    max_queries: Optional[int] = None,
    true_scores: Optional[np.ndarray] = None,
) -> RankingReport:
    """Run the Table V protocol on one ranking dataset.

    Tuned methods (SVD variants, iFair-b) select their hyper-parameters
    by the paper's "Optimal" criterion — best harmonic mean of MAP and
    yNN — evaluated over the queries.
    """
    config = config or ExperimentConfig.fast()
    if dataset.task != "ranking":
        raise ValidationError(f"dataset {dataset.name!r} is not a ranking task")
    queries = build_queries(dataset, min_size=min_query_size, max_queries=max_queries)
    split = train_val_test_split(dataset.n_records, random_state=config.random_state)
    scaler = StandardScaler().fit(dataset.X[split.train])
    X_scaled = scaler.transform(dataset.X)

    report = RankingReport(dataset=dataset.name, n_queries=len(queries))
    for name in methods:
        # Tuned methods select by the paper's "Optimal" criterion
        # (harmonic mean of MAP and yNN).  Candidate fits route
        # through GridSearch, so ``config.tune_jobs`` fans them over
        # worker processes and ``tune_strategy="halving"`` prunes the
        # grid; only the four report measures leave each fit.
        search = GridSearch(
            partial(
                _ranking_candidate,
                name,
                dataset,
                X_scaled,
                queries,
                split.train,
                config,
                true_scores,
            ),
            _ranking_scores,
            method_candidates(name, config),
            n_jobs=config.tune_jobs,
            strategy=config.tune_strategy,
            halving=HalvingConfig(promote=config.tune_promote),
            keep_artifacts=False,
            summarize=_ranking_summary,
            theta_of=None,
        )
        best = search.run().best(TuningCriterion.OPTIMAL)
        report.rows.append(
            RankingRow(
                method=name,
                params=dict(best.params),
                **best.info,
            )
        )
    for p in fair_ps:
        evaluation = _evaluate_fair_ranker(
            dataset, X_scaled, queries, split.train, config, p, true_scores=true_scores
        )
        report.rows.append(
            RankingRow(
                method=f"FA*IR (p={p})",
                map_score=evaluation.map_score,
                kendall=evaluation.kendall,
                consistency=evaluation.consistency,
                protected_share=evaluation.protected_share,
                params={"p": p},
            )
        )
    return report


@dataclass
class WeightSensitivityRow:
    """One Table IV row: score weights and resulting measures."""

    weights: Tuple[float, float, float]
    base_rate_protected: float
    map_score: float
    kendall: float
    consistency: float
    protected_share: float


def run_weight_sensitivity(
    dataset: TabularDataset,
    weight_grid: Sequence[Tuple[float, float, float]],
    config: Optional[ExperimentConfig] = None,
) -> List[WeightSensitivityRow]:
    """Table IV: iFair-b sensitivity to the Xing score weights.

    For each weight triple the deserved score is recomputed, iFair-b is
    tuned by the Optimal criterion, and the resulting measures (plus
    the ground-truth protected base rate in top-10s) are reported.
    """
    config = config or ExperimentConfig.fast()
    if dataset.name != "xing":
        raise ValidationError("weight sensitivity is defined on the Xing dataset")
    queries = build_queries(dataset, min_size=2)
    rows: List[WeightSensitivityRow] = []
    for weights in weight_grid:
        if all(w == 0.0 for w in weights):
            continue
        truth = compute_scores(dataset, weights)
        base_rate = float(
            np.mean(
                [
                    protected_share_at_k(
                        np.argsort(-truth[q.indices], kind="mergesort"),
                        dataset.protected[q.indices],
                        k=min(10, q.size),
                    )
                    for q in queries
                ]
            )
        )
        report = run_ranking(
            dataset,
            config,
            methods=("iFair-b",),
            fair_ps=(),
            min_query_size=2,
            true_scores=truth,
        )
        row = report.row("iFair-b")
        rows.append(
            WeightSensitivityRow(
                weights=tuple(weights),
                base_rate_protected=100.0 * base_rate,
                map_score=row.map_score,
                kendall=row.kendall,
                consistency=row.consistency,
                protected_share=100.0 * row.protected_share,
            )
        )
    return rows


def table4(rows: Sequence[WeightSensitivityRow]) -> str:
    """Render the Table IV block."""
    headers = [
        "w_work",
        "w_edu",
        "w_views",
        "Base-rate prot.",
        "MAP",
        "KT",
        "yNN",
        "% Protected",
    ]
    table_rows = [
        [
            row.weights[0],
            row.weights[1],
            row.weights[2],
            row.base_rate_protected,
            row.map_score,
            row.kendall,
            row.consistency,
            row.protected_share,
        ]
        for row in rows
    ]
    return render_table(headers, table_rows, title="Table IV — Xing weight sensitivity")
