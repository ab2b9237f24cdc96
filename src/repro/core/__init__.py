"""The paper's primary contribution: the iFair representation learner.

* :class:`~repro.core.distance.WeightedMinkowski` — Definition 7.
* :class:`~repro.core.objective.IFairObjective` — Definitions 4-6 and 9
  with fully analytic gradients.
* :class:`~repro.core.model.IFair` — the estimator (Definitions 2, 3, 8,
  L-BFGS optimisation of Section III-C, iFair-a / iFair-b inits).
* :mod:`~repro.core.pareto` / :mod:`~repro.core.tuning` — the paper's
  hyper-parameter protocol (grid search with process-parallel and
  successive-halving execution, Pareto-optimal models, the three
  tuning criteria of Table III).
* :mod:`~repro.core.executor` — the process-based parallel task
  runner behind ``n_jobs`` knobs (deterministic seeding, shared-memory
  broadcast, crash-isolated retry).
"""

from repro.core.distance import WeightedMinkowski
from repro.core.executor import (
    ParallelExecutor,
    TaskError,
    WorkerCrashError,
    WorkerPool,
    effective_n_jobs,
    run_tasks,
)
from repro.core.model import IFair
from repro.core.objective import IFairObjective
from repro.core.pareto import pareto_front, is_dominated
from repro.core.tuning import (
    GridSearch,
    GridSearchResult,
    HalvingConfig,
    TuningCriterion,
    default_hyper_grid,
)

__all__ = [
    "WeightedMinkowski",
    "IFair",
    "IFairObjective",
    "ParallelExecutor",
    "WorkerPool",
    "TaskError",
    "WorkerCrashError",
    "effective_n_jobs",
    "run_tasks",
    "pareto_front",
    "is_dominated",
    "GridSearch",
    "GridSearchResult",
    "HalvingConfig",
    "TuningCriterion",
    "default_hyper_grid",
]
