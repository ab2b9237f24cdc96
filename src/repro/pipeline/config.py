"""Experiment configuration.

The paper's full protocol (grids of Section V-B at full dataset sizes)
is expensive; :class:`ExperimentConfig` captures every knob with two
presets:

* :meth:`ExperimentConfig.fast` — reduced grids and dataset sizes that
  keep each table/figure regeneration in the seconds-to-minutes range
  (the default for tests and benchmarks);
* :meth:`ExperimentConfig.paper` — the paper's grids
  ({0, 0.05, 0.1, 1, 10, 100} mixtures, K in {10, 20, 30}, best of 3
  restarts) at full dataset sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.executor import POOL_MODES, effective_n_jobs
from repro.core.objective import PAIR_MODES
from repro.core.tuning import (
    MIXTURE_GRID,
    PROMOTE_MODES,
    PROTOTYPE_GRID,
    TUNING_STRATEGIES,
)
from repro.exceptions import ValidationError


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the experiment pipeline.

    Attributes
    ----------
    mixture_grid:
        Candidate values for lambda/mu (iFair) and A_x/A_z (LFR).
    prototype_grid:
        Candidate prototype counts K (also used as SVD ranks).
    n_restarts:
        Optimisation restarts per candidate ("best of 3" in the paper).
    max_iter:
        L-BFGS iteration budget per restart.
    max_pairs:
        Cap on fairness-loss pairs (None = exact full sum).
    pair_mode:
        Fairness-oracle mode for iFair fits: ``"auto"`` (default;
        sampled iff ``max_pairs`` set), ``"full"`` or ``"sampled"``.
    tune_jobs:
        Candidate fits of the tuning protocol run on this many worker
        processes (``None``/1 serial, ``-1`` per CPU).  Results are
        identical for any value; see :mod:`repro.core.executor`.
    tune_strategy:
        ``"exhaustive"`` (default, the paper's protocol) or
        ``"halving"`` (successive halving over the same grid — 2-4x
        fewer fit-iterations; selection validated against exhaustive
        on seeded configs, see :mod:`repro.core.tuning`).
    tune_pool:
        ``"per-call"`` (default) or ``"session"`` — whether tuning
        searches spawn a private worker pool each or borrow the
        persistent broker pool (and shm arena cache); results are
        bitwise identical, session amortises the spawn/broadcast cost
        across the per-method searches of one experiment.
    tune_promote:
        Halving rung promotion: ``"rank"`` (default, observed
        low-budget scores) or ``"extrapolate"`` (predicted full-budget
        scores from per-candidate learning curves).  Only meaningful
        with ``tune_strategy="halving"``.
    consistency_k:
        Neighbourhood size of yNN.
    l2:
        Regularisation of downstream logistic regression.
    classification_records / ranking_queries / query_size:
        Dataset scale used when the runner generates data itself.
    compas_charge_levels:
        Cardinality knob controlling COMPAS encoded width.
    online_refit:
        Attach the serving-side drift-response controller when this
        config is served (``repro serve --online-refit``); see
        :mod:`repro.serving.online`.
    refresh_window:
        Sliding-window row bound of the online controller (shift
        statistic, landmark re-anchoring, and ``partial_fit`` refits).
    drift_policy:
        Which drift signal schedules a refit — one of
        :data:`repro.serving.online.DRIFT_POLICIES`.
    refit_cooldown_s:
        Minimum seconds between automatic online refits.
    random_state:
        Master seed for data generation, splits and optimisation.
    """

    mixture_grid: Tuple[float, ...] = (0.1, 1.0, 100.0)
    prototype_grid: Tuple[int, ...] = (8,)
    n_restarts: int = 1
    max_iter: int = 60
    max_pairs: Optional[int] = 2500
    pair_mode: str = "auto"
    tune_jobs: Optional[int] = None
    tune_strategy: str = "exhaustive"
    tune_pool: str = "per-call"
    tune_promote: str = "rank"
    consistency_k: int = 10
    l2: float = 1.0
    classification_records: int = 450
    ranking_queries: int = 12
    query_size: int = 25
    compas_charge_levels: int = 30
    online_refit: bool = False
    refresh_window: int = 512
    drift_policy: str = "either"
    refit_cooldown_s: float = 30.0
    random_state: int = 7

    def __post_init__(self):
        if not self.mixture_grid or not self.prototype_grid:
            raise ValidationError("grids must not be empty")
        if self.n_restarts < 1 or self.max_iter < 1:
            raise ValidationError("n_restarts and max_iter must be positive")
        if self.consistency_k < 1:
            raise ValidationError("consistency_k must be positive")
        if self.pair_mode not in PAIR_MODES:
            raise ValidationError(f"pair_mode must be one of {PAIR_MODES}")
        effective_n_jobs(self.tune_jobs)  # validates the knob's range
        if self.tune_strategy not in TUNING_STRATEGIES:
            raise ValidationError(
                f"tune_strategy must be one of {TUNING_STRATEGIES}"
            )
        if self.tune_pool not in POOL_MODES:
            raise ValidationError(f"tune_pool must be one of {POOL_MODES}")
        if self.tune_promote not in PROMOTE_MODES:
            raise ValidationError(
                f"tune_promote must be one of {PROMOTE_MODES}"
            )
        # Deferred import: repro.serving must stay importable without
        # the pipeline package and vice versa.
        from repro.serving.online import DRIFT_POLICIES

        if self.drift_policy not in DRIFT_POLICIES:
            raise ValidationError(
                f"drift_policy must be one of {DRIFT_POLICIES}"
            )
        if self.refresh_window < 2:
            raise ValidationError("refresh_window must be at least 2")
        if self.refit_cooldown_s < 0:
            raise ValidationError("refit_cooldown_s must be non-negative")

    @classmethod
    def fast(cls, random_state: int = 7) -> "ExperimentConfig":
        """Reduced preset for tests and benchmark regeneration."""
        return cls(random_state=random_state)

    @classmethod
    def paper(cls, random_state: int = 7) -> "ExperimentConfig":
        """The paper's full protocol (hours of compute)."""
        return cls(
            mixture_grid=MIXTURE_GRID,
            prototype_grid=PROTOTYPE_GRID,
            n_restarts=3,
            max_iter=200,
            max_pairs=None,
            classification_records=6901,
            ranking_queries=57,
            query_size=40,
            compas_charge_levels=397,
            random_state=random_state,
        )
