"""Hyper-parameter search with the paper's tuning criteria.

Section V-B/V-D protocol: grid search the mixture coefficients over
``{0, 0.05, 0.1, 1, 10, 100}`` and the prototype count over
``{10, 20, 30}``, evaluate each candidate on a validation split, and
select according to one of three criteria (Table III):

* ``TuningCriterion.MAX_UTILITY`` — best utility (AUC / MAP);
* ``TuningCriterion.MAX_FAIRNESS`` — best consistency yNN;
* ``TuningCriterion.OPTIMAL`` — best harmonic mean of the two.

:class:`GridSearch` is deliberately model-agnostic: it receives a
factory building a candidate from one grid point and an evaluation
callback returning ``(utility, fairness)``.  Two execution knobs make
the protocol fast at scale:

* ``n_jobs`` fans candidate fits over a process pool
  (:class:`repro.core.executor.ParallelExecutor`) that lives as long
  as the search; results are identical to the serial run because
  every candidate is seeded by its parameters, not by execution order.
* ``strategy="halving"`` replaces the exhaustive sweep with successive
  halving: rung 0 fits *every* candidate at a fraction of the
  iteration budget with a single restart, each rung promotes the top
  fraction under **each** criterion (their union, so all three
  winners survive), warm-starts survivors from their previous-rung
  parameters, and the final rung re-fits the few survivors at the
  exact original budgets — so the selected candidate is the same one
  exhaustive search picks whenever its winner survives the early
  rungs (pinned on seeded data by the property suite).

``HalvingConfig(promote="extrapolate")`` refines halving: it replaces
rank-based rung promotion with a learning-curve extrapolation.  Each
candidate's scores over the rung budgets are fit with a saturating
curve and the rung promotes on the *predicted full-budget* score, so a
slow starter with the higher asymptote survives rungs that pure
ranking would eliminate it from.  The Pareto-front protection of the
rank promoter is kept.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.executor import ParallelExecutor, effective_n_jobs, get_state
from repro.core.pareto import pareto_front
from repro.exceptions import ValidationError
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import get_tracer
from repro.utils.mathkit import harmonic_mean

MIXTURE_GRID: Tuple[float, ...] = (0.0, 0.05, 0.1, 1.0, 10.0, 100.0)
PROTOTYPE_GRID: Tuple[int, ...] = (10, 20, 30)

TUNING_STRATEGIES = ("exhaustive", "halving")
PROMOTE_MODES = ("rank", "extrapolate")


class TuningCriterion(enum.Enum):
    """Model-selection rules of Table III."""

    MAX_UTILITY = "max_utility"
    MAX_FAIRNESS = "max_fairness"
    OPTIMAL = "optimal"

    def score(self, utility: float, fairness: float) -> float:
        """Scalarise a (utility, fairness) pair under this criterion."""
        if self is TuningCriterion.MAX_UTILITY:
            return utility
        if self is TuningCriterion.MAX_FAIRNESS:
            return fairness
        return harmonic_mean(utility, fairness)


def default_hyper_grid(
    mixtures: Sequence[float] = MIXTURE_GRID,
    prototypes: Sequence[int] = PROTOTYPE_GRID,
) -> List[Dict[str, float]]:
    """The paper's grid: all (lambda, mu, K) combinations.

    The degenerate corner lambda = mu = 0 (nothing to optimise) is
    dropped.
    """
    grid = []
    for lam, mu, k in itertools.product(mixtures, mixtures, prototypes):
        if lam == 0.0 and mu == 0.0:
            continue
        grid.append({"lambda_util": lam, "mu_fair": mu, "n_prototypes": int(k)})
    return grid


@dataclass
class CandidateResult:
    """One evaluated grid point.

    ``order`` is the candidate's position in the original grid — the
    deterministic tie-break of :meth:`GridSearchResult.best` and the
    key halving uses to report promotions.  ``theta`` carries the
    fitted parameter vector when the build artifact exposes one
    (``artifact.theta_``); it survives ``keep_artifacts=False`` so
    parity tests can compare fits bitwise without holding models.
    """

    params: Dict
    utility: float
    fairness: float
    artifact: object = None
    order: int = 0
    info: Optional[Dict] = None
    theta: Optional[np.ndarray] = None

    def score(self, criterion: TuningCriterion) -> float:
        return criterion.score(self.utility, self.fairness)


def _selection_key(
    candidate: CandidateResult, criterion: TuningCriterion
) -> Tuple[float, float, float]:
    """Total order used for selection and promotion.

    Higher score wins; equal scores break by higher utility, then by
    earlier grid order — explicitly, rather than through ``max``'s
    first-wins behaviour, so halving (which sees a subset of the grid)
    and exhaustive search agree on tied candidates.  NaN scores sort
    last.
    """

    return (
        _finite_or_neg_inf(candidate.score(criterion)),
        _finite_or_neg_inf(candidate.utility),
        -candidate.order,
    )


def _finite_or_neg_inf(value: float) -> float:
    """NaN-safe sort key component (NaN sorts last)."""
    return -math.inf if value != value else value


@dataclass
class GridSearchResult:
    """All evaluated candidates plus convenience selectors."""

    candidates: List[CandidateResult] = field(default_factory=list)
    strategy: str = "exhaustive"
    n_fits: int = 0
    history: List[Dict] = field(default_factory=list)
    _refit: Optional[Callable[[Dict], object]] = field(
        default=None, repr=False, compare=False
    )

    def best(self, criterion: TuningCriterion) -> CandidateResult:
        """Highest-scoring candidate under ``criterion``.

        Ties break deterministically by (utility, then grid order) —
        see :func:`_selection_key`.
        """
        if not self.candidates:
            raise ValidationError("grid search produced no candidates")
        return max(self.candidates, key=lambda c: _selection_key(c, criterion))

    def refit_best(self, criterion: TuningCriterion) -> object:
        """Re-build the winning candidate and return the artifact.

        The refit-on-demand counterpart of ``keep_artifacts=False``:
        large searches drop every fitted artifact after scoring, and
        the one winner that is actually needed is rebuilt here from
        its exact grid parameters (deterministic builds give the same
        artifact the search scored).
        """
        best = self.best(criterion)
        if best.artifact is not None:
            return best.artifact
        if self._refit is None:
            raise ValidationError(
                "refit_best needs the GridSearch that produced this result"
            )
        return self._refit(dict(best.params))

    def pareto_optimal(self) -> List[CandidateResult]:
        """Candidates on the (utility, fairness) Pareto front."""
        if not self.candidates:
            return []
        points = [[c.utility, c.fairness] for c in self.candidates]
        return [self.candidates[i] for i in pareto_front(points)]


@dataclass(frozen=True)
class HalvingConfig:
    """Successive-halving schedule knobs.

    Attributes
    ----------
    n_rungs:
        Total rungs including the final full-budget one.  Rung ``r``
        (of the early rungs) runs at ``max_iter / 2**(n_rungs-1-r)``
        with a single restart; the final rung re-fits survivors at the
        candidate's exact original budgets.
    promote_fraction:
        Fraction of the rung's candidates promoted *per criterion*;
        the promoted set is the union over all three criteria, so each
        criterion's front-runners survive even when utility and
        fairness disagree (they usually do — that trade-off is the
        paper's point).
    min_promote:
        Per-criterion floor on promotions, so tiny grids never shrink
        below a meaningful final rung.
    warm_start:
        Pass the previous rung's fitted ``theta`` to survivor builds
        under the ``warm_start_theta`` parameter key (builds that do
        not understand the key may ignore it).  The final rung is
        always fitted cold at the original parameters, which makes its
        fits — and therefore the selected candidate — identical to the
        exhaustive run's whenever the winner survives.
    promote:
        ``"rank"`` (default) promotes each rung's top slice by the
        *observed* low-budget scores; ``"extrapolate"`` fits a
        saturating learning curve ``s(b) = a + c / b`` over the rung
        budget fractions seen so far and promotes by the *predicted*
        score at the full budget (``b = 1``) — robust to candidates
        whose curves cross, i.e. slow starters with higher asymptotes
        that rank promotion eliminates early.  Rungs with a single
        observation (always rung 0) degrade to rank promotion, and
        both modes keep the (utility, fairness) Pareto-front
        protection.
    """

    n_rungs: int = 3
    promote_fraction: float = 1.0 / 3.0
    min_promote: int = 2
    warm_start: bool = True
    promote: str = "rank"

    def __post_init__(self):
        if self.n_rungs < 1:
            raise ValidationError("n_rungs must be at least 1")
        if not 0.0 < self.promote_fraction <= 1.0:
            raise ValidationError("promote_fraction must lie in (0, 1]")
        if self.min_promote < 1:
            raise ValidationError("min_promote must be at least 1")
        if self.promote not in PROMOTE_MODES:
            raise ValidationError(
                f"promote must be one of {PROMOTE_MODES}, got {self.promote!r}"
            )


def predict_full_budget(observations: Sequence[Tuple[float, float]]) -> float:
    """Extrapolate a candidate's score to the full training budget.

    ``observations`` are ``(budget_fraction, score)`` pairs from the
    halving rungs (fractions in ``(0, 1]``).  A least-squares fit of
    the saturating model ``s(b) = a + c / b`` — linear in ``1/b``, so
    two points determine it exactly and more points regress it —
    yields the prediction ``s(1) = a + c``.  With fewer than two
    finite observations (or a degenerate fit) the latest observed
    score is returned, which makes extrapolation promotion collapse
    to rank promotion exactly when there is no curve to fit.
    """
    finite = [
        (b, s) for b, s in observations if math.isfinite(s) and b > 0.0
    ]
    if not finite:
        return float("nan")
    if len({b for b, _ in finite}) < 2:
        return finite[-1][1]
    budgets = np.array([b for b, _ in finite], dtype=np.float64)
    scores = np.array([s for _, s in finite], dtype=np.float64)
    design = np.stack([np.ones_like(budgets), 1.0 / budgets], axis=1)
    coef, *_ = np.linalg.lstsq(design, scores, rcond=None)
    predicted = float(coef[0] + coef[1])
    if not math.isfinite(predicted):  # pragma: no cover - defensive
        return finite[-1][1]
    return predicted


def _default_theta_of(artifact: object) -> Optional[np.ndarray]:
    """Fitted parameter vector of an artifact, when it exposes one."""
    theta = getattr(artifact, "theta_", None)
    if theta is None:
        return None
    return np.asarray(theta, dtype=np.float64)


def _grid_task(payload: Dict) -> Dict:
    """Worker body: build one candidate, evaluate it, strip it down.

    Runs inline or in a pool worker; the build/evaluate callables ride
    in the executor ``state`` (inherited memory under fork, pickled
    under spawn).  The artifact itself is only shipped back when the
    caller asked to keep it — for large grids the fitted model stays
    in the worker and dies with the task.
    """
    state = get_state()
    artifact = state["build"](dict(payload["params"]))
    utility, fairness = state["evaluate"](artifact)
    summarize = state["summarize"]
    theta_of = state["theta_of"]
    want_summary = summarize is not None and payload["summarize"]
    return {
        "order": payload["order"],
        "utility": float(utility),
        "fairness": float(fairness),
        "artifact": artifact if payload["keep"] else None,
        "info": summarize(artifact) if want_summary else None,
        "theta": theta_of(artifact) if theta_of is not None else None,
    }


class GridSearch:
    """Search an explicit list of parameter dicts.

    Parameters
    ----------
    build:
        Callable ``params -> artifact`` training one candidate (e.g. a
        fitted representation plus downstream model).  For identical
        serial/parallel results it must be deterministic in ``params``
        (seed from your config, not from global state).
    evaluate:
        Callable ``artifact -> (utility, fairness)`` scoring the
        candidate on validation data.
    grid:
        Iterable of parameter dicts; defaults to the paper's grid.
    n_jobs:
        Candidate fits run on this many worker processes (``None``/1
        serial, ``-1`` per CPU).  The selected candidate, scores and
        fitted parameters are identical for any value.
    strategy:
        ``"exhaustive"`` (every grid point at full budget) or
        ``"halving"`` (successive halving, 3-4x fewer fit-iterations
        on the paper grid; see :class:`HalvingConfig`).
    halving:
        Schedule knobs for ``strategy="halving"``.
    keep_artifacts:
        ``False`` drops each fitted artifact after scoring (they never
        leave the worker), bounding memory on 630-point searches; use
        :meth:`GridSearchResult.refit_best` to rebuild the winner.
    summarize:
        Optional ``artifact -> dict`` reduced worker-side before the
        artifact is dropped; stored as ``CandidateResult.info``.
    theta_of:
        Optional ``artifact -> ndarray`` extracting the fitted
        parameter vector (default: ``artifact.theta_`` if present).
        Halving warm-starts survivors from it.
    shared:
        Mapping of name -> ndarray broadcast zero-copy to worker
        processes; builds read it via
        :func:`repro.core.executor.get_shared`.
    """

    def __init__(
        self,
        build: Callable[[Dict], object],
        evaluate: Callable[[object], Tuple[float, float]],
        grid: Optional[Iterable[Dict]] = None,
        *,
        n_jobs: Optional[int] = None,
        strategy: str = "exhaustive",
        halving: Optional[HalvingConfig] = None,
        keep_artifacts: bool = True,
        summarize: Optional[Callable[[object], Dict]] = None,
        theta_of: Optional[Callable[[object], Optional[np.ndarray]]] = _default_theta_of,
        shared: Optional[Dict[str, np.ndarray]] = None,
    ):
        if strategy not in TUNING_STRATEGIES:
            raise ValidationError(
                f"strategy must be one of {TUNING_STRATEGIES}, got {strategy!r}"
            )
        self.build = build
        self.evaluate = evaluate
        self.grid = list(grid) if grid is not None else default_hyper_grid()
        if not self.grid:
            raise ValidationError("hyper-parameter grid must not be empty")
        self.n_jobs = n_jobs
        self.strategy = strategy
        self.halving = halving or HalvingConfig()
        self.keep_artifacts = bool(keep_artifacts)
        self.summarize = summarize
        self.theta_of = theta_of
        self.shared = shared

    # ------------------------------------------------------------------

    def run(self) -> GridSearchResult:
        """Execute the search and return every scored candidate."""
        state = {
            "build": self.build,
            "evaluate": self.evaluate,
            "summarize": self.summarize,
            "theta_of": self.theta_of,
        }
        registry = get_registry()
        registry.counter("tuning_searches_total").inc()
        with get_tracer().span(
            "tuning.search", strategy=self.strategy, grid=len(self.grid)
        ), ParallelExecutor(
            _grid_task,
            # A pool wider than the grid would spawn idle workers.
            effective_n_jobs(self.n_jobs, limit=len(self.grid)),
            state=state,
            shared=self.shared,
        ) as executor:
            if (
                self.strategy == "halving"
                and self.halving.n_rungs > 1
                and len(self.grid) > self.halving.min_promote + 1
            ):
                result = self._run_halving(executor)
            else:
                # Halving cannot prune a grid this small — the final
                # rung would hold everything anyway, making the early
                # rungs pure overhead.
                result = self._run_exhaustive(executor)
        registry.counter("tuning_fits_total").inc(result.n_fits)
        result._refit = self._refit_candidate
        return result

    def _refit_candidate(self, params: Dict) -> object:
        """Rebuild one candidate after the search pool is gone.

        Builds read their inputs through the executor context
        (:func:`~repro.core.executor.get_shared` / ``get_state``), so
        the rebuild runs inside a one-shot serial executor carrying
        the same state and shared arrays the search workers saw — a
        bare ``self.build(params)`` call would find an empty context
        (and, after a pooled search, unlinked segments).
        """
        state = {
            "build": self.build,
            "evaluate": self.evaluate,
            "summarize": self.summarize,
            "theta_of": self.theta_of,
        }
        with ParallelExecutor(
            lambda p: self.build(dict(p)),
            None,
            state=state,
            shared=self.shared,
        ) as executor:
            return executor.map([dict(params)])[0]

    def _evaluate_points(
        self,
        executor: ParallelExecutor,
        points: List[Tuple[int, Dict]],
        *,
        keep: bool,
        summarize: bool = True,
    ) -> List[CandidateResult]:
        """Fit/score ``(order, params)`` points; results in input order.

        ``summarize=False`` skips the (possibly expensive) summary
        reduction — early halving rungs exist only to rank candidates,
        and their summaries would be discarded with them.
        """
        payloads = [
            {"order": order, "params": params, "keep": keep, "summarize": summarize}
            for order, params in points
        ]
        rows = executor.map(payloads)
        return [
            CandidateResult(
                params=dict(self.grid[row["order"]]),
                utility=row["utility"],
                fairness=row["fairness"],
                artifact=row["artifact"],
                order=row["order"],
                info=row["info"],
                theta=row["theta"],
            )
            for row in rows
        ]

    def _run_exhaustive(self, executor: ParallelExecutor) -> GridSearchResult:
        points = [(order, params) for order, params in enumerate(self.grid)]
        candidates = self._evaluate_points(
            executor, points, keep=self.keep_artifacts
        )
        return GridSearchResult(
            candidates=candidates,
            strategy="exhaustive",
            n_fits=len(points),
        )

    # ------------------------------------------------------------------
    # successive halving

    def _rung_budget(self, rung: int) -> int:
        """Iteration-budget divisor of an early rung (final rung is 1)."""
        return 2 ** (self.halving.n_rungs - 1 - rung)

    def _rung_params(
        self, order: int, rung: int, thetas: Dict[int, np.ndarray]
    ) -> Dict:
        """Parameters of one candidate at one rung.

        Early rungs shrink the ``max_iter``/``n_restarts`` budget keys
        (when the grid carries them) and warm-start from the previous
        rung; the final rung returns the grid point verbatim, so its
        fits match the exhaustive run's bitwise.
        """
        params = dict(self.grid[order])
        if rung == self.halving.n_rungs - 1:
            return params
        divisor = self._rung_budget(rung)
        if "max_iter" in params:
            params["max_iter"] = max(1, int(math.ceil(params["max_iter"] / divisor)))
        if "n_restarts" in params:
            params["n_restarts"] = 1
        theta = thetas.get(order)
        if self.halving.warm_start and theta is not None:
            params["warm_start_theta"] = theta
        return params

    def _promote(
        self,
        candidates: List[CandidateResult],
        curves: Optional[Dict[int, List[Tuple[float, CandidateResult]]]] = None,
    ) -> List[int]:
        """Orders surviving a rung.

        Union of (a) the top ``promote_fraction`` slice under *each*
        criterion and (b) the (utility, fairness) Pareto front.  Every
        criterion's full-budget winner lies on the front, and front
        membership only depends on the candidates' *ordering* along
        each axis — which low-budget fits preserve far more reliably
        than absolute scores (underfit models drift toward low
        utility / high fairness, shifting the harmonic-mean argmax but
        not who dominates whom).  Promoting the front is what makes
        halving agree with exhaustive search on the seeded benchmark
        configs under all three criteria.

        Under ``promote="extrapolate"`` the per-criterion ranking uses
        the *predicted full-budget* score from each candidate's rung
        learning curve (``curves``) instead of the observed low-budget
        score; the front protection is unchanged (it operates on the
        observed ordering, which extrapolation would only amplify).
        """
        count = max(
            self.halving.min_promote,
            int(math.ceil(self.halving.promote_fraction * len(candidates))),
        )
        extrapolate = self.halving.promote == "extrapolate" and curves is not None
        survivors: set = set()
        for criterion in TuningCriterion:
            if extrapolate:
                predicted = {
                    c.order: predict_full_budget(
                        [(b, cand.score(criterion)) for b, cand in curves[c.order]]
                    )
                    for c in candidates
                }
                key = lambda c: (  # noqa: E731 - mirrors _selection_key
                    _finite_or_neg_inf(predicted[c.order]),
                    _finite_or_neg_inf(c.utility),
                    -c.order,
                )
            else:
                key = lambda c: _selection_key(c, criterion)  # noqa: E731
            ranked = sorted(candidates, key=key, reverse=True)
            survivors.update(c.order for c in ranked[:count])
        points = [[c.utility, c.fairness] for c in candidates]
        if np.all(np.isfinite(points)):
            survivors.update(candidates[i].order for i in pareto_front(points))
        return sorted(survivors)

    def _run_halving(self, executor: ParallelExecutor) -> GridSearchResult:
        config = self.halving
        alive = list(range(len(self.grid)))
        thetas: Dict[int, np.ndarray] = {}
        history: List[Dict] = []
        # Per-candidate (budget_fraction, result) observations across
        # rungs — the learning curves promote="extrapolate" fits.  A
        # warm-started rung *resumes* the previous fit, so its score
        # reflects the cumulative iterations spent on that candidate,
        # not the rung's own slice; recording the raw slice would make
        # every curve look steeper than it is and systematically
        # inflate predicted asymptotes.
        curves: Dict[int, List[Tuple[float, CandidateResult]]] = {
            order: [] for order in alive
        }
        spent: Dict[int, float] = {}
        n_fits = 0
        candidates: List[CandidateResult] = []
        for rung in range(config.n_rungs - 1):
            points = [
                (order, self._rung_params(order, rung, thetas)) for order in alive
            ]
            with get_tracer().span(
                "tuning.rung",
                rung=rung,
                candidates=len(points),
                budget_divisor=self._rung_budget(rung),
            ):
                candidates = self._evaluate_points(
                    executor, points, keep=False, summarize=False
                )
            n_fits += len(points)
            fraction = 1.0 / self._rung_budget(rung)
            for candidate in candidates:
                # Same predicate _rung_params used when building this
                # rung: a candidate resumed from its previous theta
                # has spent its earlier rungs' budget too.
                warm_started = (
                    config.warm_start and thetas.get(candidate.order) is not None
                )
                budget = fraction + (
                    spent.get(candidate.order, 0.0) if warm_started else 0.0
                )
                spent[candidate.order] = budget
                curves[candidate.order].append((budget, candidate))
            promoted = self._promote(candidates, curves)
            history.append(
                {
                    "rung": rung,
                    "budget_divisor": self._rung_budget(rung),
                    "candidates": list(alive),
                    "promoted": promoted,
                    # Cumulative-when-warm-started fraction each
                    # candidate's score corresponds to (the x-axis of
                    # the extrapolation curves).
                    "budget_fraction_spent": {
                        order: spent[order] for order in alive
                    },
                }
            )
            thetas = {c.order: c.theta for c in candidates if c.theta is not None}
            if len(promoted) == len(alive):
                # Promotion is not pruning (tiny grid / generous
                # fraction): further reduced-budget rungs cost fits
                # without shrinking the final rung — skip to it.
                alive = promoted
                break
            alive = promoted
        final_rung = config.n_rungs - 1
        points = [
            (order, self._rung_params(order, final_rung, thetas)) for order in alive
        ]
        with get_tracer().span(
            "tuning.rung",
            rung=final_rung,
            candidates=len(points),
            budget_divisor=1,
        ):
            candidates = self._evaluate_points(
                executor, points, keep=self.keep_artifacts
            )
        n_fits += len(points)
        history.append(
            {
                "rung": final_rung,
                "budget_divisor": 1,
                "candidates": list(alive),
                "promoted": list(alive),
            }
        )
        return GridSearchResult(
            candidates=candidates,
            strategy="halving",
            n_fits=n_fits,
            history=history,
        )
