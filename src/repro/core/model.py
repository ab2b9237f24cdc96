"""The iFair estimator: learn prototypes + weights, transform records.

Implements Section III of the paper: the probabilistic-clustering
representation (Definitions 2, 3, 8), trained by L-BFGS on the combined
objective (Section III-C), with the two initialisation schemes compared
in the experiments:

* ``init='random'`` — iFair-a: every parameter uniform in (0, 1);
* ``init='protected_zero'`` — iFair-b: protected attribute weights
  start near zero, reflecting that protected attributes should not
  drive similarity.

Following Section V-B ("we report the results from the best of 3
runs"), ``n_restarts`` controls multi-start optimisation and the fit
keeps the restart with the lowest training loss.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.executor import (
    ParallelExecutor,
    effective_n_jobs,
    get_config_token,
    get_shared,
    get_state,
)
from repro.core.objective import PAIR_MODES, IFairObjective
from repro.exceptions import NotFittedError, ValidationError
from repro.learners.base import ParamsMixin
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import get_tracer
from repro.utils import blas
from repro.utils.mathkit import softmax, weighted_minkowski_to_prototypes
from repro.utils.rng import RandomStateLike, check_random_state, spawn_seeds
from repro.utils.validation import check_matrix, check_protected_indices


@dataclass
class RestartRecord:
    """Outcome of a single optimisation restart (for diagnostics).

    ``stop_reason`` says why L-BFGS-B stopped: ``"gtol"`` (projected
    gradient below ``tol``), ``"ftol"`` (relative loss reduction below
    scipy's factr), ``"maxiter"`` (iteration or evaluation budget spent)
    or ``"abnormal"`` (e.g. a line search that could not progress).
    """

    seed: int
    loss: float
    n_iterations: int
    converged: bool
    stop_reason: str = "unknown"


def _stop_reason(result) -> str:
    """The :attr:`RestartRecord.stop_reason` of a scipy L-BFGS-B result."""
    if result.status == 0:
        return "gtol" if "PROJECTED GRADIENT" in str(result.message) else "ftol"
    return "maxiter" if result.status == 1 else "abnormal"


# One (model, objective, bounds) triple per worker process: workers
# serve every restart of one fit, so the deterministic objective —
# including its pair precomputations — is rebuilt once from the
# broadcast matrix, not once per task.  Keyed by the executor's
# process-unique token, so one executor's entry never serves another's
# tasks.
_WORKER_FIT_CACHE: dict = {}


def _restart_task(payload: Tuple[int, int]) -> Tuple["RestartRecord", np.ndarray]:
    """Executor task: run one restart inside a worker process.

    Reads the training matrix via the executor's shared-memory
    broadcast and the estimator parameters via its state channel, then
    reuses the exact serial code path (:meth:`IFair._run_restart`), so
    parallel fits are bitwise-identical to sequential ones.
    """
    index, seed = payload
    state = get_state()
    key = get_config_token()
    cached = _WORKER_FIT_CACHE.get(key)
    if cached is None:
        _WORKER_FIT_CACHE.clear()  # one fit per executor; drop stale entries
        model = IFair(**state["params"])
        X = get_shared()["X"]
        model._protected = check_protected_indices(state["protected"], X.shape[1])
        objective = model._build_objective(X)
        cached = (model, objective, model._bounds(objective))
        _WORKER_FIT_CACHE[key] = cached
    model, objective, bounds = cached
    return model._run_restart(objective, bounds, seed, index=index)


class IFair(ParamsMixin):
    """Individually fair representation learner.

    Parameters
    ----------
    n_prototypes:
        K, the dimensionality of the probabilistic clustering.
    lambda_util:
        Weight of the reconstruction (utility) loss.
    mu_fair:
        Weight of the pairwise distance-preservation (fairness) loss.
    p:
        Minkowski exponent of the record-prototype distance.
    init:
        ``'random'`` (iFair-a) or ``'protected_zero'`` (iFair-b).
    protected_alpha_init:
        Starting value of protected attribute weights under
        ``'protected_zero'`` (near zero, not exactly zero, to leave
        numerical slack — Section V-B).
    n_restarts:
        Number of random restarts; the best training loss wins.
    max_iter:
        L-BFGS iteration budget per restart.
    tol:
        L-BFGS gradient tolerance.
    max_pairs:
        Optional cap on fairness-loss pairs (subsampled once per fit).
    pair_mode:
        Fairness-oracle mode: ``"auto"`` (default; ``"sampled"`` iff
        ``max_pairs`` is set, else ``"full"``), ``"full"`` (the exact
        ordered-pair sum, O(M * K * (N + K)) per L-BFGS evaluation at
        any ``p``, no O(M^2) structure) or ``"sampled"``.
    n_jobs:
        Number of restarts optimised concurrently.  ``None`` or ``1``
        runs them sequentially; ``-1`` uses one worker per CPU.  More
        than one worker forks real processes through
        :class:`repro.core.executor.ParallelExecutor`: the training
        matrix is broadcast zero-copy via shared memory and each worker
        rebuilds the (deterministic) objective once.  The selected
        model is identical to the sequential result for any value: the
        best loss wins, ties broken by seed order.
    warm_start_theta:
        Optional packed parameter vector ``[V.ravel(), alpha]`` used
        as the first restart's initial point instead of its seeded
        draw (remaining restarts keep their seeds).  This is how
        successive-halving tuning resumes a survivor from its
        previous-rung fit.
    random_state:
        Master seed: spawns per-restart seeds and the pair subsample.

    Attributes
    ----------
    prototypes_:
        Learned V, shape (K, N).
    alpha_:
        Learned attribute weights, shape (N,).
    loss_:
        Best training loss.
    restarts_:
        Per-restart diagnostics.
    """

    def __init__(
        self,
        n_prototypes: int = 10,
        lambda_util: float = 1.0,
        mu_fair: float = 1.0,
        *,
        p: float = 2.0,
        init: str = "protected_zero",
        protected_alpha_init: float = 1e-3,
        n_restarts: int = 3,
        max_iter: int = 200,
        tol: float = 1e-6,
        max_pairs: Optional[int] = None,
        pair_mode: str = "auto",
        n_jobs: Optional[int] = None,
        warm_start_theta: Optional[np.ndarray] = None,
        random_state: RandomStateLike = 0,
    ):
        if init not in ("random", "protected_zero"):
            raise ValidationError("init must be 'random' or 'protected_zero'")
        if n_restarts < 1:
            raise ValidationError("n_restarts must be at least 1")
        if not 0 < protected_alpha_init < 1:
            raise ValidationError("protected_alpha_init must lie in (0, 1)")
        if pair_mode not in PAIR_MODES:
            raise ValidationError(f"pair_mode must be one of {PAIR_MODES}")
        if n_jobs is not None and (n_jobs == 0 or n_jobs < -1):
            raise ValidationError("n_jobs must be None, -1, or a positive integer")
        self.n_prototypes = int(n_prototypes)
        self.lambda_util = float(lambda_util)
        self.mu_fair = float(mu_fair)
        self.p = float(p)
        self.init = init
        self.protected_alpha_init = float(protected_alpha_init)
        self.n_restarts = int(n_restarts)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.max_pairs = max_pairs
        self.pair_mode = pair_mode
        self.n_jobs = n_jobs
        self.warm_start_theta = (
            None
            if warm_start_theta is None
            else np.asarray(warm_start_theta, dtype=np.float64).ravel()
        )
        self.random_state = random_state

        self.prototypes_: Optional[np.ndarray] = None
        self.alpha_: Optional[np.ndarray] = None
        self.loss_: float = np.inf
        self.restarts_: List[RestartRecord] = []
        self.n_partial_fits_: int = 0
        self._protected: Optional[np.ndarray] = None
        self._window: Optional[deque] = None

    # ------------------------------------------------------------------

    def fit(self, X, protected_indices=None) -> "IFair":
        """Learn prototypes and attribute weights from ``X``.

        Parameters
        ----------
        X:
            Training records (already encoded/scaled), shape (M, N).
        protected_indices:
            Columns of ``X`` holding protected attributes.  They are
            excluded from the fairness target distances and, for
            iFair-b, initialised with near-zero weights.

        The fit runs at one BLAS thread in every process it uses
        (:mod:`repro.utils.blas`) and restores the caller's count.
        """
        X = check_matrix(X, "X", min_rows=2)
        self._protected = check_protected_indices(protected_indices, X.shape[1])
        workers = self._n_workers()
        get_registry().counter("fit_total").inc()
        with get_tracer().span(
            "fit",
            n_records=int(X.shape[0]),
            n_restarts=self.n_restarts,
            backend="process" if workers > 1 else "serial",
        ), blas.limit(1):
            return self._fit_inner(X, workers)

    def _fit_inner(self, X: np.ndarray, workers: int) -> "IFair":
        # The process path never evaluates the oracle parent-side:
        # construct it deferred (validation and shape bookkeeping only)
        # and let the workers build — or reuse from their cache — the
        # expensive support structures.  The serial path optimises this
        # very object, so it precomputes as always.
        use_process = workers > 1
        objective = self._build_objective(X, precompute=not use_process)
        seeds = spawn_seeds(self.random_state, self.n_restarts)
        bounds = self._bounds(objective)
        if self.warm_start_theta is not None and (
            self.warm_start_theta.size != objective.n_params
        ):
            raise ValidationError(
                f"warm_start_theta must have {objective.n_params} entries, "
                f"got {self.warm_start_theta.size}"
            )
        if use_process:
            outcomes = self._restarts_process(objective.X, seeds, workers)
        else:
            outcomes = [
                self._run_restart(objective, bounds, seed, index=index)
                for index, seed in enumerate(seeds)
            ]

        # Deterministic best-of-N selection, independent of completion
        # order: strict improvement in seed order breaks ties in favour
        # of the earliest seed — exactly the sequential semantics.
        best_loss = np.inf
        best_theta: Optional[np.ndarray] = None
        self.restarts_ = []
        for record, theta in outcomes:
            self.restarts_.append(record)
            if record.loss < best_loss:
                best_loss = record.loss
                best_theta = theta
        if best_theta is None:  # pragma: no cover - L-BFGS always returns x
            raise NotFittedError("optimisation produced no parameters")
        self.prototypes_, self.alpha_ = objective.unpack(best_theta)
        self.loss_ = best_loss
        return self

    def _build_objective(
        self, X: np.ndarray, *, precompute: bool = True
    ) -> IFairObjective:
        """The loss/gradient oracle for ``X`` under this configuration.

        Deterministic in (X, constructor params): executor workers
        rebuild it from the shared-memory broadcast and optimise the
        exact oracle the serial path does.  ``precompute=False``
        validates and sizes the oracle without building its support
        structures — the parent side of a process-parallel fit, which
        never evaluates the loss itself.
        """
        return IFairObjective(
            X,
            self._protected,
            lambda_util=self.lambda_util,
            mu_fair=self.mu_fair,
            n_prototypes=self.n_prototypes,
            p=self.p,
            max_pairs=self.max_pairs,
            pair_mode=self.pair_mode,
            random_state=self.random_state,
            precompute=precompute,
        )

    def _n_workers(self) -> int:
        """Resolve ``n_jobs`` into a concrete worker count for this fit.

        Collapses to 1 inside an executor worker (nested pools would
        oversubscribe the machine — a parallel grid search over
        parallel fits runs the outer level wide, the inner serial).
        """
        return effective_n_jobs(self.n_jobs, limit=self.n_restarts)

    def _restarts_process(
        self, X: np.ndarray, seeds: List[int], workers: int
    ) -> List[Tuple[RestartRecord, np.ndarray]]:
        """Run restarts on a process pool with a shared-memory ``X``.

        Each worker rebuilds the objective once from the broadcast
        matrix and the constructor parameters (both deterministic, so
        every worker optimises the exact oracle the serial path does)
        and then serves any number of restart tasks; results reduce in
        seed order, making the selected model bitwise-identical to the
        sequential fit.
        """
        state = {
            "params": self.get_params(),
            "protected": None if self._protected is None else list(self._protected),
        }
        with ParallelExecutor(
            _restart_task,
            workers,
            state=state,
            shared={"X": X},
        ) as executor:
            return executor.map(list(enumerate(seeds)))

    # get_params/set_params come from ParamsMixin: constructor-argument
    # introspection yields exactly the historical explicit dict (every
    # __init__ argument is stored under its own name), so the executor
    # worker-state channel and the artifact manifest see an unchanged
    # contract.

    def partial_fit(
        self,
        X_increment,
        protected_indices=None,
        *,
        window_size: int = 2048,
    ) -> "IFair":
        """Warm-started incremental refit over a sliding window.

        Appends ``X_increment`` to a bounded buffer of the most recent
        ``window_size`` rows and refits over that window, starting the
        first restart from the current ``theta_`` (when fitted) so the
        optimiser resumes rather than restarts.  Refit cost is
        O(window), not O(total stream), and the result is exactly what
        ``IFair(**params, warm_start_theta=theta).fit(window)`` would
        produce — bitwise, which is what pins the online serving path
        to the offline semantics.

        Parameters
        ----------
        X_increment:
            New rows (already encoded/scaled), shape (m, N); a single
            row is fine.  Until the buffer holds at least 2 rows the
            refit is deferred (the optimiser needs pairs) and the call
            only buffers.
        protected_indices:
            Protected columns; defaults to the previous fit's.
        window_size:
            Buffer bound.  Growing or shrinking it between calls keeps
            the most recent rows.
        """
        X = check_matrix(X_increment, "X_increment", min_rows=1)
        window_size = int(window_size)
        if window_size < 2:
            raise ValidationError("window_size must be at least 2")
        if self.prototypes_ is not None and X.shape[1] != self.prototypes_.shape[1]:
            raise ValidationError(
                f"X_increment has {X.shape[1]} features, model was fitted "
                f"with {self.prototypes_.shape[1]}"
            )
        if self._window is None:
            self._window = deque(maxlen=window_size)
        elif self._window.maxlen != window_size:
            self._window = deque(self._window, maxlen=window_size)
        if self._window and self._window[0].shape[0] != X.shape[1]:
            raise ValidationError(
                f"X_increment has {X.shape[1]} features, the window holds "
                f"rows with {self._window[0].shape[0]}"
            )
        for row in X:
            self._window.append(row)
        if len(self._window) < 2:
            return self  # refit deferred until the window can pair rows
        if protected_indices is None and self._protected is not None:
            protected_indices = list(self._protected)
        W = np.asarray(self._window, dtype=np.float64)
        saved_warm = self.warm_start_theta
        if self.prototypes_ is not None and self.alpha_ is not None:
            self.warm_start_theta = self.theta_
        get_registry().counter("partial_fit_total").inc()
        try:
            with get_tracer().span(
                "partial_fit",
                n_new=int(X.shape[0]),
                n_window=int(W.shape[0]),
            ):
                self.fit(W, protected_indices)
        finally:
            self.warm_start_theta = saved_warm
        self.n_partial_fits_ += 1
        return self

    @property
    def n_buffered(self) -> int:
        """Rows currently held in the ``partial_fit`` window."""
        return 0 if self._window is None else len(self._window)

    def _run_restart(
        self, objective: IFairObjective, bounds, seed: int, *, index: int = -1
    ) -> Tuple[RestartRecord, np.ndarray]:
        """Optimise from one seeded initialisation; thread-safe.

        ``index`` identifies the restart within the fit: restart 0
        starts from ``warm_start_theta`` when one was given.
        """
        theta0 = self._initial_theta(objective, seed, index=index)
        with get_tracer().span("fit.restart", seed=int(seed), index=index):
            result = blas.import_scipy("optimize").minimize(
                objective.loss_and_grad,
                theta0,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": self.max_iter, "gtol": self.tol},
            )
        stop_reason = _stop_reason(result)
        registry = get_registry()
        registry.counter("fit_restarts_total").inc()
        registry.counter("fit_lbfgs_iterations_total").inc(int(result.nit))
        registry.counter("fit_restart_stops_total", {"reason": stop_reason}).inc()
        record = RestartRecord(
            seed=seed,
            loss=float(result.fun),
            n_iterations=int(result.nit),
            converged=bool(result.success),
            stop_reason=stop_reason,
        )
        return record, result.x

    def _bounds(self, objective: IFairObjective):
        """V unbounded; alpha constrained non-negative."""
        n_v = objective.n_prototypes * objective.n_features
        lower = np.concatenate([np.full(n_v, -np.inf), np.zeros(objective.n_features)])
        return blas.import_scipy("optimize").Bounds(lower, np.inf)

    def _initial_theta(
        self, objective: IFairObjective, seed: int, *, index: int = -1
    ) -> np.ndarray:
        if index == 0 and self.warm_start_theta is not None:
            return self.warm_start_theta.copy()
        rng = check_random_state(seed)
        V0 = rng.uniform(0.0, 1.0, size=(objective.n_prototypes, objective.n_features))
        alpha0 = rng.uniform(0.0, 1.0, size=objective.n_features)
        if self.init == "protected_zero":
            alpha0[objective.protected] = self.protected_alpha_init
        return objective.pack(V0, alpha0)

    # ------------------------------------------------------------------

    def _check_fitted(self) -> None:
        if self.prototypes_ is None or self.alpha_ is None:
            raise NotFittedError("IFair must be fitted before transforming data")

    @property
    def theta_(self) -> np.ndarray:
        """Fitted packed parameter vector ``[V.ravel(), alpha]``.

        The vector accepted back by ``warm_start_theta`` — successive
        halving resumes survivors from it across rungs.
        """
        self._check_fitted()
        return np.concatenate([self.prototypes_.ravel(), self.alpha_])

    def memberships(
        self,
        X,
        *,
        batch_size: Optional[int] = None,
        validate: bool = True,
    ) -> np.ndarray:
        """Per-record prototype probabilities u_i (Definition 8).

        Parameters
        ----------
        X:
            Records to evaluate, shape (M, N).
        batch_size:
            Evaluate at most this many rows at a time.  The intermediate
            record-prototype difference tensor has shape
            ``(batch, K, N)``; chunking keeps it bounded for large M
            (e.g. at serving time) while remaining exactly equal to the
            unchunked result, because each row's memberships depend only
            on that row.
        validate:
            Skip the input checks (finite values, shape) when the
            caller already performed them — the serving engine's
            single-record hot path validates once at ingestion and
            must not pay the full-matrix scan twice per request.
        """
        self._check_fitted()
        if validate:
            X = check_matrix(X, "X")
        else:
            X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.prototypes_.shape[1]:
            raise ValidationError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.prototypes_.shape[1]}"
            )
        if batch_size is not None:
            batch_size = int(batch_size)
            if batch_size < 1:
                raise ValidationError("batch_size must be a positive integer")
        if batch_size is None or X.shape[0] <= batch_size:
            return self._memberships_block(X)
        out = np.empty((X.shape[0], self.prototypes_.shape[0]))
        for start in range(0, X.shape[0], batch_size):
            stop = start + batch_size
            out[start:stop] = self._memberships_block(X[start:stop])
        return out

    def _memberships_block(self, X: np.ndarray) -> np.ndarray:
        # Row-stable kernel (no (batch, K, N) tensor for p == 2): each
        # row's distances are independent of the batch height, which
        # keeps chunked evaluation bitwise equal to one-shot.
        d = weighted_minkowski_to_prototypes(X, self.prototypes_, self.alpha_, p=self.p)
        return softmax(-d, axis=1)

    def transform(
        self,
        X,
        *,
        batch_size: Optional[int] = None,
        validate: bool = True,
    ) -> np.ndarray:
        """Apply the learned mapping phi (Definition 3) to records."""
        return (
            self.memberships(X, batch_size=batch_size, validate=validate)
            @ self.prototypes_
        )

    def fit_transform(self, X, protected_indices=None) -> np.ndarray:
        """Fit on ``X`` and return its transformed representation."""
        return self.fit(X, protected_indices).transform(X)

    def reconstruction_error(self, X) -> float:
        """Mean squared reconstruction error of ``X`` under the mapping."""
        X = check_matrix(X, "X")
        X_tilde = self.transform(X)
        return float(np.mean((X - X_tilde) ** 2))

    def __repr__(self) -> str:
        return (
            f"IFair(n_prototypes={self.n_prototypes}, lambda_util={self.lambda_util}, "
            f"mu_fair={self.mu_fair}, init={self.init!r})"
        )
