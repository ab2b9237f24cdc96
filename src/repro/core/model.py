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
from scipy import optimize

from repro.core.executor import (
    POOL_MODES,
    ParallelExecutor,
    effective_n_jobs,
    get_config_token,
    get_shared,
    get_shared_handles,
    get_state,
)
from repro.core.objective import PAIR_MODES, IFairObjective
from repro.core.shards import SHARD_BATCH_MODES, ShardedLandmarkOracle
from repro.exceptions import NotFittedError, ValidationError
from repro.learners.base import ParamsMixin
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import get_tracer
from repro.utils import blas
from repro.utils.landmarks import LANDMARK_METHODS
from repro.utils.mathkit import softmax, weighted_minkowski_to_prototypes
from repro.utils.rng import RandomStateLike, check_random_state, spawn_seeds
from repro.utils.validation import check_matrix, check_protected_indices

RESTART_BACKENDS = ("process", "thread")


@dataclass
class RestartRecord:
    """Outcome of a single optimisation restart (for diagnostics)."""

    seed: int
    loss: float
    n_iterations: int
    converged: bool


# One (model, objective, bounds) triple per worker process: workers
# serve every restart of one fit, so the deterministic objective —
# including its landmark selection and pair precomputations — is
# rebuilt once from the broadcast matrix, not once per task.
_WORKER_FIT_CACHE: dict = {}

# Oracle memo across *consecutive fits* on a session pool: the
# objective (and bounds) are a pure function of (training matrix,
# oracle parameters), so a warm worker refitting the same data — a
# serving refit after tuning, repeated fits in a benchmark — reuses
# the precomputed oracle instead of re-sampling pairs and re-selecting
# landmarks.  Keyed by the broadcast segment *name*, which the arena
# mints content-addressed and never reuses, plus every parameter the
# objective depends on; capped to the two most recent oracles.
_WORKER_ORACLE_CACHE: dict = {}
_ORACLE_CACHE_SIZE = 2

#: Constructor parameters the loss/gradient oracle depends on.  The
#: optimisation knobs (n_restarts, max_iter, tol, warm_start_theta,
#: n_jobs, backend, pool, init, protected_alpha_init) deliberately do
#: not enter the key: they shape the search over the oracle, not the
#: oracle itself.
_ORACLE_PARAM_KEYS = (
    "n_prototypes",
    "lambda_util",
    "mu_fair",
    "p",
    "max_pairs",
    "pair_mode",
    "n_landmarks",
    "landmark_method",
    "random_state",
)


def _oracle_cache_key(state: dict, row_range: Optional[tuple] = None) -> Optional[tuple]:
    """Content-stable cache key for the fit oracle, or None.

    Only available when the training matrix arrived as a shared-memory
    broadcast: the segment name then identifies its bytes (names are
    never reused within a process).  The key also carries the **row
    range** the oracle covers — the full matrix for restart tasks
    (derived from the segment's shape), an explicit ``(start, stop)``
    for row-sharded evaluations — so two oracles over overlapping but
    unequal row ranges of the same segment can never serve each other
    stale precomputations.  Unhashable parameter values (arrays)
    disable caching rather than mis-keying it.
    """
    handle = get_shared_handles().get("X")
    if handle is None:
        return None
    params = state["params"]
    values = tuple(params.get(key) for key in _ORACLE_PARAM_KEYS)
    protected = state["protected"]
    if row_range is None:
        row_range = (0, int(handle.shape[0]))
    key = (
        handle.name,
        (int(row_range[0]), int(row_range[1])),
        None if protected is None else tuple(protected),
        values,
    )
    try:
        hash(key)
    except TypeError:  # pragma: no cover - defensive
        return None
    return key


def _restart_task(payload: Tuple[int, int]) -> Tuple["RestartRecord", np.ndarray]:
    """Executor task: run one restart inside a worker process.

    Reads the training matrix via the executor's shared-memory
    broadcast and the estimator parameters via its state channel, then
    reuses the exact serial code path (:meth:`IFair._run_restart`), so
    parallel fits are bitwise-identical to sequential ones.
    """
    index, seed = payload
    state = get_state()
    # Keyed by the executor's process-unique config token, not
    # ``id(state)``: a session pool serves many consecutive fits, and
    # the allocator may hand a dead state dict's id to the next one.
    key = get_config_token()
    cached = _WORKER_FIT_CACHE.get(key)
    if cached is None:
        _WORKER_FIT_CACHE.clear()  # one fit per config; drop stale entries
        model = IFair(**state["params"])
        X = get_shared()["X"]
        model._protected = check_protected_indices(state["protected"], X.shape[1])
        oracle_key = _oracle_cache_key(state)
        oracle = _WORKER_ORACLE_CACHE.get(oracle_key) if oracle_key else None
        if oracle is not None:
            # A warm worker reusing the memoised oracle across fits —
            # the cache-efficiency signal the session-pool design buys.
            get_registry().counter("fit_oracle_memo_hits_total").inc()
        if oracle is None:
            objective = model._build_objective(X)
            oracle = (objective, model._bounds(objective))
            if oracle_key is not None:
                _WORKER_ORACLE_CACHE[oracle_key] = oracle
                while len(_WORKER_ORACLE_CACHE) > _ORACLE_CACHE_SIZE:
                    _WORKER_ORACLE_CACHE.pop(next(iter(_WORKER_ORACLE_CACHE)))
        cached = (model, *oracle)
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
        ``max_pairs`` is set, else ``"full"``), ``"full"``,
        ``"sampled"``, or ``"landmark"`` — the large-M oracle that
        approximates the full-pair loss through ``n_landmarks``
        anchors in O(M * L * N) per L-BFGS evaluation, for any ``p``,
        with no O(M^2) structure anywhere.
    n_landmarks:
        Anchor count for ``pair_mode="landmark"`` (default
        ``min(M, 128)``; capped at M).
    landmark_method:
        ``"kmeans++"`` (default) or ``"farthest"`` anchor seeding,
        deterministic under ``random_state``.
    n_jobs:
        Number of restarts optimised concurrently.  ``None`` or ``1``
        runs them sequentially; ``-1`` uses one worker per CPU.  The
        selected model is identical to the sequential result for any
        value: the best loss wins, ties broken by seed order.
    backend:
        How parallel restarts run: ``"process"`` (default) forks real
        workers through :class:`repro.core.executor.ParallelExecutor`
        — the training matrix is broadcast zero-copy via shared
        memory and each worker rebuilds the (deterministic) objective
        once — or ``"thread"``, the historical escape hatch for fits
        dominated by GIL-releasing BLAS calls.
    pool:
        ``"per-call"`` (default) spawns a private worker pool for this
        fit; ``"session"`` borrows the persistent broker pool
        (:class:`repro.core.executor.PoolBroker`) and the shm arena
        cache, so repeated fits — serving refits, tuning loops — skip
        the pool spawn, and a matrix already broadcast (e.g. by the
        grid search that chose these hyper-parameters) is reused
        rather than re-published.  The fitted model is bitwise
        identical either way.
    warm_start_theta:
        Optional packed parameter vector ``[V.ravel(), alpha]`` used
        as the first restart's initial point instead of its seeded
        draw (remaining restarts keep their seeds).  This is how
        successive-halving tuning resumes a survivor from its
        previous-rung fit.
    oracle_jobs:
        Workers evaluating **row shards of one oracle call** (the
        large-M axis; requires ``pair_mode="landmark"``).  ``None``/1
        evaluates shards in-process, ``-1`` uses one worker per CPU.
        Mutually exclusive with restart parallelism (``n_jobs``): the
        worker pool serves shards, so restarts run sequentially in the
        parent.  Results are bitwise identical at any value for a
        fixed ``oracle_shards``.
    oracle_shards:
        Number of row-range shards per oracle evaluation (default: the
        resolved ``oracle_jobs`` count).  Fixing it pins the reduction
        tree, making results independent of the worker count.
    batch_mode:
        ``"full"`` (default) evaluates every row per oracle call;
        ``"stochastic"`` draws ``batch_size`` rows per call from
        deterministic spawn-key RNG streams — an unbiased estimate of
        the M/L-scaled landmark loss that reduces exactly to the full
        sharded path at ``batch_size = M``.  Requires
        ``pair_mode="landmark"``.
    batch_size:
        Rows per stochastic oracle call (required for, and only valid
        with, ``batch_mode="stochastic"``).
    random_state:
        Master seed: spawns per-restart seeds, the pair subsample, and
        the stochastic batch streams.

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
    landmarks_:
        Sorted anchor row indices of the training matrix when fitted
        with ``pair_mode="landmark"``, else ``None``.
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
        n_landmarks: Optional[int] = None,
        landmark_method: str = "kmeans++",
        n_jobs: Optional[int] = None,
        backend: str = "process",
        pool: str = "per-call",
        warm_start_theta: Optional[np.ndarray] = None,
        oracle_jobs: Optional[int] = None,
        oracle_shards: Optional[int] = None,
        batch_mode: str = "full",
        batch_size: Optional[int] = None,
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
        if landmark_method not in LANDMARK_METHODS:
            raise ValidationError(
                f"landmark_method must be one of {LANDMARK_METHODS}"
            )
        if n_landmarks is not None and n_landmarks < 1:
            raise ValidationError("n_landmarks must be at least 1")
        if n_jobs is not None and (n_jobs == 0 or n_jobs < -1):
            raise ValidationError("n_jobs must be None, -1, or a positive integer")
        if backend not in RESTART_BACKENDS:
            raise ValidationError(
                f"backend must be one of {RESTART_BACKENDS}, got {backend!r}"
            )
        if pool not in POOL_MODES:
            raise ValidationError(
                f"pool must be one of {POOL_MODES}, got {pool!r}"
            )
        if batch_mode not in SHARD_BATCH_MODES:
            raise ValidationError(
                f"batch_mode must be one of {SHARD_BATCH_MODES}, got {batch_mode!r}"
            )
        if oracle_jobs is not None and (oracle_jobs == 0 or oracle_jobs < -1):
            raise ValidationError(
                "oracle_jobs must be None, -1, or a positive integer"
            )
        if oracle_shards is not None and oracle_shards < 1:
            raise ValidationError("oracle_shards must be at least 1")
        if batch_mode == "stochastic" and batch_size is None:
            raise ValidationError("batch_mode='stochastic' requires batch_size")
        if batch_size is not None:
            if batch_mode != "stochastic":
                raise ValidationError(
                    "batch_size only applies to batch_mode='stochastic'"
                )
            if batch_size < 1:
                raise ValidationError("batch_size must be a positive integer")
        sharded = (
            oracle_jobs is not None
            or oracle_shards is not None
            or batch_mode != "full"
        )
        if sharded and pair_mode != "landmark":
            raise ValidationError(
                "oracle_jobs/oracle_shards/batch_mode require pair_mode='landmark'"
            )
        if sharded and n_jobs is not None and n_jobs != 1:
            raise ValidationError(
                "the sharded oracle owns the worker pool: restart "
                "parallelism (n_jobs) cannot combine with "
                "oracle_jobs/oracle_shards/batch_mode"
            )
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
        self.n_landmarks = n_landmarks
        self.landmark_method = landmark_method
        self.n_jobs = n_jobs
        self.backend = backend
        self.pool = pool
        self.warm_start_theta = (
            None
            if warm_start_theta is None
            else np.asarray(warm_start_theta, dtype=np.float64).ravel()
        )
        self.oracle_jobs = oracle_jobs
        self.oracle_shards = oracle_shards
        self.batch_mode = batch_mode
        self.batch_size = None if batch_size is None else int(batch_size)
        self.random_state = random_state

        self.prototypes_: Optional[np.ndarray] = None
        self.alpha_: Optional[np.ndarray] = None
        self.loss_: float = np.inf
        self.restarts_: List[RestartRecord] = []
        self.landmarks_: Optional[np.ndarray] = None
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
        use_process = workers > 1 and self.backend == "process"
        get_registry().counter("fit_total").inc()
        with get_tracer().span(
            "fit",
            n_records=int(X.shape[0]),
            n_restarts=self.n_restarts,
            backend=self.backend if workers > 1 else "serial",
        ), blas.limit(1):
            return self._fit_inner(X, workers, use_process)

    def _uses_sharded_oracle(self) -> bool:
        """Whether this fit evaluates the oracle through row shards."""
        return self.pair_mode == "landmark" and (
            self.oracle_jobs is not None
            or self.oracle_shards is not None
            or self.batch_mode != "full"
        )

    def _fit_inner(
        self, X: np.ndarray, workers: int, use_process: bool
    ) -> "IFair":
        sharded = self._uses_sharded_oracle()
        # The process path never evaluates the oracle parent-side:
        # construct it deferred (validation and shape bookkeeping only)
        # and let the workers build — or reuse from their cache — the
        # expensive support structures.  Serial and thread paths
        # optimise this very object, so they precompute as always.
        # The sharded path also defers: the oracle coordinator builds
        # its own (shard-shaped) support, never the objective's.
        objective = self._build_objective(
            X, precompute=not (use_process or sharded)
        )
        self.landmarks_ = objective.landmark_indices
        seeds = spawn_seeds(self.random_state, self.n_restarts)
        bounds = self._bounds(objective)
        if self.warm_start_theta is not None and (
            self.warm_start_theta.size != objective.n_params
        ):
            raise ValidationError(
                f"warm_start_theta must have {objective.n_params} entries, "
                f"got {self.warm_start_theta.size}"
            )
        if sharded:
            outcomes = self._restarts_sharded(objective, bounds, seeds)
        elif use_process:
            outcomes = self._restarts_process(objective.X, seeds, workers)
        elif workers > 1:
            # Thread escape hatch: the objective's workspace buffers
            # are thread-local, so one shared oracle is safe; only
            # worthwhile when BLAS (which releases the GIL) dominates.
            with ParallelExecutor(
                lambda task: self._run_restart(objective, bounds, task[1], index=task[0]),
                workers,
                backend="thread",
            ) as pool:
                outcomes = pool.map(list(enumerate(seeds)))
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
            n_landmarks=self.n_landmarks,
            landmark_method=self.landmark_method,
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

    def _restarts_sharded(
        self, objective: IFairObjective, bounds, seeds: List[int]
    ) -> List[Tuple[RestartRecord, np.ndarray]]:
        """Run restarts sequentially over the sharded landmark oracle.

        The worker pool (``oracle_jobs``) parallelises *within* each
        L-BFGS evaluation — row shards of one oracle call — so the
        restarts themselves run in the parent.  The oracle's batch
        stream rewinds before every restart, making each restart (and
        therefore the best-of-N selection) independent of how many
        restarts ran before it.
        """
        get_registry().counter("fit_sharded_total").inc()
        oracle = ShardedLandmarkOracle(
            objective,
            n_shards=self.oracle_shards,
            n_jobs=self.oracle_jobs,
            pool=self.pool,
            batch_mode=self.batch_mode,
            batch_size=self.batch_size,
            random_state=self.random_state,
        )
        with oracle:
            outcomes = []
            for index, seed in enumerate(seeds):
                oracle.reset_batches()
                outcomes.append(
                    self._run_restart(oracle, bounds, seed, index=index)
                )
        return outcomes

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
            pool=self.pool,
        ) as pool:
            return pool.map(list(enumerate(seeds)))

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

        Notes
        -----
        Under ``pair_mode="landmark"`` an explicit ``n_landmarks``
        larger than the current window is capped at the window size for
        the refit (anchors are rows of the window), without mutating
        the configured parameter.
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
        saved_landmarks = self.n_landmarks
        if self.prototypes_ is not None and self.alpha_ is not None:
            self.warm_start_theta = self.theta_
        if (
            self.pair_mode == "landmark"
            and self.n_landmarks is not None
            and self.n_landmarks > W.shape[0]
        ):
            self.n_landmarks = W.shape[0]
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
            self.n_landmarks = saved_landmarks
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
            result = optimize.minimize(
                objective.loss_and_grad,
                theta0,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": self.max_iter, "gtol": self.tol},
            )
        registry = get_registry()
        registry.counter("fit_restarts_total").inc()
        registry.counter("fit_lbfgs_iterations_total").inc(int(result.nit))
        record = RestartRecord(
            seed=seed,
            loss=float(result.fun),
            n_iterations=int(result.nit),
            converged=bool(result.success),
        )
        return record, result.x

    def _bounds(self, objective: IFairObjective):
        """V unbounded; alpha constrained non-negative."""
        n_v = objective.n_prototypes * objective.n_features
        return [(None, None)] * n_v + [(0.0, None)] * objective.n_features

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
