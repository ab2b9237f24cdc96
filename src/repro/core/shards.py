r"""Sharded + stochastic landmark oracle: train at M in the millions.

The landmark fairness oracle (:class:`repro.utils.kernels.LandmarkFairness`)
made one L-BFGS evaluation O(M * L * N), but the single-process
objective still walks all M rows on one core per call.  This module
splits the per-row work into **row-range shards** evaluated on the
process executor's workers and reduces the partial results in the
parent — deterministically.

Decomposition
-------------
The landmark objective is a sum of independent per-row terms plus one
coupling through the anchors (anchors move with the transform).  With
:math:`E = \tilde D_{:,anchors} - D^*` and ``w = M / L``:

.. math::

    L &= \lambda \sum_i \|\tilde x_i - x_i\|^2
         + \mu w \sum_i \sum_l E_{il}^2, \\
    \frac{\partial L}{\partial \tilde x_i}
      &= 2 \lambda (\tilde x_i - x_i)
         + 4 \mu w \bigl(r_i \tilde x_i - (E A)_i\bigr)
      \quad\text{(row role, separable over shards)}, \\
    \frac{\partial L}{\partial \tilde a_l}
      &\mathrel{+}= -4 \mu w \bigl((E^T \tilde X)_l - c_l \tilde a_l\bigr)
      \quad\text{(anchor role, needs global moments)}.

Each shard therefore returns its per-row loss terms, the backward of
its row-role gradient through the softmax clustering, and the raw
anchor moments :math:`E^T \tilde X` (L, N) and column sums (L,).  The
parent reduces every field with a **fixed-order Neumaier-compensated
tree reduction** (:func:`repro.utils.kernels.neumaier_tree_reduce`) —
the tree shape depends only on the shard plan, never on worker
scheduling — then back-propagates the anchor-role gradient through the
L anchor rows itself (an O(L * K * N) epilogue).  Because the backward
pass is linear in :math:`\partial L / \partial \tilde X`, the split
is exact algebra; the property suite pins it to the single-process
oracle at rtol 1e-10 and pins the sharded path to *itself* bitwise
across ``n_jobs`` in {1, 2, 4}.

Stochastic mode
---------------
``batch_mode="stochastic"`` evaluates an unbiased mini-batch estimate:
call ``t`` draws rows from an epoch permutation generated by
``np.random.SeedSequence(seed, spawn_key=(epoch,))`` — a spawn-key
stream, so the batch depends only on the call index and the seed,
never on worker identity or count — and scales both loss terms by
``M / batch``.  Over one epoch with ``batch_size`` dividing M the
per-batch gradients average to the full gradient *exactly* (in real
arithmetic; rtol 1e-8 in float), and a batch that covers every row is
detected and routed through the literal full sharded path, so
``batch_size=M`` is bitwise-equal to ``batch_mode="full"``.

Worker-side support memo
------------------------
Workers memoise the expensive per-segment support (the non-protected
column copy, anchor rows, row squared norms) keyed on ``(segment
name, protected columns, anchor set, p)`` and, inside
that, the fixed fairness target ``D*`` **per row range** — so two
consecutive fits over the same broadcast with different shard plans
can never serve each other stale rows (the stale-memo hazard the
regression tests in ``tests/stress/test_shard_faults.py`` cover).

Fault injection
---------------
Setting ``REPRO_SHARD_FAULT`` to ``"<shard_id>:<path>"`` makes the
worker that picks up that shard remove ``path`` and die via
``os._exit`` while the file exists — a one-shot crash hook for the
stress tests, which assert that the executor's crash-respawn path
retries the shard on a fresh worker and the refitted theta is
bitwise identical.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.executor import (
    POOL_MODES,
    ParallelExecutor,
    effective_n_jobs,
    get_shared,
    get_shared_handles,
    get_state,
    in_worker,
)
from repro.exceptions import ValidationError
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import get_tracer
from repro.utils import blas, kernels
from repro.utils.mathkit import softmax

__all__ = [
    "SHARD_BATCH_MODES",
    "plan_shards",
    "ShardedLandmarkOracle",
]

SHARD_BATCH_MODES = ("full", "stochastic")

#: Environment hook of the fault-injection tests (see module docstring).
FAULT_ENV = "REPRO_SHARD_FAULT"

# Worker-side support memo: one entry per (segment, oracle params) —
# see module docstring.  Capped like the model-level oracle memo.
_SUPPORT_CACHE: dict = {}
_SUPPORT_CACHE_SIZE = 2

#: Cached D* row ranges per support entry; bounds memory when many
#: different shard plans hit the same broadcast.
_D_STAR_RANGE_CACHE_SIZE = 64


def plan_shards(n_rows: int, n_shards: int) -> Tuple[Tuple[int, int], ...]:
    """Contiguous row ranges covering ``[0, n_rows)`` in plan order.

    Ranges follow ``np.array_split`` semantics: the first
    ``n_rows % n_shards`` shards get one extra row, and when
    ``n_shards > n_rows`` the tail shards are empty — both shapes the
    evaluation and reduction handle explicitly (an empty shard
    contributes exact zeros), so any plan is safe.
    """
    n_rows = int(n_rows)
    n_shards = int(n_shards)
    if n_rows < 0:
        raise ValidationError("n_rows must be non-negative")
    if n_shards < 1:
        raise ValidationError("n_shards must be at least 1")
    base, extra = divmod(n_rows, n_shards)
    plan: List[Tuple[int, int]] = []
    start = 0
    for shard in range(n_shards):
        stop = start + base + (1 if shard < extra else 0)
        plan.append((start, stop))
        start = stop
    return tuple(plan)


def _check_plan(plan: Sequence[Tuple[int, int]], n_rows: int) -> Tuple[Tuple[int, int], ...]:
    """Validate an explicit shard plan: contiguous cover of [0, n_rows)."""
    checked: List[Tuple[int, int]] = []
    cursor = 0
    for bounds in plan:
        start, stop = int(bounds[0]), int(bounds[1])
        if start != cursor or stop < start:
            raise ValidationError(
                f"shard plan must tile [0, {n_rows}) contiguously; "
                f"got range ({start}, {stop}) at offset {cursor}"
            )
        checked.append((start, stop))
        cursor = stop
    if cursor != n_rows:
        raise ValidationError(
            f"shard plan covers [0, {cursor}), expected [0, {n_rows})"
        )
    if not checked:
        raise ValidationError("shard plan needs at least one range")
    return tuple(checked)


class _ShardSupport:
    """Theta-independent per-matrix support shared by every shard call.

    Built once per (broadcast segment, oracle params) worker-side — or
    once per oracle parent-side — and reused across all L-BFGS
    evaluations: the non-protected column copy, the anchor raw rows,
    the per-row squared norms of the fairness target space, and a
    bounded cache of ``D*`` row ranges.
    """

    def __init__(self, X: np.ndarray, nonprotected: np.ndarray, anchor_idx: np.ndarray):
        self.X = X
        self.anchor_idx = anchor_idx
        self.X_star = np.ascontiguousarray(X[:, nonprotected])
        self.A_star = np.ascontiguousarray(self.X_star[anchor_idx])
        # Row squared norms on the fairness target space: the only
        # O(M) precompute D* slices need beyond a slice GEMM.
        self.aa_star = np.einsum("mn,mn->m", self.X_star, self.X_star)
        self.a_anchor_star = self.aa_star[anchor_idx]
        self.anchors_X = np.ascontiguousarray(X[anchor_idx])
        self.anchors_X_sq = self.anchors_X * self.anchors_X  # read at p = 2
        self._d_star_ranges: Dict[Tuple[int, int], np.ndarray] = {}

    def _d_star_block(self, X_star_rows: np.ndarray, aa_rows: np.ndarray) -> np.ndarray:
        """``D*`` between the given rows and every anchor, clipped at 0."""
        d_star = X_star_rows @ self.A_star.T
        d_star *= -2.0
        d_star += aa_rows[:, None]
        d_star += self.a_anchor_star[None, :]
        np.maximum(d_star, 0.0, out=d_star)
        return d_star

    def d_star_range(self, start: int, stop: int) -> np.ndarray:
        """Memoised fixed fairness target for one row range."""
        key = (start, stop)
        cached = self._d_star_ranges.get(key)
        if cached is None:
            cached = self._d_star_block(
                self.X_star[start:stop], self.aa_star[start:stop]
            )
            self._d_star_ranges[key] = cached
            while len(self._d_star_ranges) > _D_STAR_RANGE_CACHE_SIZE:
                self._d_star_ranges.pop(next(iter(self._d_star_ranges)))
        return cached

    def d_star_rows(self, rows: np.ndarray, X_star_rows: np.ndarray) -> np.ndarray:
        """Fixed fairness target for a stochastic row sample (uncached)."""
        return self._d_star_block(X_star_rows, self.aa_star[rows])


def _anchor_forward(
    support: _ShardSupport,
    V: np.ndarray,
    alpha: np.ndarray,
    p: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U_anchor, A_tilde, per-anchor squared norms) at the current theta.

    Shared verbatim by shard workers and the parent's anchor-role
    epilogue, so both sides see bitwise-identical anchor
    representations.
    """
    d = kernels.minkowski_dists(support.anchors_X, V, alpha, p, x_sq=support.anchors_X_sq)
    U = softmax(-d, axis=1)
    A_tilde = U @ V
    a_anchor = np.einsum("ln,ln->l", A_tilde, A_tilde)
    return U, A_tilde, a_anchor


def _zero_partial(k: int, n: int, n_anchors: int) -> tuple:
    """The exact partial an empty shard contributes."""
    return (
        0.0,
        0.0,
        np.zeros((k, n), dtype=np.float64),
        np.zeros(n, dtype=np.float64),
        np.zeros(n_anchors, dtype=np.float64),
        np.zeros((n_anchors, n), dtype=np.float64),
    )


def _eval_shard(
    support: _ShardSupport,
    V: np.ndarray,
    alpha: np.ndarray,
    spec: tuple,
    *,
    p: float,
    lam_ws: float,
    mu_w_ws: float,
) -> tuple:
    """One shard's contribution to the landmark loss and gradient.

    ``spec`` is ``("range", start, stop)`` (full mode: a contiguous
    slice of the broadcast matrix, with a memoised ``D*``) or
    ``("rows", rows)`` (stochastic mode: a sorted row sample whose
    ``D*`` is built on the fly from the memoised row norms).

    Returns raw per-shard partials
    ``(l_util, e_sq, grad_V, grad_alpha, col_sum, EtX)`` where the
    gradient pieces carry the loss weights (``lam_ws = lambda *
    M/batch``, ``mu_w_ws = mu * M/L * M/batch``) but the loss terms
    and anchor moments are unscaled — the parent applies the weights
    once, after the cross-shard reduction.
    """
    k, n = V.shape
    if spec[0] == "range":
        start, stop = spec[1], spec[2]
        if stop <= start:
            return _zero_partial(k, n, support.anchor_idx.size)
        Xs = support.X[start:stop]
        d_star = support.d_star_range(start, stop)
    else:
        rows = spec[1]
        if rows.size == 0:
            return _zero_partial(k, n, support.anchor_idx.size)
        Xs = support.X[rows]
        d_star = support.d_star_rows(rows, support.X_star[rows])

    _, A_tilde, a_anchor = _anchor_forward(support, V, alpha, p)

    U = softmax(-kernels.minkowski_dists(Xs, V, alpha, p), axis=1)
    X_tilde = U @ V
    resid = X_tilde - Xs
    l_util = float(np.einsum("mn,mn->", resid, resid))

    # Fairness errors of this shard's rows against every anchor.
    E = X_tilde @ A_tilde.T
    E *= -2.0
    E += np.einsum("mn,mn->m", X_tilde, X_tilde)[:, None]
    E += a_anchor[None, :]
    np.maximum(E, 0.0, out=E)
    E -= d_star
    e_sq = float(np.einsum("ml,ml->", E, E))

    # Row-role dL/dX_tilde for this shard's rows.
    G = 2.0 * lam_ws * resid
    g_fair = E.sum(axis=1)[:, None] * X_tilde
    g_fair -= E @ A_tilde
    g_fair *= 4.0 * mu_w_ws
    G += g_fair

    # Anchor-role moments, reduced globally by the parent.
    col_sum = E.sum(axis=0)
    EtX = E.T @ X_tilde

    # Backward through X_tilde = U V and the softmax clustering.
    grad_V = U.T @ G
    C = G @ V.T
    P = U * (C - np.sum(U * C, axis=1, keepdims=True))
    grad_alpha, grad_V_dist = kernels.minkowski_backward(P, Xs, V, alpha, p)
    grad_V += grad_V_dist
    return (l_util, e_sq, grad_V, grad_alpha, col_sum, EtX)


def _support_cache_key(state: dict) -> Optional[tuple]:
    """Row-range-aware memo key for the worker-side shard support.

    Keyed by the broadcast segment *name* (content-addressed, never
    reused) plus every oracle parameter the support depends on; the
    row-range dimension lives inside :class:`_ShardSupport`'s own
    ``D*`` cache, keyed per ``(start, stop)``, so overlapping but
    unequal ranges from different shard plans can never alias.
    """
    handle = get_shared_handles().get("X")
    if handle is None:
        return None
    return (
        handle.name,
        tuple(state["nonprotected"]),
        tuple(state["anchors"]),
        state["p"],
    )


def _worker_support(state: dict) -> _ShardSupport:
    key = _support_cache_key(state)
    support = _SUPPORT_CACHE.get(key) if key is not None else None
    if support is not None:
        get_registry().counter("fit_shard_support_memo_hits_total").inc()
        return support
    support = _ShardSupport(
        get_shared()["X"],
        np.asarray(state["nonprotected"], dtype=np.int64),
        np.asarray(state["anchors"], dtype=np.int64),
    )
    if key is not None:
        _SUPPORT_CACHE[key] = support
        while len(_SUPPORT_CACHE) > _SUPPORT_CACHE_SIZE:
            _SUPPORT_CACHE.pop(next(iter(_SUPPORT_CACHE)))
    return support


def _maybe_inject_fault(shard_id: int) -> None:
    """One-shot crash hook for the fault-injection stress tests."""
    target = os.environ.get(FAULT_ENV)
    if not target or not in_worker():
        return
    wanted, _, token_path = target.partition(":")
    if shard_id != int(wanted) or not token_path:
        return
    try:
        os.unlink(token_path)  # consumes the fault: the retry survives
    except FileNotFoundError:
        return
    os._exit(23)


def _shard_task(payload: tuple) -> tuple:
    """Executor task: evaluate one shard inside a worker process."""
    shard_id, spec, ws, theta = payload
    _maybe_inject_fault(shard_id)
    state = get_state()
    support = _worker_support(state)
    get_registry().counter("fit_shard_tasks_total").inc()
    k, n = state["k"], support.X.shape[1]
    V = theta[: k * n].reshape(k, n)
    alpha = theta[k * n :]
    return _eval_shard(
        support,
        V,
        alpha,
        spec,
        p=state["p"],
        lam_ws=state["lam"] * ws,
        mu_w_ws=state["mu_w"] * ws,
    )


class ShardedLandmarkOracle:
    """Parent-side scipy oracle over sharded landmark evaluations.

    Duck-types the parts of :class:`repro.core.objective.IFairObjective`
    that :meth:`repro.core.model.IFair._run_restart` consumes
    (``loss_and_grad``, packing, shape properties), so the restart
    driver is reused unchanged.  Construct from a *deferred* landmark
    objective; enter the context (or call :meth:`start`) before the
    first evaluation and close it after the fit so the worker pool and
    shm broadcast are released.

    Parameters
    ----------
    objective:
        A ``pair_mode="landmark"`` :class:`IFairObjective` carrying the
        matrix, anchors, and loss weights.
    n_shards:
        Number of row-range shards per evaluation (defaults to the
        resolved worker count).  Fixing it decouples results from
        ``n_jobs``: the shard plan, and therefore every float, is
        identical whether one worker or eight serve the shards.
    n_jobs:
        Workers evaluating shards (``None``/1 in-process, ``-1``
        per CPU).  Collapses to in-process inside an executor worker.
    pool:
        Executor pool mode (``"per-call"`` or ``"session"``).
    batch_mode, batch_size:
        ``"full"`` evaluates every row; ``"stochastic"`` draws
        ``batch_size`` rows per call (see module docstring).
    plan:
        Explicit full-mode shard plan (testing hook); must tile
        ``[0, M)`` contiguously.
    random_state:
        Seeds the stochastic batch streams.  Pass an integer for
        reproducibility across processes.
    """

    def __init__(
        self,
        objective,
        *,
        n_shards: Optional[int] = None,
        n_jobs: Optional[int] = None,
        pool: str = "per-call",
        batch_mode: str = "full",
        batch_size: Optional[int] = None,
        plan: Optional[Sequence[Tuple[int, int]]] = None,
        random_state=0,
        max_retries: int = 1,
    ):
        if objective.pair_mode != "landmark":
            raise ValidationError(
                "ShardedLandmarkOracle requires a landmark-mode objective"
            )
        if batch_mode not in SHARD_BATCH_MODES:
            raise ValidationError(
                f"batch_mode must be one of {SHARD_BATCH_MODES}, got {batch_mode!r}"
            )
        if pool not in POOL_MODES:
            raise ValidationError(f"pool must be one of {POOL_MODES}, got {pool!r}")
        self._objective = objective
        self._m = int(objective.X.shape[0])
        self.n_jobs = effective_n_jobs(n_jobs)
        if n_shards is not None and int(n_shards) < 1:
            raise ValidationError("n_shards must be at least 1")
        self.n_shards = int(n_shards) if n_shards is not None else self.n_jobs
        if plan is not None:
            self._plan = _check_plan(plan, self._m)
        else:
            self._plan = plan_shards(self._m, self.n_shards)
        self.batch_mode = batch_mode
        if batch_mode == "stochastic":
            if batch_size is None:
                raise ValidationError("batch_mode='stochastic' requires batch_size")
            batch_size = int(batch_size)
            if not 1 <= batch_size <= self._m:
                raise ValidationError(
                    f"batch_size must lie in [1, {self._m}], got {batch_size}"
                )
        elif batch_size is not None:
            raise ValidationError("batch_size only applies to batch_mode='stochastic'")
        self.batch_size = batch_size
        self.pool = pool
        self.max_retries = int(max_retries)

        anchors = objective._anchor_indices()
        self._anchors = anchors
        # Loss weights: lam on utility, mu * M/L on the fairness sum.
        self._lam = objective.lambda_util
        self._mu_w = objective.mu_fair * (self._m / anchors.size)
        self._p = objective.p
        self._support = _ShardSupport(objective.X, objective.nonprotected, anchors)
        self._entropy = self._seed_entropy(random_state)
        self._calls = 0
        self._perm_epoch: Optional[int] = None
        self._perm: Optional[np.ndarray] = None
        self._executor: Optional[ParallelExecutor] = None

    @staticmethod
    def _seed_entropy(random_state) -> int:
        """Integer entropy for the spawn-key batch streams."""
        if random_state is None:
            return int(np.random.SeedSequence().entropy % (2**63))
        if isinstance(random_state, (int, np.integer)):
            return int(random_state)
        # Generator input: consume one draw to derive a fixed stream.
        return int(np.asarray(random_state.integers(2**63)).item())

    # ------------------------------------------------------------------
    # objective facade (what IFair._run_restart consumes)

    @property
    def X(self) -> np.ndarray:
        return self._objective.X

    @property
    def protected(self) -> np.ndarray:
        return self._objective.protected

    @property
    def n_prototypes(self) -> int:
        return self._objective.n_prototypes

    @property
    def n_features(self) -> int:
        return self._objective.n_features

    @property
    def n_params(self) -> int:
        return self._objective.n_params

    @property
    def landmark_indices(self) -> np.ndarray:
        return self._objective.landmark_indices

    @property
    def plan(self) -> Tuple[Tuple[int, int], ...]:
        """The fixed full-mode shard plan (row ranges)."""
        return self._plan

    def pack(self, V: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        return self._objective.pack(V, alpha)

    def unpack(self, theta: np.ndarray):
        return self._objective.unpack(theta)

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Spin up the shard workers (no-op in-process)."""
        if self._executor is not None or self.n_jobs <= 1:
            return
        state = {
            "nonprotected": [int(i) for i in self._objective.nonprotected],
            "anchors": [int(i) for i in self._anchors],
            "p": self._p,
            "lam": self._lam,
            "mu_w": self._mu_w,
            "k": self._objective.n_prototypes,
        }
        self._executor = ParallelExecutor(
            _shard_task,
            self.n_jobs,
            state=state,
            shared={"X": self._objective.X},
            max_retries=self.max_retries,
            pool=self.pool,
        )
        self._executor.start()

    def close(self) -> None:
        """Release the worker pool and shm broadcast (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "ShardedLandmarkOracle":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # stochastic batch streams

    def reset_batches(self) -> None:
        """Rewind the batch stream (each restart replays the schedule)."""
        self._calls = 0

    @property
    def batches_per_epoch(self) -> int:
        if self.batch_mode != "stochastic":
            return 1
        return -(-self._m // self.batch_size)

    def batch_rows(self, t: int) -> Optional[np.ndarray]:
        """Sorted row sample of call ``t``, or None for full coverage.

        Batches walk an epoch permutation drawn from
        ``SeedSequence(entropy, spawn_key=(epoch,))`` — deterministic
        in ``t`` alone — and a batch that covers every row collapses
        to ``None`` so it runs the literal full sharded path.
        """
        if self.batch_mode != "stochastic" or self.batch_size >= self._m:
            return None
        epoch, slot = divmod(int(t), self.batches_per_epoch)
        if self._perm_epoch != epoch:
            rng = np.random.default_rng(
                np.random.SeedSequence(self._entropy, spawn_key=(epoch,))
            )
            self._perm = rng.permutation(self._m)
            self._perm_epoch = epoch
        start = slot * self.batch_size
        return np.sort(self._perm[start : start + self.batch_size])

    # ------------------------------------------------------------------
    # evaluation

    def loss_and_grad(self, theta: np.ndarray) -> Tuple[float, np.ndarray]:
        """Scipy-compatible oracle; stochastic mode advances one batch."""
        result = self.evaluate_batch(theta, self._calls)
        if self.batch_mode == "stochastic":
            self._calls += 1
        return result

    def loss(self, theta: np.ndarray) -> float:
        return self.loss_and_grad(theta)[0]

    def evaluate_batch(self, theta: np.ndarray, t: int) -> Tuple[float, np.ndarray]:
        """Loss/grad of batch ``t`` without advancing the stream.

        The finite-difference and unbiasedness tests evaluate one
        fixed batch at many thetas through this entry.
        """
        theta = np.asarray(theta, dtype=np.float64)
        rows = self.batch_rows(t)
        if rows is None:
            specs = [("range", start, stop) for start, stop in self._plan]
            ws = 1.0
        else:
            specs = [
                ("rows", rows[start:stop])
                for start, stop in plan_shards(rows.size, self.n_shards)
            ]
            ws = self._m / rows.size
        payloads = [
            (shard_id, spec, ws, theta) for shard_id, spec in enumerate(specs)
        ]
        registry = get_registry()
        registry.counter("fit_shard_evals_total").inc()
        # One BLAS thread, as executor workers run: in-process shards
        # compute the same bits as worker shards, also outside a fit.
        with blas.limit(1):
            with get_tracer().span(
                "fit.shard_eval", n_shards=len(payloads), n_jobs=self.n_jobs
            ):
                if self._executor is not None:
                    partials = self._executor.map(payloads)
                else:
                    partials = [self._eval_local(payload) for payload in payloads]
            return self._assemble(theta, partials, ws)

    def _eval_local(self, payload: tuple) -> tuple:
        """In-process shard evaluation — the n_jobs=1 reference path.

        Runs the exact worker arithmetic (:func:`_eval_shard`) on a
        parent-built support, so in-process and multi-process results
        are bitwise identical at a fixed shard plan.
        """
        shard_id, spec, ws, theta = payload
        V, alpha = self._objective.unpack(theta)
        return _eval_shard(
            self._support,
            V,
            alpha,
            spec,
            p=self._p,
            lam_ws=self._lam * ws,
            mu_w_ws=self._mu_w * ws,
        )

    def _assemble(
        self, theta: np.ndarray, partials: List[tuple], ws: float
    ) -> Tuple[float, np.ndarray]:
        """Fixed-order reduction + anchor-role epilogue."""
        V, alpha = self._objective.unpack(theta)
        fields = list(zip(*partials))
        l_util = float(kernels.neumaier_tree_reduce(fields[0]))
        e_sq = float(kernels.neumaier_tree_reduce(fields[1]))
        grad_V = kernels.neumaier_tree_reduce(fields[2])
        grad_alpha = kernels.neumaier_tree_reduce(fields[3])
        col_sum = kernels.neumaier_tree_reduce(fields[4])
        EtX = kernels.neumaier_tree_reduce(fields[5])

        # Anchor role: anchors move with the transform, so the global
        # moments flow back through the L anchor rows (O(L * K * N)).
        U_a, A_tilde, _ = _anchor_forward(self._support, V, alpha, self._p)
        G_a = EtX - col_sum[:, None] * A_tilde
        G_a *= -4.0 * self._mu_w * ws
        grad_V += U_a.T @ G_a
        C = G_a @ V.T
        P = U_a * (C - np.sum(U_a * C, axis=1, keepdims=True))
        ga_dist, gv_dist = kernels.minkowski_backward(
            P, self._support.anchors_X, V, alpha, self._p,
            x_sq=self._support.anchors_X_sq,
        )
        grad_V += gv_dist
        grad_alpha += ga_dist

        loss = (
            kernels.CompensatedSum()
            .add(self._lam * ws * l_util)
            .add(self._mu_w * ws * e_sq)
            .result
        )
        return loss, np.concatenate([grad_V.ravel(), grad_alpha])
