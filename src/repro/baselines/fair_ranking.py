"""FA*IR — fair top-k ranking (Zehlike et al., CIKM 2017).

FA*IR post-processes a score-ordered candidate list so that every
prefix of the output ranking contains enough protected candidates to
pass a binomial significance test: prefix ``i`` needs at least

    m(i) = BinomialQuantile(alpha; i, p)

protected candidates, where ``p`` is the target minimum protected
proportion and ``alpha`` the significance level.  The constructive
algorithm keeps two score-sorted queues (protected / non-protected) and
at each rank takes the overall best candidate unless the constraint
forces a protected pick.

The iFair paper extends FA*IR to also emit *fair scores* so that
consistency can be measured on rankings: a candidate promoted by the
constraint receives an interpolated score (placeholder filled by linear
interpolation between the neighbouring organic scores) instead of its
own, keeping the emitted score sequence non-increasing.  That extension
is implemented by :meth:`FairRanker.rank` via ``return_scores=True``.

An optional multiple-testing correction (the paper's "model adjustment")
is provided: :func:`adjust_significance` finds the corrected per-test
alpha whose family-wise failure probability across all k prefixes
matches the requested level, estimated by Monte-Carlo simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.utils import blas
from repro.utils.rng import RandomStateLike, check_random_state
from repro.utils.validation import check_binary_labels, check_vector


def minimum_protected_targets(k: int, p: float, alpha: float = 0.1) -> np.ndarray:
    """Minimum protected count required at each prefix 1..k.

    ``m[i-1]`` is the smallest integer ``t`` such that a
    Binomial(i, p) variable falls at or below ``t`` with probability
    greater than ``alpha`` — i.e. observing fewer protected candidates
    would be statistically implausible under the target proportion.
    """
    if k < 1:
        raise ValidationError("k must be at least 1")
    if not 0.0 < p < 1.0:
        raise ValidationError("target proportion p must lie in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise ValidationError("significance alpha must lie in (0, 1)")
    prefix = np.arange(1, k + 1)
    # ppf returns the smallest t with CDF(t) >= alpha; a prefix passes
    # when its protected count is >= that quantile.
    targets = blas.import_scipy("stats").binom.ppf(alpha, prefix, p)
    targets = np.nan_to_num(targets, nan=0.0)
    return targets.astype(np.int64)


def ranked_group_fairness_ok(
    protected_flags: Sequence[int], p: float, alpha: float = 0.1
) -> bool:
    """Check the FA*IR condition on an existing ranking prefix-by-prefix."""
    flags = np.asarray(list(protected_flags), dtype=np.int64)
    if flags.size == 0:
        raise ValidationError("ranking must not be empty")
    targets = minimum_protected_targets(flags.size, p, alpha)
    counts = np.cumsum(flags)
    return bool(np.all(counts >= targets))


def adjust_significance(
    k: int,
    p: float,
    alpha: float = 0.1,
    *,
    n_simulations: int = 2000,
    random_state: RandomStateLike = 0,
) -> float:
    """Multiple-testing corrected per-prefix significance level.

    Testing every prefix of a top-k ranking inflates the family-wise
    rejection rate above the per-test ``alpha``.  This routine binary-
    searches the corrected level ``alpha_c`` so that a genuinely fair
    ranking (i.i.d. Bernoulli(p) group draws) fails *some* prefix test
    with probability ``alpha``, estimated over ``n_simulations`` draws.
    """
    if n_simulations < 1:
        raise ValidationError("n_simulations must be positive")
    rng = check_random_state(random_state)
    draws = (rng.random((n_simulations, k)) < p).astype(np.int64)
    counts = np.cumsum(draws, axis=1)

    def family_fail_rate(alpha_c: float) -> float:
        targets = minimum_protected_targets(k, p, alpha_c)
        return float(np.mean(np.any(counts < targets[None, :], axis=1)))

    lo, hi = 0.0, alpha
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        if family_fail_rate(mid) > alpha:
            hi = mid
        else:
            lo = mid
    return max(lo, 1e-12)


@dataclass
class FairRankingResult:
    """Output of :meth:`FairRanker.rank`.

    ``ranking`` holds the re-ordered item indices (best first);
    ``scores`` the fair scores aligned with ``ranking`` (original score
    for organic picks, interpolated for forced protected picks);
    ``forced`` flags the positions filled to satisfy the constraint.
    """

    ranking: np.ndarray
    scores: np.ndarray
    forced: np.ndarray


class FairRanker:
    """FA*IR re-ranker with fair-score interpolation.

    Parameters
    ----------
    p:
        Target minimum proportion of protected candidates.
    alpha:
        Per-prefix significance level of the binomial test.
    adjust:
        Apply the Monte-Carlo multiple-testing correction to alpha.
    """

    def __init__(
        self,
        p: float = 0.5,
        alpha: float = 0.1,
        *,
        adjust: bool = False,
        random_state: RandomStateLike = 0,
    ):
        if not 0.0 < p < 1.0:
            raise ValidationError("target proportion p must lie in (0, 1)")
        if not 0.0 < alpha < 1.0:
            raise ValidationError("significance alpha must lie in (0, 1)")
        self.p = float(p)
        self.alpha = float(alpha)
        self.adjust = bool(adjust)
        self.random_state = random_state

    def rank(self, scores, protected, k: Optional[int] = None) -> FairRankingResult:
        """Produce a fair top-``k`` ranking of all items.

        Parameters
        ----------
        scores:
            Deserved score per item (higher is better).
        protected:
            0/1 protected indicator per item.
        k:
            Length of the output ranking; defaults to all items.
        """
        scores = check_vector(scores, "scores")
        protected = check_binary_labels(protected, "protected", length=scores.size)
        n = scores.size
        k = n if k is None else int(k)
        if not 1 <= k <= n:
            raise ValidationError(f"k must lie in [1, {n}], got {k}")

        alpha_eff = (
            adjust_significance(k, self.p, self.alpha, random_state=self.random_state)
            if self.adjust
            else self.alpha
        )
        targets = minimum_protected_targets(k, self.p, alpha_eff)

        order = np.argsort(-scores, kind="mergesort")
        protected_queue = [i for i in order if protected[i] == 1]
        regular_queue = [i for i in order if protected[i] == 0]
        pq, rq = 0, 0  # queue cursors

        ranking = np.empty(k, dtype=np.intp)
        forced = np.zeros(k, dtype=bool)
        n_protected_placed = 0
        for pos in range(k):
            need = targets[pos]
            must_take_protected = n_protected_placed < need
            can_take_protected = pq < len(protected_queue)
            can_take_regular = rq < len(regular_queue)
            if must_take_protected and can_take_protected:
                take_protected = True
                forced_pick = True
            elif can_take_protected and can_take_regular:
                take_protected = scores[protected_queue[pq]] >= scores[regular_queue[rq]]
                forced_pick = False
            elif can_take_protected:
                take_protected = True
                forced_pick = False
            elif can_take_regular:
                take_protected = False
                forced_pick = False
            else:  # pragma: no cover - k <= n guarantees availability
                raise ValidationError("ran out of candidates before filling k ranks")
            if take_protected:
                ranking[pos] = protected_queue[pq]
                pq += 1
                n_protected_placed += 1
                # Only mark as forced when the candidate would not have
                # been chosen on score alone.
                if forced_pick and can_take_regular:
                    organic = scores[ranking[pos]] < scores[regular_queue[rq]]
                    forced[pos] = organic
            else:
                ranking[pos] = regular_queue[rq]
                rq += 1

        fair_scores = self._interpolate_scores(scores[ranking], forced)
        return FairRankingResult(ranking=ranking, scores=fair_scores, forced=forced)

    @staticmethod
    def _interpolate_scores(ordered_scores: np.ndarray, forced: np.ndarray) -> np.ndarray:
        """Fill forced positions by linear interpolation between organic
        neighbours (paper Section V-E extension)."""
        out = ordered_scores.astype(np.float64, copy=True)
        organic_pos = np.flatnonzero(~forced)
        if organic_pos.size == 0:
            return out
        holes = np.flatnonzero(forced)
        if holes.size:
            out[holes] = np.interp(holes, organic_pos, out[organic_pos])
        return out
