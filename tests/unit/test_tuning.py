"""Tests for repro.core.tuning."""

import numpy as np
import pytest

from repro.core.tuning import (
    CandidateResult,
    GridSearch,
    GridSearchResult,
    HalvingConfig,
    TuningCriterion,
    default_hyper_grid,
    predict_full_budget,
)
from repro.exceptions import ValidationError
from repro.utils.mathkit import harmonic_mean


class TestTuningCriterion:
    def test_max_utility_ignores_fairness(self):
        assert TuningCriterion.MAX_UTILITY.score(0.8, 0.1) == 0.8

    def test_max_fairness_ignores_utility(self):
        assert TuningCriterion.MAX_FAIRNESS.score(0.8, 0.1) == 0.1

    def test_optimal_is_harmonic_mean(self):
        assert TuningCriterion.OPTIMAL.score(0.8, 0.4) == pytest.approx(
            harmonic_mean(0.8, 0.4)
        )


class TestDefaultHyperGrid:
    def test_paper_grid_size(self):
        grid = default_hyper_grid()
        # 6 x 6 mixtures minus the lambda=mu=0 corner, times 3 K values.
        assert len(grid) == (36 - 1) * 3

    def test_no_degenerate_corner(self):
        for point in default_hyper_grid():
            assert not (point["lambda_util"] == 0.0 and point["mu_fair"] == 0.0)

    def test_keys(self):
        point = default_hyper_grid()[0]
        assert set(point) == {"lambda_util", "mu_fair", "n_prototypes"}


class TestGridSearch:
    def test_evaluates_every_point(self):
        grid = [{"x": 1}, {"x": 2}, {"x": 3}]
        seen = []

        def build(params):
            seen.append(params["x"])
            return params["x"]

        search = GridSearch(build, lambda x: (x / 3.0, 1.0 - x / 3.0), grid)
        result = search.run()
        assert seen == [1, 2, 3]
        assert len(result.candidates) == 3

    def test_best_by_each_criterion(self):
        grid = [{"x": 1}, {"x": 2}]
        # Candidate 1: (0.9, 0.1); candidate 2: (0.2, 0.8).
        scores = {1: (0.9, 0.1), 2: (0.2, 0.8)}
        search = GridSearch(lambda p: p["x"], lambda x: scores[x], grid)
        result = search.run()
        assert result.best(TuningCriterion.MAX_UTILITY).params == {"x": 1}
        assert result.best(TuningCriterion.MAX_FAIRNESS).params == {"x": 2}

    def test_pareto_optimal_subset(self):
        grid = [{"x": i} for i in range(3)]
        scores = {0: (0.9, 0.1), 1: (0.5, 0.5), 2: (0.4, 0.4)}
        search = GridSearch(lambda p: p["x"], lambda x: scores[x], grid)
        result = search.run()
        front = {c.params["x"] for c in result.pareto_optimal()}
        assert front == {0, 1}

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            GridSearch(lambda p: p, lambda a: (0, 0), [])

    def test_best_of_empty_result_rejected(self):
        search = GridSearch(lambda p: p, lambda a: (0, 0), [{"x": 1}])
        result = search.run()
        result.candidates.clear()
        with pytest.raises(ValidationError):
            result.best(TuningCriterion.OPTIMAL)


class TestDeterministicTieBreak:
    def _result(self, scores):
        return GridSearchResult(
            candidates=[
                CandidateResult(params={"i": i}, utility=u, fairness=f, order=i)
                for i, (u, f) in enumerate(scores)
            ]
        )

    def test_equal_scores_break_by_utility(self):
        # Under MAX_FAIRNESS both candidates score 0.5; the higher
        # utility must win, not whichever max() saw first.
        result = self._result([(0.2, 0.5), (0.6, 0.5)])
        assert result.best(TuningCriterion.MAX_FAIRNESS).order == 1

    def test_equal_scores_and_utility_break_by_grid_order(self):
        result = self._result([(0.6, 0.5), (0.6, 0.5), (0.6, 0.5)])
        assert result.best(TuningCriterion.MAX_FAIRNESS).order == 0

    def test_tie_break_independent_of_candidate_list_order(self):
        # Halving results hold a subset in rung order; selection must
        # not depend on list position.
        result = self._result([(0.6, 0.5), (0.2, 0.5), (0.6, 0.5)])
        shuffled = GridSearchResult(candidates=result.candidates[::-1])
        assert (
            result.best(TuningCriterion.MAX_FAIRNESS).order
            == shuffled.best(TuningCriterion.MAX_FAIRNESS).order
            == 0
        )

    def test_nan_scores_sort_last(self):
        result = self._result([(float("nan"), 0.9), (0.3, 0.1)])
        assert result.best(TuningCriterion.MAX_UTILITY).order == 1


class TestKeepArtifacts:
    def test_artifacts_dropped_when_disabled(self):
        grid = [{"x": 1}, {"x": 2}]
        result = GridSearch(
            lambda p: p["x"], lambda x: (x, 1.0), grid, keep_artifacts=False
        ).run()
        assert all(c.artifact is None for c in result.candidates)

    def test_artifacts_kept_by_default(self):
        grid = [{"x": 1}, {"x": 2}]
        result = GridSearch(lambda p: p["x"], lambda x: (x, 1.0), grid).run()
        assert [c.artifact for c in result.candidates] == [1, 2]

    def test_refit_best_rebuilds_winner(self):
        built = []

        def build(params):
            built.append(params["x"])
            return params["x"] * 10

        grid = [{"x": 1}, {"x": 2}]
        result = GridSearch(
            build, lambda x: (x, 1.0), grid, keep_artifacts=False
        ).run()
        assert result.refit_best(TuningCriterion.MAX_UTILITY) == 20
        assert built == [1, 2, 2]

    def test_refit_best_returns_kept_artifact_without_rebuild(self):
        built = []

        def build(params):
            built.append(params["x"])
            return params["x"] * 10

        result = GridSearch(build, lambda x: (x, 1.0), [{"x": 3}]).run()
        assert result.refit_best(TuningCriterion.OPTIMAL) == 30
        assert built == [3]

    def test_summarize_survives_dropped_artifact(self):
        result = GridSearch(
            lambda p: p["x"],
            lambda x: (x, 1.0),
            [{"x": 5}],
            keep_artifacts=False,
            summarize=lambda x: {"doubled": 2 * x},
        ).run()
        assert result.candidates[0].info == {"doubled": 10}


def _budget_build(calls, params):
    calls.append(dict(params))
    quality = params["x"]
    artifact = type("A", (), {})()
    artifact.q = quality
    artifact.theta_ = np.array([quality, params.get("max_iter", 0)], dtype=float)
    return artifact


class TestHalving:
    GRID = [
        {"x": i / 10.0, "max_iter": 8, "n_restarts": 2} for i in range(1, 9)
    ]

    # Fairness decorrelated from utility (a perfectly anticorrelated
    # pair would put the whole grid on the Pareto front, and halving
    # would rightly skip straight to the final rung).
    EVALUATE = staticmethod(lambda a: (a.q, (a.q * 7.3) % 1.0))

    def _run(self, **kwargs):
        calls = []
        search = GridSearch(
            lambda p: _budget_build(calls, p),
            self.EVALUATE,
            self.GRID,
            strategy="halving",
            keep_artifacts=False,
            **kwargs,
        )
        return search.run(), calls

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValidationError):
            GridSearch(lambda p: p, lambda a: (0, 0), [{}], strategy="random")

    def test_invalid_halving_config_rejected(self):
        with pytest.raises(ValidationError):
            HalvingConfig(n_rungs=0)
        with pytest.raises(ValidationError):
            HalvingConfig(promote_fraction=0.0)
        with pytest.raises(ValidationError):
            HalvingConfig(min_promote=0)

    def test_early_rungs_shrink_budget_keys(self):
        _, calls = self._run(halving=HalvingConfig(n_rungs=3, promote_fraction=0.25))
        rung0 = calls[: len(self.GRID)]
        assert all(c["max_iter"] == 2 and c["n_restarts"] == 1 for c in rung0)
        final = calls[-1]
        assert final["max_iter"] == 8 and final["n_restarts"] == 2

    def test_final_rung_is_cold_and_verbatim(self):
        result, calls = self._run(
            halving=HalvingConfig(n_rungs=3, promote_fraction=0.25)
        )
        final_count = len(result.candidates)
        for params in calls[-final_count:]:
            assert "warm_start_theta" not in params
            assert params in self.GRID

    def test_intermediate_rungs_warm_start_from_theta(self):
        _, calls = self._run(halving=HalvingConfig(n_rungs=3, promote_fraction=0.25))
        rung1 = [c for c in calls[len(self.GRID) : -1] if "warm_start_theta" in c]
        assert rung1, "second rung should warm-start survivors"
        for params in rung1:
            # theta recorded by the rung-0 build of the same candidate
            assert params["warm_start_theta"][0] == params["x"]

    def test_warm_start_disabled(self):
        _, calls = self._run(
            halving=HalvingConfig(n_rungs=3, promote_fraction=0.25, warm_start=False)
        )
        assert all("warm_start_theta" not in c for c in calls)

    def test_history_and_fit_accounting(self):
        result, calls = self._run(
            halving=HalvingConfig(n_rungs=3, promote_fraction=0.25)
        )
        assert result.strategy == "halving"
        assert result.n_fits == len(calls)
        assert [h["rung"] for h in result.history] == list(range(len(result.history)))
        assert result.history[-1]["budget_divisor"] == 1
        for h in result.history[:-1]:
            assert set(h["promoted"]) <= set(h["candidates"])

    def test_agreement_with_exhaustive_on_budget_independent_scores(self):
        # Scores ignore the budget, so every rung ranks candidates
        # exactly as the full fit would: halving must select the same
        # winner under all three criteria.
        result, _ = self._run(halving=HalvingConfig(n_rungs=3, promote_fraction=0.25))
        exhaustive = GridSearch(
            lambda p: _budget_build([], p),
            self.EVALUATE,
            self.GRID,
            keep_artifacts=False,
        ).run()
        for criterion in TuningCriterion:
            assert (
                result.best(criterion).order == exhaustive.best(criterion).order
            )

    def test_tiny_grid_falls_back_to_exhaustive(self):
        calls = []
        result = GridSearch(
            lambda p: _budget_build(calls, p),
            lambda a: (a.q, 1.0 - a.q),
            self.GRID[:2],
            strategy="halving",
            keep_artifacts=False,
        ).run()
        assert result.strategy == "exhaustive"
        assert len(calls) == 2


class TestParallelGridSearch:
    def test_n_jobs_matches_serial_run(self):
        grid = [{"x": i, "max_iter": 4} for i in range(6)]

        def build(params):
            return params["x"] * 1.5

        def evaluate(x):
            return x, 10.0 - x

        serial = GridSearch(build, evaluate, grid).run()
        parallel = GridSearch(build, evaluate, grid, n_jobs=2).run()
        assert [(c.utility, c.fairness, c.order) for c in serial.candidates] == [
            (c.utility, c.fairness, c.order) for c in parallel.candidates
        ]
        for criterion in TuningCriterion:
            assert (
                serial.best(criterion).params == parallel.best(criterion).params
            )


class TestLandmarkGrid:
    def test_without_landmarks_grid_is_unchanged(self):
        from repro.core.tuning import default_hyper_grid

        for point in default_hyper_grid((0.1,), (4,)):
            assert "n_landmarks" not in point
            assert "pair_mode" not in point


class TestPredictFullBudget:
    def test_two_points_determine_the_curve_exactly(self):
        # s(b) = 0.75 - 0.12 / b -> s(1) = 0.63
        observations = [(0.25, 0.75 - 0.12 / 0.25), (0.5, 0.75 - 0.12 / 0.5)]
        assert predict_full_budget(observations) == pytest.approx(0.63)

    def test_more_points_regress_the_curve(self):
        curve = lambda b: 0.9 - 0.2 / b  # noqa: E731
        observations = [(b, curve(b)) for b in (0.125, 0.25, 0.5)]
        assert predict_full_budget(observations) == pytest.approx(0.7)

    def test_single_observation_falls_back_to_observed_score(self):
        assert predict_full_budget([(0.25, 0.4)]) == 0.4

    def test_duplicate_budgets_fall_back_to_latest_score(self):
        assert predict_full_budget([(0.5, 0.3), (0.5, 0.45)]) == 0.45

    def test_nan_observations_are_ignored(self):
        observations = [(0.25, float("nan")), (0.5, 0.4)]
        assert predict_full_budget(observations) == 0.4

    def test_all_nan_returns_nan(self):
        assert np.isnan(predict_full_budget([(0.5, float("nan"))]))
        assert np.isnan(predict_full_budget([]))


def _curve_build(curves, params):
    """Deterministic learning-curve artifact: score depends on budget."""
    a, c = curves[params["x"]]
    budget_fraction = params["max_iter"] / 8.0
    artifact = type("A", (), {})()
    artifact.q = a + c / budget_fraction
    return artifact


class TestExtrapolatePromotion:
    """A slow starter with the highest asymptote must survive rungs.

    Candidate curves over the budget fraction b (full budget b = 1,
    rungs at 1/4 and 1/2 under the default 3-rung schedule):

    * ``slow``   s(b) = 0.75 - 0.12 / b  -> 0.27, 0.51, **0.63**
    * ``fast``   s(b) = 0.60 - 0.02 / b  -> 0.52, 0.56, 0.58
    * ``fading`` s(b) = 0.52 + 0.01 / b  -> 0.56, 0.54, 0.53

    Observed rank at rung 1 orders fast > fading > slow and eliminates
    the eventual full-budget winner; curve extrapolation predicts
    slow's asymptote and keeps it, so the halving result matches the
    exhaustive search.  Fairness mirrors utility so all three criteria
    agree and the Pareto front cannot rescue the dropped candidate.
    """

    CURVES = {
        0: (0.75, -0.12),  # slow starter, highest asymptote
        1: (0.60, -0.02),  # fast starter
        2: (0.52, +0.01),  # fades with budget
        **{i: (0.25 + 0.002 * i, -0.005) for i in range(3, 9)},
    }
    GRID = [{"x": i, "max_iter": 8, "n_restarts": 1} for i in range(9)]

    def _run(self, promote):
        return GridSearch(
            lambda p: _curve_build(self.CURVES, p),
            lambda a: (a.q, a.q),
            self.GRID,
            strategy="halving",
            halving=HalvingConfig(
                n_rungs=3, promote_fraction=1.0 / 3.0, promote=promote
            ),
            keep_artifacts=False,
        ).run()

    def test_invalid_promote_mode_rejected(self):
        with pytest.raises(ValidationError):
            HalvingConfig(promote="psychic")

    def test_rank_promotion_drops_the_slow_starter(self):
        result = self._run("rank")
        assert result.best(TuningCriterion.MAX_UTILITY).order == 1
        assert all(c.order != 0 for c in result.candidates)

    def test_extrapolate_promotion_keeps_the_slow_starter(self):
        result = self._run("extrapolate")
        assert result.best(TuningCriterion.MAX_UTILITY).order == 0

    def test_extrapolate_matches_exhaustive_winner(self):
        exhaustive = GridSearch(
            lambda p: _curve_build(self.CURVES, p),
            lambda a: (a.q, a.q),
            self.GRID,
            keep_artifacts=False,
        ).run()
        extrapolated = self._run("extrapolate")
        for criterion in TuningCriterion:
            assert (
                extrapolated.best(criterion).order
                == exhaustive.best(criterion).order
            )

    def test_rung_zero_promotion_identical_to_rank(self):
        # With a single observation there is no curve: the first rung's
        # survivor set must be exactly the rank promoter's.
        rank_history = self._run("rank").history
        extra_history = self._run("extrapolate").history
        assert rank_history[0]["promoted"] == extra_history[0]["promoted"]


class TestExtrapolationBudgetAccounting:
    """Warm-started rungs must record *cumulative* budget fractions."""

    GRID = [
        {"x": i / 10.0, "max_iter": 8, "n_restarts": 2} for i in range(1, 9)
    ]

    def _history(self, warm_start):
        calls = []
        result = GridSearch(
            lambda p: _budget_build(calls, p),  # artifacts carry theta_
            lambda a: (a.q, (a.q * 7.3) % 1.0),
            self.GRID,
            strategy="halving",
            halving=HalvingConfig(
                n_rungs=3,
                promote_fraction=0.25,
                warm_start=warm_start,
                promote="extrapolate",
            ),
            keep_artifacts=False,
        ).run()
        return result.history

    def test_warm_started_rungs_accumulate_budget(self):
        history = self._history(warm_start=True)
        # Rung 0 is always cold: everyone spent 1/4 of the budget.
        assert set(history[0]["budget_fraction_spent"].values()) == {0.25}
        # Rung 1 resumed survivors from rung-0 theta: the score they
        # produced reflects 1/4 + 1/2 of the budget, not 1/2.
        assert set(history[1]["budget_fraction_spent"].values()) == {0.75}

    def test_cold_rungs_record_their_own_slice(self):
        history = self._history(warm_start=False)
        assert set(history[0]["budget_fraction_spent"].values()) == {0.25}
        assert set(history[1]["budget_fraction_spent"].values()) == {0.5}
