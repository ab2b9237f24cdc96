"""Tests for repro.pipeline.config and repro.exceptions."""

import pytest

from repro.core.tuning import MIXTURE_GRID, PROTOTYPE_GRID
from repro.exceptions import (
    NotFittedError,
    ReproError,
    SchemaError,
    ValidationError,
)
from repro.pipeline.config import ExperimentConfig


class TestExperimentConfig:
    def test_fast_preset_is_reduced(self):
        config = ExperimentConfig.fast()
        assert config.classification_records < 6901
        assert len(config.mixture_grid) < len(MIXTURE_GRID)

    def test_paper_preset_matches_section_vb(self):
        config = ExperimentConfig.paper()
        assert config.mixture_grid == MIXTURE_GRID
        assert config.prototype_grid == PROTOTYPE_GRID
        assert config.n_restarts == 3
        assert config.max_pairs is None
        assert config.classification_records == 6901
        assert config.ranking_queries == 57

    def test_frozen(self):
        config = ExperimentConfig.fast()
        with pytest.raises(AttributeError):
            config.max_iter = 999

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(mixture_grid=())

    def test_bad_restarts_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(n_restarts=0)

    def test_bad_consistency_k_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(consistency_k=0)

    def test_seed_threaded_through_presets(self):
        assert ExperimentConfig.fast(random_state=42).random_state == 42
        assert ExperimentConfig.paper(random_state=42).random_state == 42


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (ValidationError, NotFittedError, SchemaError):
            assert issubclass(exc_type, ReproError)

    def test_validation_error_is_value_error(self):
        assert issubclass(ValidationError, ValueError)
        assert issubclass(SchemaError, ValueError)

    def test_not_fitted_is_runtime_error(self):
        assert issubclass(NotFittedError, RuntimeError)

    def test_catchable_as_library_failure(self):
        try:
            raise SchemaError("bad schema")
        except ReproError as exc:
            assert "bad schema" in str(exc)


class TestPairModeConfig:
    def test_defaults_preserve_auto(self):
        config = ExperimentConfig.fast()
        assert config.pair_mode == "auto"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(pair_mode="bogus")
        with pytest.raises(ValidationError, match="'auto', 'full', 'sampled'"):
            ExperimentConfig(pair_mode="landmark")


class TestPromoteConfig:
    def test_defaults(self):
        config = ExperimentConfig.fast()
        assert config.tune_promote == "rank"

    def test_extrapolate_accepted(self):
        config = ExperimentConfig(tune_promote="extrapolate")
        assert config.tune_promote == "extrapolate"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(tune_promote="psychic")
