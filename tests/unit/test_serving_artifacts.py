"""Tests for repro.serving.artifacts (save/load round trips)."""

import json
import os

import numpy as np
import pytest

from repro.core.model import IFair
from repro.learners.encoder import OneHotEncoder
from repro.serving.artifacts import (
    ARRAYS_NAME,
    MANIFEST_NAME,
    ArtifactError,
    ServingArtifact,
    load_artifact,
    save_artifact,
)
from repro.serving.fit import fit_serving_pipeline


@pytest.fixture(scope="module")
def artifact(tiny_compas):
    return fit_serving_pipeline(
        tiny_compas, n_prototypes=4, max_iter=25, max_pairs=500, random_state=3
    )


@pytest.fixture
def saved(artifact, tmp_path):
    return save_artifact(str(tmp_path / "art"), artifact)


class TestRoundTrip:
    def test_transform_bitwise_equal(self, artifact, saved, tiny_compas):
        loaded = load_artifact(saved)
        X = artifact.scaler.transform(tiny_compas.X[:20])
        assert np.array_equal(
            artifact.model.transform(X), loaded.model.transform(X)
        )

    def test_scaler_round_trip(self, artifact, saved):
        loaded = load_artifact(saved)
        assert np.array_equal(loaded.scaler.mean_, artifact.scaler.mean_)
        assert np.array_equal(loaded.scaler.scale_, artifact.scaler.scale_)
        assert loaded.scaler.with_mean == artifact.scaler.with_mean

    def test_scorer_round_trip(self, artifact, saved):
        loaded = load_artifact(saved)
        assert np.array_equal(loaded.scorer.coef_, artifact.scorer.coef_)
        assert loaded.scorer.intercept_ == artifact.scorer.intercept_

    def test_thresholds_round_trip(self, artifact, saved):
        loaded = load_artifact(saved)
        assert loaded.thresholds.criterion == artifact.thresholds.criterion
        assert loaded.thresholds.thresholds_ == artifact.thresholds.thresholds_

    def test_metadata_and_names_round_trip(self, artifact, saved):
        loaded = load_artifact(saved)
        assert loaded.metadata["dataset"] == "compas"
        assert loaded.feature_names == artifact.feature_names
        assert np.array_equal(loaded.protected_indices, artifact.protected_indices)

    def test_save_is_idempotent(self, artifact, saved):
        save_artifact(saved, artifact)  # overwrite in place
        loaded = load_artifact(saved)
        assert np.array_equal(loaded.model.alpha_, artifact.model.alpha_)

    def test_encoder_round_trip(self, tmp_path):
        raw = np.array([[1.0, "a"], [2.0, "b"], [3.0, "a"]], dtype=object)
        encoder = OneHotEncoder([1]).fit(raw)
        X = encoder.transform(raw)
        model = IFair(
            n_prototypes=2, n_restarts=1, max_iter=15, random_state=0
        ).fit(X)
        art = ServingArtifact(model=model, protected_indices=[], encoder=encoder)
        loaded = load_artifact(save_artifact(str(tmp_path / "enc"), art))
        assert np.array_equal(loaded.encoder.transform(raw), X)
        assert loaded.encoder.feature_names_ == encoder.feature_names_


class TestValidation:
    def test_unfitted_model_rejected(self):
        with pytest.raises(ArtifactError):
            ServingArtifact(model=IFair(), protected_indices=[])

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest"):
            load_artifact(str(tmp_path / "nope"))

    def test_corrupt_manifest_rejected(self, saved):
        with open(os.path.join(saved, MANIFEST_NAME), "w") as fh:
            fh.write("{not json")
        with pytest.raises(ArtifactError, match="cannot read manifest"):
            load_artifact(saved)

    def test_missing_keys_rejected(self, saved):
        with open(os.path.join(saved, MANIFEST_NAME), "w") as fh:
            json.dump({"format": "repro-serving-artifact"}, fh)
        with pytest.raises(ArtifactError, match="missing required keys"):
            load_artifact(saved)

    def test_unknown_version_rejected(self, saved):
        path = os.path.join(saved, MANIFEST_NAME)
        with open(path) as fh:
            manifest = json.load(fh)
        manifest["version"] = 99
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ArtifactError, match="version"):
            load_artifact(saved)

    def test_tampered_arrays_rejected(self, saved):
        with open(os.path.join(saved, ARRAYS_NAME), "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ArtifactError, match="checksum"):
            load_artifact(saved)

    def test_shape_mismatch_rejected(self, saved):
        path = os.path.join(saved, MANIFEST_NAME)
        with open(path) as fh:
            manifest = json.load(fh)
        manifest["model"]["shape"] = [1, 1]
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ArtifactError, match="shape"):
            load_artifact(saved)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_prototypes", "two"),
            ("n_prototypes", 2.5),
            ("lambda_util", None),
            ("max_pairs", 0),
            ("max_pairs", -5),
            ("max_pairs", "2000 pairs"),
        ],
    )
    def test_malformed_model_value_names_its_key(self, saved, key, value):
        """A bad model value raises ArtifactError (a ReproError the
        server reports), never a bare ValueError, and a max_pairs that
        is neither null nor >= 1 fails at load, not at each refit."""
        path = os.path.join(saved, MANIFEST_NAME)
        with open(path) as fh:
            manifest = json.load(fh)
        manifest["model"][key] = value
        # Only the manifest text changes, so the array checksum holds.
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ArtifactError, match=key):
            load_artifact(saved)


class TestOracleConfig:
    """The fairness-oracle configuration round-trips through the manifest."""

    def test_max_pairs_round_trip_keeps_sampled_pairs(self, tiny_compas, tmp_path):
        """A default pipeline fits on sampled pairs (``auto`` with
        ``max_pairs=2000``); its refits must build the same objective."""
        artifact = fit_serving_pipeline(
            tiny_compas, n_prototypes=4, max_iter=5, random_state=0
        )
        loaded = load_artifact(save_artifact(str(tmp_path / "art"), artifact))
        assert (loaded.model.pair_mode, loaded.model.max_pairs) == ("auto", 2000)
        refit = IFair(**loaded.model.get_params())
        refit._protected = loaded.protected_indices
        X = artifact.scaler.transform(tiny_compas.X)
        assert refit._build_objective(X).pair_mode == "sampled"


class TestLandmarkMetadata:
    """Artifacts of the retired landmark pair mode still load.

    The anchor payload is checked and dropped (``transform`` never used
    it), and the mode loads as ``full``: the exact objective the
    landmark loss estimated.
    """

    @pytest.fixture
    def landmark_saved(self, saved, tmp_path, make_landmark_era_artifact):
        legacy = make_landmark_era_artifact(saved, str(tmp_path / "legacy"))
        return load_artifact(saved), load_artifact(legacy), legacy

    def test_manifest_records_oracle_config(self, landmark_saved):
        plain, legacy, _ = landmark_saved
        assert legacy.model.pair_mode == "full"
        assert legacy.model.max_pairs is None
        assert (plain.model.pair_mode, plain.model.max_pairs) == ("auto", 500)

    def test_transform_bitwise_equal_after_reload(self, landmark_saved, tiny_compas):
        plain, legacy, _ = landmark_saved
        X = plain.scaler.transform(tiny_compas.X[:32])
        assert np.array_equal(legacy.model.transform(X), plain.model.transform(X))

    def test_landmark_count_mismatch_rejected(self, landmark_saved):
        _, _, path = landmark_saved
        manifest_path = os.path.join(path, MANIFEST_NAME)
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["model"]["n_landmarks"] = 3
        # Keep the checksum valid: only the manifest text changes.
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ArtifactError, match="landmark count"):
            load_artifact(path)

    def test_non_landmark_artifacts_stay_clean(self, landmark_saved, tmp_path):
        """No artifact writes anchors, not even one re-saved from a
        landmark-era load."""
        _, legacy, _ = landmark_saved
        path = save_artifact(str(tmp_path / "resaved"), legacy)
        with open(os.path.join(path, MANIFEST_NAME)) as fh:
            model = json.load(fh)["model"]
        assert "n_landmarks" not in model and "landmark_method" not in model
        assert model["pair_mode"] == "full"
        with np.load(os.path.join(path, ARRAYS_NAME)) as npz:
            assert "model.landmarks" not in npz.files
