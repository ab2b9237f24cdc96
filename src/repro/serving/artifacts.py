"""Versioned persistence of fitted serving pipelines.

A fitted iFair pipeline is small — prototypes ``V``, weights ``alpha``,
plus the preprocessing (one-hot encoder, scaler) and decision heads
(logistic scorer, per-group thresholds) around it — so it serialises to
a *directory artifact*:

* ``manifest.json`` — format version, component configuration, shapes,
  and a checksum of the array payload (everything human-inspectable);
* ``arrays.npz`` — every float array, stored losslessly so a reloaded
  model reproduces ``transform`` output **bitwise**.

``save_artifact`` / ``load_artifact`` round-trip a
:class:`ServingArtifact`; loading validates the manifest schema, the
format version, the checksum, and cross-component shape consistency
before reconstructing real fitted estimator objects.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.model import IFair
from repro.exceptions import ValidationError
from repro.learners.encoder import OneHotEncoder
from repro.learners.logistic import LogisticRegression
from repro.learners.scaler import StandardScaler
from repro.posthoc.thresholds import GroupThresholdAdjuster

ARTIFACT_FORMAT = "repro-serving-artifact"
ARTIFACT_VERSION = 1
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"

_REQUIRED_MANIFEST_KEYS = ("format", "version", "arrays_sha256", "model")


class ArtifactError(ValidationError):
    """A serving artifact is missing, malformed, or inconsistent."""


@dataclass
class ServingArtifact:
    """Everything the inference engine needs to answer requests.

    Attributes
    ----------
    model:
        The fitted :class:`~repro.core.model.IFair` representation.
    protected_indices:
        Encoded columns carrying protected attributes (as at fit time).
    encoder:
        Optional fitted :class:`OneHotEncoder` — present when the
        service accepts raw (mixed categorical/numeric) records.
    scaler:
        Optional fitted :class:`StandardScaler` applied before iFair.
    scorer:
        Optional fitted :class:`LogisticRegression` over the fair
        representation; required by the score/rank/decide endpoints.
    thresholds:
        Optional fitted :class:`GroupThresholdAdjuster`; required by
        the decide endpoint.
    feature_names:
        Encoded feature names (documentation only).
    metadata:
        Free-form provenance (dataset name, seed, fit configuration).
    checksum:
        SHA-256 of the array payload; set by ``save_artifact`` /
        ``load_artifact`` so the service can report which exact model
        weights it is answering with (``/v1/health``).
    """

    model: IFair
    protected_indices: np.ndarray
    encoder: Optional[OneHotEncoder] = None
    scaler: Optional[StandardScaler] = None
    scorer: Optional[LogisticRegression] = None
    thresholds: Optional[GroupThresholdAdjuster] = None
    feature_names: List[str] = field(default_factory=list)
    metadata: Dict = field(default_factory=dict)
    checksum: Optional[str] = None

    def __post_init__(self):
        if self.model.prototypes_ is None or self.model.alpha_ is None:
            raise ArtifactError("artifact requires a fitted IFair model")
        self.protected_indices = np.asarray(self.protected_indices, dtype=np.intp)

    @property
    def n_features(self) -> int:
        """Encoded input dimensionality the model expects."""
        return int(self.model.prototypes_.shape[1])


# ----------------------------------------------------------------------
# save


def _model_manifest(model: IFair) -> Dict:
    manifest = {
        "n_prototypes": model.n_prototypes,
        "lambda_util": model.lambda_util,
        "mu_fair": model.mu_fair,
        "p": model.p,
        "init": model.init,
        "loss": float(model.loss_),
        "shape": list(model.prototypes_.shape),
        "pair_mode": model.pair_mode,
        # The pair budget resolves pair_mode="auto", so online refits
        # optimise the objective the served model was fitted on.
        "max_pairs": model.max_pairs,
    }
    return manifest


def artifact_payload(artifact: ServingArtifact) -> "tuple[Dict, Dict[str, np.ndarray]]":
    """Split ``artifact`` into its (manifest, arrays) wire form.

    The manifest is the JSON-safe configuration half (without the
    ``arrays_sha256`` digest, which is a property of the serialized npz
    payload and is stamped by :func:`save_artifact`); the arrays dict is
    the float payload half.  ``save_artifact`` writes both to disk, and
    :func:`assemble_artifact` is the inverse.
    """
    arrays: Dict[str, np.ndarray] = {
        "model.prototypes": artifact.model.prototypes_,
        "model.alpha": artifact.model.alpha_,
        "protected_indices": artifact.protected_indices.astype(np.int64),
    }
    manifest: Dict = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "model": _model_manifest(artifact.model),
        "feature_names": list(artifact.feature_names),
        "metadata": dict(artifact.metadata),
    }
    if artifact.encoder is not None:
        enc = artifact.encoder
        if enc._n_input_cols is None:
            raise ArtifactError("encoder must be fitted before saving")
        manifest["encoder"] = {
            "categorical_columns": list(enc.categorical_columns),
            "n_input_cols": int(enc._n_input_cols),
            "categories": {str(c): list(v) for c, v in enc.categories_.items()},
            "feature_names": list(enc.feature_names_),
        }
    if artifact.scaler is not None:
        if artifact.scaler.mean_ is None or artifact.scaler.scale_ is None:
            raise ArtifactError("scaler must be fitted before saving")
        manifest["scaler"] = {"with_mean": artifact.scaler.with_mean}
        arrays["scaler.mean"] = artifact.scaler.mean_
        arrays["scaler.scale"] = artifact.scaler.scale_
    if artifact.scorer is not None:
        if artifact.scorer.coef_ is None:
            raise ArtifactError("scorer must be fitted before saving")
        manifest["scorer"] = {
            "l2": artifact.scorer.l2,
            "max_iter": artifact.scorer.max_iter,
            "tol": artifact.scorer.tol,
            "intercept": float(artifact.scorer.intercept_),
        }
        arrays["scorer.coef"] = artifact.scorer.coef_
    if artifact.thresholds is not None:
        if not artifact.thresholds.thresholds_:
            raise ArtifactError("threshold adjuster must be fitted before saving")
        manifest["thresholds"] = {
            "criterion": artifact.thresholds.criterion,
            "target_rate": artifact.thresholds.target_rate,
            "per_group": {
                str(int(g)): float(t)
                for g, t in artifact.thresholds.thresholds_.items()
            },
        }
    return manifest, arrays


def save_artifact(path: str, artifact: ServingArtifact) -> str:
    """Write ``artifact`` to directory ``path``; returns the path.

    The directory is created if needed.  Existing manifest/array files
    are overwritten, so a path can be re-used across refits.
    """
    os.makedirs(path, exist_ok=True)
    manifest, arrays = artifact_payload(artifact)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    payload = buffer.getvalue()
    manifest["arrays_sha256"] = hashlib.sha256(payload).hexdigest()
    artifact.checksum = manifest["arrays_sha256"]
    with open(os.path.join(path, ARRAYS_NAME), "wb") as fh:
        fh.write(payload)
    with open(os.path.join(path, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# load


def _read_manifest(path: str) -> Dict:
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise ArtifactError(f"no {MANIFEST_NAME} under {path!r}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"cannot read manifest: {exc}")
    if not isinstance(manifest, dict):
        raise ArtifactError("manifest must be a JSON object")
    missing = [k for k in _REQUIRED_MANIFEST_KEYS if k not in manifest]
    if missing:
        raise ArtifactError(f"manifest missing required keys {missing}")
    if manifest["format"] != ARTIFACT_FORMAT:
        raise ArtifactError(f"unknown artifact format {manifest['format']!r}")
    if manifest["version"] != ARTIFACT_VERSION:
        raise ArtifactError(
            f"unsupported artifact version {manifest['version']!r} "
            f"(this build reads version {ARTIFACT_VERSION})"
        )
    return manifest


def _read_arrays(path: str, manifest: Dict) -> Dict[str, np.ndarray]:
    arrays_path = os.path.join(path, ARRAYS_NAME)
    if not os.path.isfile(arrays_path):
        raise ArtifactError(f"no {ARRAYS_NAME} under {path!r}")
    try:
        with open(arrays_path, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise ArtifactError(f"cannot read array payload: {exc}")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != manifest["arrays_sha256"]:
        raise ArtifactError(
            "array payload checksum mismatch — artifact is corrupt or was "
            "edited after saving"
        )
    with np.load(io.BytesIO(payload)) as npz:
        return {name: npz[name] for name in npz.files}


def _integer(value) -> int:
    """``value`` as an int; a bool or a non-integral number is malformed."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _model_value(spec: Dict, key: str, convert):
    """``convert(spec[key])``; a failed conversion raises ArtifactError naming ``key``."""
    try:
        return convert(spec[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"model manifest {key!r} is malformed: {exc}") from None


def _load_model(manifest: Dict, arrays: Dict[str, np.ndarray]) -> IFair:
    spec = manifest["model"]
    for key in ("n_prototypes", "lambda_util", "mu_fair", "p", "init", "shape"):
        if key not in spec:
            raise ArtifactError(f"model manifest missing {key!r}")
    for name in ("model.prototypes", "model.alpha"):
        if name not in arrays:
            raise ArtifactError(f"array payload missing {name!r}")
    prototypes = np.asarray(arrays["model.prototypes"], dtype=np.float64)
    alpha = np.asarray(arrays["model.alpha"], dtype=np.float64)
    if list(prototypes.shape) != list(spec["shape"]):
        raise ArtifactError(
            f"prototype shape {list(prototypes.shape)} disagrees with "
            f"manifest {spec['shape']}"
        )
    if alpha.shape != (prototypes.shape[1],):
        raise ArtifactError("alpha length disagrees with prototype width")
    # Anchor indices of the retired landmark pair mode, which transform
    # never used: an old artifact's payload is still checked, then the
    # anchors are dropped.
    if "model.landmarks" in arrays and "n_landmarks" in spec:
        if _model_value(spec, "n_landmarks", _integer) != arrays["model.landmarks"].size:
            raise ArtifactError(
                "landmark count disagrees between manifest and array payload"
            )
    # Optional keys: absent in older (still version-1) artifacts, which
    # load exactly as before.
    pair_mode = str(spec.get("pair_mode", "auto"))
    if pair_mode == "landmark":
        # The exact objective the landmark loss (scaled by M / L)
        # estimated, so an online refit of an old artifact still runs.
        pair_mode = "full"
    max_pairs = None
    if spec.get("max_pairs") is not None:
        # Checked here: a bad budget would otherwise load and fail at
        # every online refit.
        max_pairs = _model_value(spec, "max_pairs", _integer)
        if max_pairs < 1:
            raise ArtifactError(
                f"model manifest 'max_pairs' must be null or >= 1, got {max_pairs}"
            )
    model = IFair(
        n_prototypes=_model_value(spec, "n_prototypes", _integer),
        lambda_util=_model_value(spec, "lambda_util", float),
        mu_fair=_model_value(spec, "mu_fair", float),
        p=_model_value(spec, "p", float),
        init=str(spec["init"]),
        pair_mode=pair_mode,
        max_pairs=max_pairs,
    )
    model.prototypes_ = prototypes
    model.alpha_ = alpha
    model.loss_ = _model_value(spec, "loss", float) if "loss" in spec else np.inf
    return model


def _load_encoder(spec: Dict) -> OneHotEncoder:
    encoder = OneHotEncoder(spec["categorical_columns"])
    encoder._n_input_cols = int(spec["n_input_cols"])
    encoder.categories_ = {int(c): list(v) for c, v in spec["categories"].items()}
    encoder.feature_names_ = list(spec["feature_names"])
    return encoder


def _load_scaler(spec: Dict, arrays: Dict[str, np.ndarray]) -> StandardScaler:
    for name in ("scaler.mean", "scaler.scale"):
        if name not in arrays:
            raise ArtifactError(f"array payload missing {name!r}")
    scaler = StandardScaler(with_mean=bool(spec["with_mean"]))
    scaler.mean_ = np.asarray(arrays["scaler.mean"], dtype=np.float64)
    scaler.scale_ = np.asarray(arrays["scaler.scale"], dtype=np.float64)
    scaler._fitted = True
    return scaler


def _load_scorer(spec: Dict, arrays: Dict[str, np.ndarray]) -> LogisticRegression:
    if "scorer.coef" not in arrays:
        raise ArtifactError("array payload missing 'scorer.coef'")
    scorer = LogisticRegression(
        l2=float(spec["l2"]), max_iter=int(spec["max_iter"]), tol=float(spec["tol"])
    )
    scorer.coef_ = np.asarray(arrays["scorer.coef"], dtype=np.float64)
    scorer.intercept_ = float(spec["intercept"])
    scorer._fitted = True
    return scorer


def _load_thresholds(spec: Dict) -> GroupThresholdAdjuster:
    adjuster = GroupThresholdAdjuster(
        criterion=str(spec["criterion"]), target_rate=spec.get("target_rate")
    )
    adjuster.thresholds_ = {
        float(group): float(threshold)
        for group, threshold in spec["per_group"].items()
    }
    if set(adjuster.thresholds_) != {0.0, 1.0}:
        raise ArtifactError("threshold manifest must cover groups 0 and 1")
    return adjuster


def assemble_artifact(
    manifest: Dict,
    arrays: Dict[str, np.ndarray],
    checksum: Optional[str] = None,
) -> ServingArtifact:
    """Reconstruct a :class:`ServingArtifact` from its wire form.

    Inverse of :func:`artifact_payload`: validates component manifests
    and cross-component shape consistency, then rebuilds the fitted
    estimator objects.  Nothing here writes into ``arrays``.  ``checksum``
    is recorded verbatim (callers that read from disk pass the verified
    ``arrays_sha256``; in-memory callers may pass ``None``).
    """
    model = _load_model(manifest, arrays)
    if "protected_indices" not in arrays:
        raise ArtifactError("array payload missing 'protected_indices'")
    protected = np.asarray(arrays["protected_indices"], dtype=np.intp)
    n_features = model.prototypes_.shape[1]
    if protected.size and (protected.min() < 0 or protected.max() >= n_features):
        raise ArtifactError("protected indices out of range for the model")

    encoder = scaler = scorer = thresholds = None
    try:
        if "encoder" in manifest:
            encoder = _load_encoder(manifest["encoder"])
        if "scaler" in manifest:
            scaler = _load_scaler(manifest["scaler"], arrays)
        if "scorer" in manifest:
            scorer = _load_scorer(manifest["scorer"], arrays)
        if "thresholds" in manifest:
            thresholds = _load_thresholds(manifest["thresholds"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed component manifest: {exc!r}")

    if scaler is not None and scaler.scale_.shape[0] != n_features:
        raise ArtifactError("scaler width disagrees with the model input width")
    if encoder is not None and len(encoder.feature_names_) != n_features:
        raise ArtifactError("encoder output width disagrees with the model")
    if scorer is not None and scorer.coef_.shape[0] != n_features:
        raise ArtifactError(
            "scorer width disagrees with the representation width"
        )

    return ServingArtifact(
        model=model,
        protected_indices=protected,
        encoder=encoder,
        scaler=scaler,
        scorer=scorer,
        thresholds=thresholds,
        feature_names=list(manifest.get("feature_names", [])),
        metadata=dict(manifest.get("metadata", {})),
        checksum=checksum,
    )


def load_artifact(path: str) -> ServingArtifact:
    """Read, validate, and reconstruct an artifact directory."""
    manifest = _read_manifest(path)
    arrays = _read_arrays(path, manifest)
    return assemble_artifact(
        manifest, arrays, checksum=str(manifest["arrays_sha256"])
    )
