"""Online serving: persist fitted pipelines and answer live requests.

The batch pipeline fits and measures; this package serves.  A fitted
pipeline is packaged as a versioned directory artifact
(:mod:`repro.serving.artifacts`), loaded into an
:class:`~repro.serving.engine.InferenceEngine` (micro-batching,
chunked evaluation), and exposed either in process
(:class:`~repro.serving.client.InProcessClient`) or over a stdlib JSON
HTTP API (:class:`~repro.serving.service.DecisionService`).  For
multi-core boxes, :class:`~repro.serving.dispatcher.EngineDispatcher`
fans the same API out to N forked engine workers, each holding its own
copy of the artifact (``serve_artifact(..., workers=N)``).

The dispatcher tier is deadline-aware and self-healing: per-request
deadlines with hung-worker kills and reroute retries, an admission
gate that sheds overload with 429 + ``Retry-After``, a crash-loop
breaker with jittered-backoff respawns and probation-based eviction,
and a :mod:`~repro.serving.chaos` fault plane (``REPRO_CHAOS``) for
testing all of it under injected crash/hang/slow/corrupt faults.
``serve_artifact(..., online_refit=True)`` additionally attaches an
:class:`~repro.serving.online.OnlineController` that answers fairness
drift and covariate shift with warm ``partial_fit`` refits over a
sliding traffic window and blue/green hot-swaps of the refreshed model.

Serving needs numpy alone: nothing imported here loads SciPy.
``fit_serving_pipeline`` is resolved on first access, since
:mod:`repro.serving.fit` loads SciPy's solver when it is imported.

Typical flow::

    artifact = fit_serving_pipeline(generate_compas(1000, random_state=7))
    save_artifact("artifacts/compas", artifact)
    ...
    engine = InferenceEngine(load_artifact("artifacts/compas"))
    client = InProcessClient(engine)
    client.decide(records, groups)
"""

from repro.serving.artifacts import (
    ARTIFACT_VERSION,
    ArtifactError,
    ServingArtifact,
    load_artifact,
    save_artifact,
)
from repro.serving.chaos import CHAOS_ENV, ChaosConfig, ChaosPlane
from repro.serving.client import (
    HTTPClient,
    InProcessClient,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.serving.dispatcher import (
    AdmissionError,
    DispatchError,
    EngineDispatcher,
)
from repro.serving.engine import InferenceEngine, MicroBatcher
from repro.serving.online import DRIFT_POLICIES, DriftPolicy, OnlineController
from repro.serving.service import DecisionService, RequestError, dispatch, serve_artifact

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ServingArtifact",
    "save_artifact",
    "load_artifact",
    "fit_serving_pipeline",
    "InferenceEngine",
    "MicroBatcher",
    "EngineDispatcher",
    "DispatchError",
    "AdmissionError",
    "CHAOS_ENV",
    "ChaosConfig",
    "ChaosPlane",
    "DRIFT_POLICIES",
    "DriftPolicy",
    "OnlineController",
    "DecisionService",
    "RequestError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceUnavailableError",
    "dispatch",
    "serve_artifact",
    "InProcessClient",
    "HTTPClient",
]


def __getattr__(name: str):
    if name == "fit_serving_pipeline":
        from repro.serving.fit import fit_serving_pipeline

        return fit_serving_pipeline
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
