"""The stable public API of the library.

``repro.api`` is the supported import surface: every name in
``__all__`` is covered by the compatibility promise — it keeps its
signature and semantics across minor releases, and tier-1 tests pin
its behaviour.  Code should import from here::

    from repro.api import IFair, fit_serving_pipeline, serve_artifact

Internal module paths (``repro.core.model``, ``repro.serving.engine``,
...) keep working but are *not* stable: refactors may move them
without notice.  Names that exist on the root package but are not part
of the stable surface can still be reached through this module for one
deprecation cycle — attribute access forwards to :mod:`repro` with a
:class:`DeprecationWarning` naming the supported spelling.

The surface, by layer:

* **Models** — :class:`IFair` (the paper's learner, including
  ``partial_fit`` online updates), :class:`LFR` (the closest
  baseline), and :class:`ParamsMixin` (the sklearn-compatible
  ``get_params``/``set_params`` protocol both speak).
* **Serving** — :func:`fit_serving_pipeline` to package a fitted
  pipeline, :func:`save_artifact`/:func:`load_artifact` for the
  versioned on-disk artifact, :func:`serve_artifact` +
  :class:`DecisionService`/:class:`InferenceEngine` to answer
  requests, :class:`InProcessClient`/:class:`HTTPClient` to make
  them, and :class:`ServingArtifact` itself.
* **Online operation** — :class:`FairnessMonitor` (drift detection
  over served decisions), :class:`OnlineController` +
  :class:`DriftPolicy` + :data:`DRIFT_POLICIES` (the drift-response
  loop: sliding-window warm refits and blue/green hot reloads).
* **Errors** — the exception hierarchy callers are expected to catch.

Importing this module loads no SciPy, so a serving process may import
from it: :func:`fit_serving_pipeline` is resolved on first access, as
in :mod:`repro.serving`, because :mod:`repro.serving.fit` loads SciPy's
solver when it is imported.
"""

from __future__ import annotations

import warnings

from repro.baselines import LFR
from repro.core import IFair
from repro.exceptions import (
    NotFittedError,
    ReproError,
    SchemaError,
    ValidationError,
)
from repro.learners.base import ParamsMixin
from repro.serving import (
    DRIFT_POLICIES,
    DecisionService,
    DriftPolicy,
    HTTPClient,
    InferenceEngine,
    InProcessClient,
    OnlineController,
    ServingArtifact,
    load_artifact,
    save_artifact,
    serve_artifact,
)
from repro.telemetry.fairness import FairnessMonitor

__all__ = [
    # models
    "IFair",
    "LFR",
    "ParamsMixin",
    # serving
    "ServingArtifact",
    "fit_serving_pipeline",
    "save_artifact",
    "load_artifact",
    "serve_artifact",
    "InferenceEngine",
    "DecisionService",
    "InProcessClient",
    "HTTPClient",
    # online operation
    "FairnessMonitor",
    "OnlineController",
    "DriftPolicy",
    "DRIFT_POLICIES",
    # errors
    "ReproError",
    "ValidationError",
    "NotFittedError",
    "SchemaError",
]


def __getattr__(name: str):
    """Lazy ``fit_serving_pipeline``, then the deprecation shim.

    The shim forwards legacy names to the root package: it lets
    ``repro.api`` stand in for older ``import repro`` call sites (e.g.
    ``repro.api.SVDTransform``) while steering them — loudly but
    non-fatally — toward the supported spelling.
    """
    if name == "fit_serving_pipeline":
        from repro.serving.fit import fit_serving_pipeline

        return fit_serving_pipeline
    import repro

    if not name.startswith("_") and hasattr(repro, name):
        warnings.warn(
            f"repro.api.{name} is not part of the stable API; "
            f"import it from the root package (repro.{name}) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return getattr(repro, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
