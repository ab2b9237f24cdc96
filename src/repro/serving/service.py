"""JSON decision service over the inference engine (stdlib only).

One request path serves both tiers and both transports: :func:`respond`
maps ``(engine, method, path, raw body bytes)`` to ``(status, content
type, body bytes)``.  The HTTP handler only frames it, and the
in-process client calls it with the JSON bytes HTTP would carry.
Data-plane POSTs go to ``engine.handle_http`` as raw bytes; there
:func:`answer` decodes them, runs :func:`dispatch` and encodes the
reply, in-process on the single-engine tier and inside a worker on the
multi-worker tier.  GET and admin verbs run :func:`dispatch` in the
serving process, because they read or orchestrate the whole tier.

Endpoints
---------
``GET  /v1/health``     liveness + version/checksum/uptime + metadata
``GET  /v1/stats``      traffic / batching / fairness counters
``GET  /v1/metrics``    Prometheus text exposition (all process series)
``POST /v1/transform``  ``{"records": [[...], ...]}`` -> fair representations
``POST /v1/score``      ``{"records": ...}`` -> outcome probabilities
``POST /v1/rank``       ``{"records": ..., "top_k"?, "groups"?}`` -> ordering
``POST /v1/decide``     ``{"records": ..., "groups": [...]}`` -> decisions
``POST /v1/admin/reload``  ``{"artifact": "<dir>"}`` -> blue/green model swap
(multi-worker tier only; see :mod:`repro.serving.dispatcher`)
``GET  /v1/admin/online``   drift-response controller status
``POST /v1/admin/online``   manual warm refit + reload (bypasses policy)
(``online_refit=True`` services only; see :mod:`repro.serving.online`)

``/v1/metrics`` answers with raw ``text/plain`` in the Prometheus
exposition format; every other reply, errors included, is JSON, and
429/503 replies also carry a ``Retry-After`` header over HTTP.  Every
request the HTTP handler answers emits a structured access-log record
(method, path, status, latency_ms) through :mod:`repro.telemetry.logs`
— quiet unless ``configure_logging`` was called.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

import repro
from repro.exceptions import ReproError, ValidationError
from repro.serving.artifacts import load_artifact
from repro.serving.engine import InferenceEngine
from repro.telemetry.logs import get_logger
from repro.telemetry.tracing import get_tracer

MAX_REQUEST_BYTES = 8 * 1024 * 1024

JSON_TYPE = "application/json"
PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_ACCESS_LOG = get_logger("serving.access")
_SERVER_LOG = get_logger("serving.http")


#: Default ``Retry-After`` hint (seconds) for 429/503 replies whose
#: originating error did not carry a better estimate.
DEFAULT_RETRY_AFTER_S = 1.0


class RequestError(ValidationError):
    """A malformed or unanswerable service request (HTTP 4xx/503).

    Overload/unavailability statuses (429/503) carry ``retry_after_s``
    (the server's estimate of when retrying could succeed) and
    ``worker`` (the engine slot involved, when one was) so both
    transports can surface them.
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        retry_after_s: Optional[float] = None,
        worker: Optional[int] = None,
    ):
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s
        self.worker = worker


def error_payload(
    exc: BaseException, default_status: int = 400
) -> Tuple[int, bytes]:
    """Status and structured JSON error body for ``exc``.

    Every 429/503 body carries ``error`` + ``retry_after_s`` +
    ``worker`` (satellite contract of the resilience layer); other
    statuses keep the plain ``{"error": ...}`` shape.
    """
    status = int(getattr(exc, "status", default_status))
    body: Dict = {"error": str(exc)}
    if status in (429, 503):
        retry_after = getattr(exc, "retry_after_s", None)
        body["retry_after_s"] = (
            DEFAULT_RETRY_AFTER_S if retry_after is None else float(retry_after)
        )
        body["worker"] = getattr(exc, "worker", None)
    return status, json.dumps(body).encode("utf-8")


def _require_records(payload: Dict):
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    if "records" not in payload:
        raise RequestError("request body must carry a 'records' field")
    records = payload["records"]
    if not isinstance(records, list) or not records:
        raise RequestError("'records' must be a non-empty JSON array")
    return records


def dispatch(
    engine: InferenceEngine, method: str, path: str, payload: Optional[Dict]
) -> Dict:
    """Answer one decoded request; raises :class:`RequestError` on 4xx.

    The data-plane verbs call the engine's model methods, so they run
    where the model lives (:func:`answer`); on the multi-worker tier
    the serving process only routes GET and admin verbs here.
    """
    payload = payload or {}
    path = path.split("?", 1)[0]  # health probes may append query strings
    route = (method.upper(), path.rstrip("/") or path)
    if route == ("GET", "/v1/health"):
        # Each tier reports its own liveness: the multi-worker tier's
        # ok / degraded / unavailable verdict with breaker detail, the
        # in-process engine a constant ok.
        detail = dict(engine.health())
        return {
            "status": detail.pop("status"),
            "version": repro.__version__,
            # The *active* checksum: a blue/green reload swaps the
            # dispatcher's artifact, so health always names the weights
            # currently answering.
            "artifact_checksum": engine.artifact.checksum,
            "uptime_s": engine.uptime_s,
            "endpoints": engine.endpoints(),
            "n_features": engine.artifact.n_features,
            "workers": detail["workers"],
            "metadata": engine.artifact.metadata,
            "resilience": detail,
        }
    if route == ("GET", "/v1/stats"):
        return engine.stats()
    if route == ("GET", "/v1/admin/online"):
        controller = engine.online_controller
        if controller is None:
            return {"enabled": False}
        return controller.status()
    try:
        if route == ("POST", "/v1/admin/online"):
            controller = engine.online_controller
            if controller is None:
                raise RequestError(
                    "online refit is not enabled "
                    "(serve with online_refit=True / --online-refit)"
                )
            # trigger() reports failures in its body instead of raising
            # — a manual refit that fails must not read as a 4xx/5xx of
            # the serving path, which is still healthy.
            return controller.trigger()
        if route == ("POST", "/v1/admin/reload"):
            if not hasattr(engine, "reload"):
                raise RequestError(
                    "model reload requires the multi-worker tier "
                    "(serve with workers >= 2)"
                )
            if not isinstance(payload, dict) or not isinstance(
                payload.get("artifact"), str
            ):
                raise RequestError(
                    "reload requires an 'artifact' directory path"
                )
            return engine.reload(payload["artifact"])
        if route == ("POST", "/v1/transform"):
            Z = engine.transform(_require_records(payload))
            return {"transformed": Z.tolist()}
        if route == ("POST", "/v1/score"):
            scores = engine.score(_require_records(payload))
            return {"scores": scores.tolist()}
        if route == ("POST", "/v1/rank"):
            records = _require_records(payload)
            return engine.rank(
                records,
                top_k=payload.get("top_k"),
                groups=payload.get("groups"),
            )
        if route == ("POST", "/v1/decide"):
            records = _require_records(payload)
            if "groups" not in payload:
                raise RequestError("decide requires a 'groups' field")
            return engine.decide(records, payload["groups"])
    except RequestError:
        raise
    except ReproError as exc:
        # Errors that know their HTTP status (e.g. a reload that finds
        # the dispatcher stopped) keep it — and their retry/worker
        # context; plain model errors stay 400s.
        raise RequestError(
            str(exc),
            status=getattr(exc, "status", 400),
            retry_after_s=getattr(exc, "retry_after_s", None),
            worker=getattr(exc, "worker", None),
        )
    except (TypeError, ValueError) as exc:
        raise RequestError(f"malformed request: {exc}")
    raise RequestError(f"no endpoint {method.upper()} {path}", status=404)


def answer(
    engine: InferenceEngine, path: str, raw: bytes, method: str = "POST"
) -> Tuple[int, bytes]:
    """One request body, JSON in / JSON out: ``(status, body bytes)``.

    ``InferenceEngine.handle_http`` and every dispatcher worker answer
    data-plane POSTs with this; :func:`respond` answers GET and admin
    verbs with it in the serving process.
    """
    try:
        payload = json.loads(raw.decode("utf-8")) if raw else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return error_payload(
            RequestError(f"request body is not valid JSON: {exc}")
        )
    try:
        body = dispatch(engine, method, path, payload)
    except RequestError as exc:
        return error_payload(exc)
    return 200, json.dumps(body).encode("utf-8")


def respond(
    engine: InferenceEngine, method: str, path: str, raw: bytes
) -> Tuple[int, str, bytes]:
    """Answer one request: ``(status, content type, body bytes)``.

    The only request path, for both tiers and both transports.
    """
    method = method.upper()
    path = path.split("?", 1)[0]
    path = path.rstrip("/") or path
    if method == "POST" and not path.startswith("/v1/admin"):
        controller = engine.online_controller
        if controller is not None:
            # Feed the drift-response window.  tap() is a bounded
            # append that never raises — the request path continues
            # identically with or without the controller.
            controller.tap(path, raw)
        try:
            status, body = engine.handle_http(path, raw)
        except ReproError as exc:
            # The multi-worker tier's own failures: worker loss (503)
            # and shed load (429), with their retry/worker context.
            status, body = error_payload(exc, default_status=503)
        return status, JSON_TYPE, body
    if method == "GET" and path == "/v1/metrics":
        # Prometheus scrapers expect the exposition text bare, not
        # wrapped in JSON.
        return 200, PROMETHEUS_TYPE, engine.metrics_text().encode("utf-8")
    status, body = answer(engine, path, raw, method)
    return status, JSON_TYPE, body


def _retry_after(body: bytes) -> str:
    """``Retry-After`` delta-seconds from a 429/503 JSON error body.

    HTTP wants an integer; the JSON body keeps the precise float for
    clients that parse it.
    """
    try:
        seconds = float(json.loads(body)["retry_after_s"])
    except (ValueError, TypeError, KeyError):
        seconds = DEFAULT_RETRY_AFTER_S
    return str(max(1, math.ceil(seconds)))


class _Handler(BaseHTTPRequestHandler):
    """HTTP framing around :func:`respond`."""

    server_version = "repro-serving/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a reply goes out as a header write and a body write.
    # With Nagle on, a keep-alive connection holds the body until the
    # client's delayed ACK fires, about 40 ms per request.
    disable_nagle_algorithm = True

    def _reply(self, status: int, content_type: str, data: bytes) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            if status in (429, 503):
                self.send_header("Retry-After", _retry_after(data))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError) as exc:
            # The client hung up mid-reply.  Not a server fault: eat the
            # traceback, count it, and drop the (dead) connection.
            self.close_connection = True
            registry = getattr(self.server.engine, "registry", None)
            if registry is not None:
                registry.counter("serving_client_disconnects_total").inc()
            _SERVER_LOG.warning(
                "client disconnected mid-reply",
                extra={
                    "method": self.command,
                    "path": self.path,
                    "status": status,
                    "error": type(exc).__name__,
                },
            )

    def _refuse(self, status: int, message: str) -> None:
        """Reply with an error and close: the body was left unread.

        Without the close, a keep-alive client's next request would be
        parsed out of the unread body bytes.
        """
        self.close_connection = True
        self._reply(
            status, JSON_TYPE, json.dumps({"error": message}).encode("utf-8")
        )

    def _log_access(self, status: int, start: float) -> None:
        level = 20 if self.server.verbose else 10  # INFO / DEBUG
        if not _ACCESS_LOG.isEnabledFor(level):
            return  # quiet by default: build no record on the hot path
        latency_ms = (time.perf_counter() - start) * 1000.0
        _ACCESS_LOG.log(
            level,
            "%s %s",
            self.command,
            self.path,
            extra={
                "method": self.command,
                "path": self.path,
                "status": status,
                "latency_ms": round(latency_ms, 3),
            },
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        if "Transfer-Encoding" in self.headers:
            # Only Content-Length framing is read.
            self._refuse(411, "send the request body with a Content-Length")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_REQUEST_BYTES:
            self._refuse(400, "invalid or oversized request body")
            return
        raw = self.rfile.read(length)
        start = time.perf_counter()
        status = 500
        try:
            with get_tracer().span(
                "serving.dispatch", method=self.command, path=self.path
            ):
                status, content_type, data = respond(
                    self.server.engine, self.command, self.path, raw
                )
            self._reply(status, content_type, data)
        finally:
            self._log_access(status, start)

    do_POST = do_GET  # one framing for both verbs

    def log_message(self, format: str, *args) -> None:
        # http.server's own notices (malformed request lines, broken
        # pipes) route through the logging layer instead of stderr;
        # per-request access records are emitted by do_GET/do_POST
        # with status and latency.  Quiet by default either way, and
        # then send_response's per-reply call formats nothing.
        level = 20 if self.server.verbose else 10
        if _SERVER_LOG.isEnabledFor(level):
            _SERVER_LOG.log(level, format % args if args else format)


def _stop_engine(engine: InferenceEngine) -> None:
    """Tear an engine down: its online controller first, then the tier.

    The controller schedules reloads through the engine, so it must
    stop before the engine is torn down beneath it.  Only the
    multi-worker tier has processes to stop.
    """
    if engine.online_controller is not None:
        engine.online_controller.stop()
    engine_stop = getattr(engine, "stop", None)
    if callable(engine_stop):
        engine_stop()


class DecisionService:
    """Own an engine + HTTP server; usable blocking or in-thread.

    ``start()``/``stop()`` run the server on a daemon thread (tests,
    notebooks); ``serve_forever()`` blocks (the CLI path).  Binding
    port 0 picks a free port, exposed via :attr:`address`.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 8351,
        verbose: bool = False,
    ):
        self.engine = engine
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.engine = engine
        self._server.verbose = verbose
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) actually bound."""
        return self._server.server_address[:2]

    def start(self) -> "DecisionService":
        if self._thread is not None:
            raise ValidationError("service already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Drain in-flight requests and stop; loud if the thread leaks.

        ``server_close()`` joins every live handler thread
        (``ThreadingMixIn`` with ``block_on_close``), so requests in
        flight complete before the engine — possibly a multi-process
        dispatcher — is torn down beneath them.  A server thread that
        survives its join is an error, not a shrug: it would keep the
        port bound and pin the engine alive invisibly.
        """
        self._server.shutdown()
        self._server.server_close()
        thread, self._thread = self._thread, None
        leaked = thread is not None and (
            thread.join(timeout=timeout) or thread.is_alive()
        )
        _stop_engine(self.engine)
        if leaked:
            message = (
                f"server thread failed to stop within {timeout:.1f}s; "
                "a handler is wedged and the listening socket may stay bound"
            )
            _SERVER_LOG.error(message)
            raise ReproError(message)

    def serve_forever(self) -> None:
        try:
            self._server.serve_forever()
        finally:
            self._server.server_close()
            _stop_engine(self.engine)

    def __enter__(self) -> "DecisionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_artifact(
    artifact_path: str,
    *,
    host: str = "127.0.0.1",
    port: int = 8351,
    batch_size: int = 256,
    workers: int = 1,
    deadline_s: Optional[float] = None,
    max_inflight: Optional[int] = None,
    shed_queue_s: float = 0.1,
    max_retries: int = 2,
    breaker_threshold: int = 5,
    breaker_window_s: float = 30.0,
    chaos=None,
    online_refit: bool = False,
    refresh_window: int = 512,
    drift_policy: str = "either",
    refit_cooldown_s: float = 30.0,
    verbose: bool = False,
) -> DecisionService:
    """Load an artifact directory and build a (not yet started) service.

    ``workers=1`` (the default) serves a single in-process engine —
    simplest to debug, no child processes.  ``workers >= 2`` builds an
    :class:`~repro.serving.dispatcher.EngineDispatcher`: N forked
    engine workers, each holding its own copy of the artifact, with
    ``POST /v1/admin/reload`` blue/green swaps enabled.

    ``deadline_s`` / ``max_inflight`` / ``shed_queue_s`` /
    ``max_retries`` / ``chaos`` shape the dispatcher's resilience layer
    (per-request deadlines, admission control, reroute retries, fault
    injection) — they apply to the multi-worker tier only and are
    rejected for ``workers=1``, where there is no worker pipe to bound.
    ``breaker_threshold`` deaths within ``breaker_window_s`` evict a
    worker slot; chaos soaks should raise the threshold above the
    injected death rate (the breaker targets deterministic crash
    loops, not recoverable fault storms).

    ``online_refit=True`` attaches an
    :class:`~repro.serving.online.OnlineController`: served traffic is
    tapped into a ``refresh_window``-row sliding window, drift (per
    ``drift_policy``, one of :data:`~repro.serving.online.DRIFT_POLICIES`)
    triggers a warm ``partial_fit`` refit over the window — at most
    once per ``refit_cooldown_s`` — and the refreshed artifact is
    hot-swapped through the blue/green reload.  Requires ``workers >=
    2`` (the single-engine tier cannot reload).
    """
    if int(workers) < 1:
        raise ValidationError("workers must be a positive integer")
    resilience_requested = (
        deadline_s is not None or max_inflight is not None or chaos is not None
    )
    if int(workers) == 1 and resilience_requested:
        raise ValidationError(
            "deadline/admission/chaos knobs need the multi-worker tier "
            "(serve with workers >= 2)"
        )
    if online_refit and int(workers) == 1:
        raise ValidationError(
            "online refit needs the multi-worker tier "
            "(serve with workers >= 2)"
        )
    policy = None
    if online_refit:
        from repro.serving.online import DriftPolicy

        # Validate the knobs before any worker is forked.
        policy = DriftPolicy(
            policy=drift_policy,
            refresh_window=int(refresh_window),
            min_window=min(64, int(refresh_window)),
            cooldown_s=float(refit_cooldown_s),
        )
    artifact = load_artifact(artifact_path)
    if int(workers) == 1:
        engine = InferenceEngine(artifact, batch_size=batch_size)
    else:
        from repro.serving.dispatcher import EngineDispatcher

        engine = EngineDispatcher(
            artifact,
            n_workers=int(workers),
            batch_size=batch_size,
            deadline_s=deadline_s,
            max_inflight=max_inflight,
            shed_queue_s=shed_queue_s,
            max_retries=max_retries,
            breaker_threshold=breaker_threshold,
            breaker_window_s=breaker_window_s,
            chaos=chaos,
        )
    try:
        if policy is not None:
            from repro.serving.online import OnlineController

            engine.online_controller = OnlineController(
                engine, artifact_path, policy
            ).start()
        return DecisionService(engine, host=host, port=port, verbose=verbose)
    except BaseException:
        # Bind failures must not leak forked workers (or the
        # controller's background thread).
        _stop_engine(engine)
        raise

