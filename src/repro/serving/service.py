"""JSON decision service over the inference engine (stdlib only).

The HTTP layer is deliberately thin: every endpoint is implemented in
:func:`dispatch`, a pure function from ``(engine, method, path,
payload)`` to a JSON-safe dict.  The in-process client calls
``dispatch`` directly and the HTTP handler calls it per request, so
both request paths share one implementation and cannot drift apart.

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

Over HTTP, ``/v1/metrics`` answers with raw ``text/plain`` in the
Prometheus exposition format; through :func:`dispatch` (the in-process
client) the same text arrives under the ``"prometheus"`` key.  Every
handled request emits a structured access-log record (method, path,
status, latency_ms) through :mod:`repro.telemetry.logs` — quiet unless
``configure_logging`` was called.
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

_ACCESS_LOG = get_logger("serving.access")
_SERVER_LOG = get_logger("serving.http")


#: Default ``Retry-After`` hint (seconds) for 429/503 replies whose
#: originating error did not carry a better estimate.
DEFAULT_RETRY_AFTER_S = 1.0


class RequestError(ValidationError):
    """A malformed or unanswerable service request (HTTP 4xx/503).

    Overload/unavailability statuses (429/503) carry ``retry_after_s``
    (the server's estimate of when retrying could succeed) and
    ``worker`` (the engine slot involved, when one was) so both the
    HTTP layer and the in-process client can surface them.
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
) -> Tuple[int, Dict]:
    """Structured JSON error body for ``exc``.

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
    return status, body


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
    """Answer one service request; raises :class:`RequestError` on 4xx."""
    payload = payload or {}
    path = path.split("?", 1)[0]  # health probes may append query strings
    route = (method.upper(), path.rstrip("/") or path)
    if route == ("GET", "/v1/health"):
        health = {
            "status": "ok",
            "version": repro.__version__,
            # The *active* checksum: a blue/green reload swaps the
            # dispatcher's artifact, so health always names the weights
            # currently answering.
            "artifact_checksum": engine.artifact.checksum,
            "uptime_s": engine.uptime_s,
            "endpoints": engine.endpoints(),
            "n_features": engine.artifact.n_features,
            "workers": getattr(engine, "n_workers", 1),
            "metadata": engine.artifact.metadata,
        }
        # The multi-worker tier knows slot-level liveness: surface its
        # ok / degraded / unavailable verdict plus breaker detail.
        engine_health = getattr(engine, "health", None)
        if callable(engine_health):
            detail = dict(engine_health())
            health["status"] = detail.pop("status", "ok")
            health["resilience"] = detail
        return health
    if route == ("GET", "/v1/stats"):
        return engine.stats()
    if route == ("GET", "/v1/admin/online"):
        controller = getattr(engine, "online_controller", None)
        if controller is None:
            return {"enabled": False}
        return controller.status()
    if route == ("GET", "/v1/metrics"):
        # The HTTP handler unwraps this to a raw text/plain body; the
        # in-process client receives the exposition text under a key.
        return {"prometheus": engine.metrics_text()}
    try:
        if route == ("POST", "/v1/admin/online"):
            controller = getattr(engine, "online_controller", None)
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
        # Errors that know their HTTP status (e.g. the dispatcher's 503
        # on worker loss, its 429 on shed load) keep it — and their
        # retry/worker context; plain model errors stay 400s.
        raise RequestError(
            str(exc),
            status=getattr(exc, "status", 400),
            retry_after_s=getattr(exc, "retry_after_s", None),
            worker=getattr(exc, "worker", None),
        )
    except (TypeError, ValueError) as exc:
        raise RequestError(f"malformed request: {exc}")
    raise RequestError(f"no endpoint {method.upper()} {path}", status=404)


class _Handler(BaseHTTPRequestHandler):
    """Maps HTTP requests onto :func:`dispatch`."""

    server_version = "repro-serving/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a reply goes out as a header write and a body write.
    # With Nagle on, a keep-alive connection holds the body until the
    # client's delayed ACK fires, about 40 ms per request.
    disable_nagle_algorithm = True

    def _reply(
        self,
        status: int,
        body: Dict,
        *,
        raw: Optional[bytes] = None,
        content_type: str = "application/json",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        data = raw if raw is not None else json.dumps(body).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
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

    def _retry_after_header(self, body: Dict) -> Dict[str, str]:
        """``Retry-After`` header from a structured error body.

        HTTP wants integer delta-seconds; the JSON body keeps the
        precise float for clients that parse it.
        """
        retry_after = body.get("retry_after_s")
        if retry_after is None:
            retry_after = DEFAULT_RETRY_AFTER_S
        return {"Retry-After": str(max(1, math.ceil(float(retry_after))))}

    def _error_reply(self, exc: BaseException, default_status: int = 400) -> int:
        status, body = error_payload(exc, default_status)
        headers = (
            self._retry_after_header(body) if status in (429, 503) else None
        )
        self._reply(status, body, headers=headers)
        return status

    def _handle(self, payload: Optional[Dict]) -> None:
        start = time.perf_counter()
        status = 200
        try:
            with get_tracer().span(
                "serving.dispatch", method=self.command, path=self.path
            ):
                body = dispatch(
                    self.server.engine, self.command, self.path, payload
                )
        except RequestError as exc:
            status = self._error_reply(exc)
        else:
            if "prometheus" in body and self.path.split("?", 1)[0].rstrip(
                "/"
            ) == "/v1/metrics":
                # Prometheus scrapers expect the exposition text bare,
                # not wrapped in JSON.
                self._reply(
                    200,
                    {},
                    raw=body["prometheus"].encode("utf-8"),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            else:
                self._reply(200, body)
        finally:
            self._log_access(status, start)

    def _handle_raw(self, engine, path: str, raw: bytes) -> None:
        """Ship the undecoded POST body straight to a worker pipe.

        The multi-process tier keeps the parent's handler threads off
        the GIL-heavy work: JSON decode, model pass, and JSON encode
        all happen inside the worker; this thread only routes bytes.
        """
        start = time.perf_counter()
        status = 500
        try:
            with get_tracer().span(
                "serving.dispatch", method="POST", path=path
            ):
                status, body = engine.handle_http(path, raw)
            headers = None
            if status in (429, 503):
                # Worker-built error bodies already carry the
                # structured retry fields — lift them into the header.
                try:
                    headers = self._retry_after_header(
                        json.loads(body.decode("utf-8"))
                    )
                except (UnicodeDecodeError, ValueError):
                    headers = self._retry_after_header({})
            self._reply(status, {}, raw=body, headers=headers)
        except ReproError as exc:
            status = self._error_reply(exc, default_status=503)
        finally:
            self._log_access(status, start)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._handle(None)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_REQUEST_BYTES:
            # The body is left unread, so the connection cannot be
            # reused — without this a keep-alive client's next request
            # would be parsed out of the unread body bytes.
            self.close_connection = True
            self._reply(400, {"error": "invalid or oversized request body"})
            return
        raw = self.rfile.read(length)
        engine = self.server.engine
        path = self.path.split("?", 1)[0]
        path = path.rstrip("/") or path
        controller = getattr(engine, "online_controller", None)
        if controller is not None and not path.startswith("/v1/admin"):
            # Feed the drift-response window.  tap() is a bounded
            # append that never raises — the request path continues
            # identically with or without the controller.
            controller.tap(path, raw)
        if hasattr(engine, "handle_http") and not path.startswith("/v1/admin"):
            # Admin verbs run in the parent (they orchestrate *all*
            # workers); data-plane verbs ship raw bytes to one worker.
            self._handle_raw(engine, path, raw)
            return
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": f"request body is not valid JSON: {exc}"})
            return
        self._handle(payload)

    def log_message(self, format: str, *args) -> None:
        # http.server's own notices (malformed request lines, broken
        # pipes) route through the logging layer instead of stderr;
        # per-request access records are emitted by _handle with
        # status and latency.  Quiet by default either way, and then
        # send_response's per-reply call formats nothing.
        level = 20 if self.server.verbose else 10
        if _SERVER_LOG.isEnabledFor(level):
            _SERVER_LOG.log(level, format % args if args else format)


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
        self._stop_engine()
        if leaked:
            message = (
                f"server thread failed to stop within {timeout:.1f}s; "
                "a handler is wedged and the listening socket may stay bound"
            )
            _SERVER_LOG.error(message)
            raise ReproError(message)

    def _stop_engine(self) -> None:
        # The controller schedules reloads through the engine, so it
        # must stop before the engine is torn down beneath it.
        controller = getattr(self.engine, "online_controller", None)
        if controller is not None:
            controller.stop()
        engine_stop = getattr(self.engine, "stop", None)
        if callable(engine_stop):
            engine_stop()

    def serve_forever(self) -> None:
        try:
            self._server.serve_forever()
        finally:
            self._server.server_close()
            self._stop_engine()

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
        controller = getattr(engine, "online_controller", None)
        if controller is not None:
            controller.stop()
        engine_stop = getattr(engine, "stop", None)
        if callable(engine_stop):
            engine_stop()
        raise

