"""Clients for the decision service.

Two transports, one contract: :class:`InProcessClient` hands the JSON
bytes HTTP would carry to :func:`repro.serving.service.respond`, the
one request path the HTTP handler frames, and :class:`HTTPClient`
speaks JSON over a socket.  A test (or benchmark) parameterised over
both clients therefore exercises identical request semantics on
either serving tier, differing only in the wire.

``/v1/metrics`` answers Prometheus text, which both clients return
under the ``"prometheus"`` key; every other answer is the JSON body.

Error surface: both transports raise :class:`ServiceError` subclasses
keyed by status — :class:`ServiceOverloadedError` (429, the tier shed
the request) and :class:`ServiceUnavailableError` (503 or the socket
could not be reached), each carrying the server's ``retry_after_s``
hint and the ``worker`` slot when the body named one.

Retries: :class:`HTTPClient` owns a small, safe-by-default retry
budget.  Only transport failures and 429/503 answers are retried —
the statuses the resilience layer emits for *transient* conditions —
never 4xx validation errors, and never more than ``retries`` extra
attempts.  Backoff is exponential with full jitter and honours the
server's ``Retry-After`` hint when it is larger.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional

from repro.exceptions import ReproError
from repro.serving.engine import InferenceEngine
from repro.serving.service import JSON_TYPE, respond


class ServiceError(ReproError):
    """The service answered with an error status."""

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


class ServiceOverloadedError(ServiceError):
    """HTTP 429: the admission gate shed this request; retry later."""

    def __init__(
        self,
        message: str,
        retry_after_s: Optional[float] = None,
        worker: Optional[int] = None,
    ):
        super().__init__(
            message, status=429, retry_after_s=retry_after_s, worker=worker
        )


class ServiceUnavailableError(ServiceError):
    """HTTP 503 (or unreachable socket): no capacity right now."""

    def __init__(
        self,
        message: str,
        retry_after_s: Optional[float] = None,
        worker: Optional[int] = None,
    ):
        super().__init__(
            message, status=503, retry_after_s=retry_after_s, worker=worker
        )


def service_error(
    message: str,
    status: int,
    retry_after_s: Optional[float] = None,
    worker: Optional[int] = None,
) -> ServiceError:
    """The typed :class:`ServiceError` for ``status``."""
    if status == 429:
        return ServiceOverloadedError(
            message, retry_after_s=retry_after_s, worker=worker
        )
    if status == 503:
        return ServiceUnavailableError(
            message, retry_after_s=retry_after_s, worker=worker
        )
    return ServiceError(
        message, status=status, retry_after_s=retry_after_s, worker=worker
    )


class BaseClient:
    """Endpoint helpers shared by both transports."""

    def request(self, method: str, path: str, payload: Optional[Dict] = None) -> Dict:
        raise NotImplementedError

    # -- the four serving verbs ----------------------------------------

    def transform(self, records: List) -> List[List[float]]:
        return self.request("POST", "/v1/transform", {"records": records})[
            "transformed"
        ]

    def score(self, records: List) -> List[float]:
        return self.request("POST", "/v1/score", {"records": records})["scores"]

    def rank(
        self,
        records: List,
        *,
        top_k: Optional[int] = None,
        groups: Optional[List] = None,
    ) -> Dict:
        payload: Dict = {"records": records}
        if top_k is not None:
            payload["top_k"] = top_k
        if groups is not None:
            payload["groups"] = groups
        return self.request("POST", "/v1/rank", payload)

    def decide(self, records: List, groups: List) -> Dict:
        return self.request(
            "POST", "/v1/decide", {"records": records, "groups": groups}
        )

    # -- introspection -------------------------------------------------

    def health(self) -> Dict:
        return self.request("GET", "/v1/health")

    def stats(self) -> Dict:
        return self.request("GET", "/v1/stats")


class InProcessClient(BaseClient):
    """Drive an engine or dispatcher directly, bypassing sockets but not
    semantics."""

    def __init__(self, engine: InferenceEngine):
        self.engine = engine

    def request(self, method: str, path: str, payload: Optional[Dict] = None) -> Dict:
        # The body HTTPClient would send, so in-process callers can
        # pass nothing the HTTP transport could not carry.
        raw = b""
        if method.upper() == "POST":
            raw = json.dumps(payload or {}).encode("utf-8")
        status, content_type, body = respond(self.engine, method, path, raw)
        if content_type != JSON_TYPE:
            return {"prometheus": body.decode("utf-8")}
        answer = json.loads(body.decode("utf-8"))
        if status >= 400:
            raise service_error(
                answer.get("error", f"HTTP {status}"),
                status,
                retry_after_s=answer.get("retry_after_s"),
                worker=answer.get("worker"),
            )
        return answer


class HTTPClient(BaseClient):
    """Talk to a running :class:`~repro.serving.service.DecisionService`.

    ``retries`` extra attempts are spent only on transport failures and
    429/503 answers (see module docstring); ``retries=0`` restores the
    fail-fast behaviour.  ``backoff_s`` is the base of the exponential
    backoff schedule, capped at ``backoff_max_s``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8351,
        timeout: float = 10.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
    ):
        self.base_url = f"http://{host}:{port}"
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.backoff_max_s = float(backoff_max_s)

    def _backoff(self, attempt: int, exc: ServiceError) -> float:
        delay = min(self.backoff_max_s, self.backoff_s * (2.0 ** attempt))
        delay *= 0.5 + random.random()  # full jitter in [0.5x, 1.5x]
        hint = getattr(exc, "retry_after_s", None)
        if hint:
            # Honour the server's estimate when it is more patient than
            # ours, but never sleep past the backoff ceiling.
            delay = max(delay, min(float(hint), self.backoff_max_s))
        return delay

    def request(self, method: str, path: str, payload: Optional[Dict] = None) -> Dict:
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except (ServiceOverloadedError, ServiceUnavailableError) as exc:
                if attempt >= self.retries:
                    raise
                time.sleep(self._backoff(attempt, exc))
                attempt += 1

    def _request_once(
        self, method: str, path: str, payload: Optional[Dict] = None
    ) -> Dict:
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if method.upper() == "POST":
            data = json.dumps(payload or {}).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(url, data=data, headers=headers, method=method)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as response:
                text = response.read().decode("utf-8")
                if response.headers.get_content_type() != JSON_TYPE:
                    return {"prometheus": text}
                body = json.loads(text)
        except urllib.error.HTTPError as exc:
            message, retry_after, worker = str(exc), None, None
            try:
                error_body = json.loads(exc.read().decode("utf-8"))
                message = error_body.get("error", message)
                retry_after = error_body.get("retry_after_s")
                worker = error_body.get("worker")
            except (ValueError, UnicodeDecodeError):
                pass
            if retry_after is None:
                header = exc.headers.get("Retry-After") if exc.headers else None
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        retry_after = None
            raise service_error(
                message, exc.code, retry_after_s=retry_after, worker=worker
            )
        except urllib.error.URLError as exc:
            raise ServiceUnavailableError(f"service unreachable: {exc.reason}")
        return body
