"""Closed-loop HTTP load: a fixed number of callers, each awaiting its reply.

Each caller owns one keep-alive connection and sends the next
pre-encoded body only after the previous reply has been read, so no
queue forms and the answered rate is the callers' capacity.  Replies
are kept as raw bytes and parsed after the timed phase, keeping the
generator's own work out of the loop.  A non-200 status or a dropped
connection counts as a failed request; a dropped connection is
re-opened before the caller's next request.

The connections belong to the caller of :func:`closed_loop` and stay
open when it returns, so the server can be sampled while its
per-connection threads still exist, and a run can be split into
segments that continue on the same connections.
"""

from __future__ import annotations

import http.client
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: Socket timeout of every connection; a caller stuck longer fails the loop.
TIMEOUT_S = 30.0


@dataclass
class Reply:
    """One request of the loop."""

    body_index: int
    sent: float
    received: float
    status: int  # 0 when the connection failed
    payload: Optional[bytes]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None

    @property
    def rtt_s(self) -> float:
        return self.received - self.sent


@dataclass
class LoopResult:
    replies: List[Reply] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.replies)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.replies if not r.ok)

    @property
    def elapsed_s(self) -> float:
        return self.ended - self.started


def connect(host: str, port: int, n: int = 1) -> List[http.client.HTTPConnection]:
    """``n`` keep-alive connections (each opened on its first request)."""
    return [http.client.HTTPConnection(host, port, timeout=TIMEOUT_S) for _ in range(n)]


def request_once(
    conn: http.client.HTTPConnection, method: str, path: str, body: Optional[bytes] = None
) -> Tuple[int, bytes]:
    """Send one request on ``conn`` and read the whole reply: ``(status, bytes)``."""
    headers = {} if body is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def closed_loop(
    conns: List[http.client.HTTPConnection],
    path: str,
    bodies: Sequence[bytes],
    seconds: float,
    *,
    first_body: int = 0,
) -> LoopResult:
    """Run one closed-loop caller per connection in ``conns`` for ``seconds``.

    Bodies are taken in order from a shared counter that starts at
    ``first_body`` and wraps around, so each is sent once per pass over
    ``bodies``.  A connection that fails is closed and replaced in
    ``conns``; all of them are left open for the caller to close.
    """
    counter = itertools.count(first_body)
    lock = threading.Lock()
    result = LoopResult()
    per_caller: List[List[Reply]] = [[] for _ in conns]
    deadline_box = [0.0]

    def caller(slot: int) -> None:
        replies = per_caller[slot]
        while time.perf_counter() < deadline_box[0]:
            with lock:
                index = next(counter) % len(bodies)
            sent = time.perf_counter()
            try:
                status, payload = request_once(conns[slot], "POST", path, bodies[index])
                replies.append(Reply(index, sent, time.perf_counter(), status, payload))
            except (OSError, http.client.HTTPException) as exc:
                replies.append(
                    Reply(index, sent, time.perf_counter(), 0, None, type(exc).__name__)
                )
                conns[slot].close()
                conns[slot] = connect(conns[slot].host, conns[slot].port)[0]

    threads = [threading.Thread(target=caller, args=(i,), daemon=True) for i in range(len(conns))]
    result.started = time.perf_counter()
    deadline_box[0] = result.started + seconds
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * TIMEOUT_S + 5.0)
        if thread.is_alive():
            raise RuntimeError("load caller did not finish")
    result.ended = time.perf_counter()
    result.replies = sorted(itertools.chain.from_iterable(per_caller), key=lambda r: r.sent)
    return result
