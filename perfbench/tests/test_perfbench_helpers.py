"""Unit tests of the benchmark's own helpers (no workload is run).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import collections
import json
import os
import statistics
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench import layers, loadgen, procs, quality, spans, stats


# -- percentile rule ------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it_and_reports_the_count():
    assert stats.samples_beyond(1000, 99.0) == 10
    assert stats.percentile_allowed(1000, 99.0)
    assert not stats.percentile_allowed(999, 99.0)
    values = [float(i) for i in range(1, 1001)]
    p99, n = stats.reported(values, 99.0)
    assert p99 == pytest.approx(990.01) and n == 1000
    assert stats.reported(values[:999], 99.0) == (None, 999)
    assert stats.reported(values[:20], 50.0) == (pytest.approx(10.5), 20)
    assert stats.reported(values[:19], 50.0) == (None, 19)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5]
    q1, med, q3, spread = stats.quartile_spread(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
    assert spread == pytest.approx((q3 - q1) / med)


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_union_of_overlapping_children():
    # Children cover [1, 5] and, clipped to the parent, [8, 10]: 6 of 10.
    assert stats.self_time((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == pytest.approx(4.0)
    assert stats.self_time((0.0, 2.0), []) == pytest.approx(2.0)
    assert stats.self_time((0.0, 2.0), [(-1.0, 3.0)]) == 0.0


def test_self_time_of_nested_spans_counts_direct_children_only():
    rows = [
        [0, "outer", 0.0, 10.0, -1, None, 1, None],
        [1, "mid", 1.0, 6.0, 0, None, 1, None],
        [2, "inner", 2.0, 5.0, 1, None, 1, None],
        [3, "mid", 5.5, 7.0, 0, None, 1, None],  # overlaps the first mid
    ]
    span_set = layers.SpanSet(1, rows)
    assert span_set.self_s(rows[0]) == pytest.approx(10.0 - 6.0)
    assert span_set.self_s(rows[1]) == pytest.approx(5.0 - 3.0)
    assert span_set.under(rows[2], "outer")
    assert not span_set.under(rows[0], "mid")


def test_recorder_links_parents_and_shares_request_ids(tmp_path):
    recorder = spans.Recorder(str(tmp_path), "main")
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2, ctx=lambda args: f"req-{args[0]}", sticky=True)
    later = recorder.wrap("later", lambda: None)
    assert outer(3) == 8
    later()
    by_name = {row[1]: row for row in recorder.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["inner"][5] == by_name["later"][5] == "req-3"
    assert by_name["outer"][2] <= by_name["inner"][2] <= by_name["inner"][3] <= by_name["outer"][3]
    dumped = spans.load_spans(os.path.dirname(recorder.dump()))[os.getpid()]
    assert len(dumped["spans"]) == 3
    # Each dump carries its process's birth and its threads' run-queue wait.
    assert dumped["born"] <= by_name["outer"][2]
    assert dumped["runqueue_wait_s"] >= 0.0


# -- process-tree CPU -----------------------------------------------------------


def _burn(cpu_s: float) -> None:
    start = time.process_time()
    while time.process_time() - start < cpu_s:
        pass


def test_tree_cpu_counts_reaped_and_live_children():
    before = procs.tree_cpu_s()
    reaped = os.fork()
    if reaped == 0:  # pragma: no cover - child
        _burn(0.2)
        os._exit(0)
    os.waitpid(reaped, 0)

    read_fd, write_fd = os.pipe()
    live = os.fork()
    if live == 0:  # pragma: no cover - child
        os.close(read_fd)
        _burn(0.2)
        os.write(write_fd, b"x")
        time.sleep(60)
        os._exit(0)
    os.close(write_fd)
    try:
        assert os.read(read_fd, 1) == b"x"
        assert procs.process_cpu_s(live) >= 0.2
        after = procs.tree_cpu_s()
        assert live in procs.descendants(os.getpid())
    finally:
        os.kill(live, 9)
        os.waitpid(live, 0)
        os.close(read_fd)
    assert after - before >= 0.4
    assert procs.process_cpu_s(live) == 0.0  # gone: no clock to read


def test_prometheus_counts_feed_layer_ratios():
    text = (
        "# TYPE serving_cache_hits_total counter\n"
        'serving_cache_hits_total{worker="0"} 1\n'
        'serving_cache_hits_total{worker="1"} 2\n'
        'serving_cache_misses_total{worker="0"} 9\n'
        "serving_shed_total 4\n"
    )
    values = layers.registry_layers(layers.parse_prometheus(text))
    assert values["engine.cache_hit_ratio"] == pytest.approx(3 / 12)
    assert values["dispatcher.sheds"] == 4
    assert layers.complete({"dispatcher.sheds": 4})["monitor.checks"] == 0.0


# -- closed loop ----------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    """Echoes bodies; ``500`` fails, ``drop`` hangs up.  Counts connections."""

    protocol_version = "HTTP/1.1"
    lock = threading.Lock()
    opened = 0
    live = 0

    def setup(self):
        super().setup()
        with _StubHandler.lock:
            _StubHandler.opened += 1
            _StubHandler.live += 1

    def finish(self):
        try:
            super().finish()
        finally:
            with _StubHandler.lock:
                _StubHandler.live -= 1

    def do_POST(self):  # noqa: N802 - http.server naming
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if body == b"drop":
            self.close_connection = True  # hang up without a reply
            return
        status = 500 if body == b"500" else 200
        reply = json.dumps({"echo": body.decode()}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_port():
    _StubHandler.opened = _StubHandler.live = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _close(conns) -> None:
    for conn in conns:
        conn.close()
    deadline = time.perf_counter() + 5.0
    while _StubHandler.live and time.perf_counter() < deadline:
        time.sleep(0.01)


def test_closed_loop_counts_500_and_dropped_connection_as_failures(stub_port):
    conns = loadgen.connect("127.0.0.1", stub_port, 2)
    try:
        result = loadgen.closed_loop(conns, "/", [b"ok", b"500", b"drop", b"ok2"], 0.3)
    finally:
        _close(conns)
    assert result.attempted >= 8
    by_body = {}
    for reply in result.replies:
        by_body.setdefault(reply.body_index, set()).add((reply.status, reply.ok))
    assert by_body[0] == {(200, True)} and by_body[3] == {(200, True)}
    assert by_body[1] == {(500, False)}
    assert by_body[2] == {(0, False)}
    assert result.failed == sum(1 for r in result.replies if r.body_index in (1, 2))
    assert all(r.error for r in result.replies if r.body_index == 2)


def test_closed_loop_leaves_connections_open_across_segments(stub_port):
    conns = loadgen.connect("127.0.0.1", stub_port, 2)
    bodies = [b"a", b"b", b"c"]
    try:
        first = loadgen.closed_loop(conns, "/", bodies, 0.2, first_body=1)
        open_after_first = _StubHandler.live
        second = loadgen.closed_loop(conns, "/", bodies, 0.2, first_body=1 + first.attempted)
        open_after_second = _StubHandler.live
    finally:
        _close(conns)
    # Both connections are still open when each segment returns (so the
    # server can be sampled with its per-connection threads alive), and
    # the second segment reuses them rather than opening new ones.
    assert open_after_first == open_after_second == 2
    assert _StubHandler.opened == 2 and _StubHandler.live == 0
    assert first.failed == second.failed == 0
    # The body counter runs on from first_body: 1, 2, ... taken mod 3.
    taken = collections.Counter(r.body_index for r in first.replies + second.replies)
    assert taken[1] >= taken[2] >= taken[0] >= taken[1] - 1


# -- output-check metrics --------------------------------------------------------


def test_auc_and_ynn_on_known_inputs():
    assert quality.roc_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == pytest.approx(0.75)
    assert quality.roc_auc([0, 1], [0.5, 0.5]) == pytest.approx(0.5)
    X = [[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]] * 6
    same_side = [0.0, 0.0, 1.0, 1.0] * 6
    assert quality.ynn(X, [1], same_side, k=5) == pytest.approx(1.0)
    checks = quality.quality_checks(quality.DEFAULT_SEED, 0.70, 0.95, {"test_auc": 0.71, "test_ynn": 0.90})
    assert [ok for _, ok, _ in checks] == [True, False]
