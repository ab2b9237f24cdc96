"""Failure-path tests for the HTTP service layer.

Client disconnects mid-reply must be counted, not crash the handler
thread; a server thread that survives ``stop()``'s join must raise
loudly instead of leaking silently.
"""

import logging
import threading
from types import SimpleNamespace

import pytest

from repro.exceptions import ReproError, ValidationError
from repro.serving.service import DecisionService, _Handler
from repro.telemetry.metrics import MetricsRegistry


def _bare_handler(engine, command="GET", path="/v1/health"):
    """A handler with the socket plumbing stubbed out."""
    handler = _Handler.__new__(_Handler)
    handler.command = command
    handler.path = path
    handler.close_connection = False
    handler.server = SimpleNamespace(engine=engine, verbose=False)
    handler.send_response = lambda *a, **k: None
    handler.send_header = lambda *a, **k: None
    handler.end_headers = lambda: None
    return handler


class _EngineStub:
    def __init__(self):
        self.registry = MetricsRegistry()
        self.online_controller = None
        self.stopped = 0

    def stop(self):
        self.stopped += 1


class TestClientDisconnect:
    @pytest.mark.parametrize("error", [BrokenPipeError, ConnectionResetError])
    def test_disconnect_is_counted_not_raised(self, error, caplog):
        engine = _EngineStub()
        handler = _bare_handler(engine)
        handler.wfile = SimpleNamespace(
            write=lambda data: (_ for _ in ()).throw(error())
        )
        # configure_logging (run by other tests) stops propagation at
        # the "repro" root, so hang caplog's handler on the serving
        # logger directly instead of relying on records reaching root.
        server_log = logging.getLogger("repro.serving.http")
        server_log.addHandler(caplog.handler)
        try:
            with caplog.at_level("WARNING", logger="repro.serving.http"):
                # must not raise
                handler._reply(200, "application/json", b'{"ok": true}')
        finally:
            server_log.removeHandler(caplog.handler)
        assert handler.close_connection is True
        assert (
            engine.registry.value("serving_client_disconnects_total") == 1
        )
        assert any(
            "disconnected" in record.getMessage() for record in caplog.records
        )

    def test_engines_without_registry_still_survive(self):
        handler = _bare_handler(SimpleNamespace())  # no .registry
        handler.wfile = SimpleNamespace(
            write=lambda data: (_ for _ in ()).throw(BrokenPipeError())
        )
        handler._reply(200, "application/json", b'{"ok": true}')
        assert handler.close_connection is True

    def test_successful_reply_keeps_connection(self):
        engine = _EngineStub()
        handler = _bare_handler(engine)
        written = []
        handler.wfile = SimpleNamespace(write=written.append)
        handler._reply(200, "application/json", b'{"ok": true}')
        assert written and handler.close_connection is False
        assert engine.registry.value("serving_client_disconnects_total") == 0


class TestLoudStop:
    def test_wedged_server_thread_raises(self):
        engine = _EngineStub()
        service = DecisionService(engine, port=0)
        service.start()
        # Swap in a thread that outlives any join: stop() must still
        # shut the real server down, stop the engine, then complain.
        wedge = threading.Event()
        stuck = threading.Thread(target=wedge.wait, daemon=True)
        stuck.start()
        service._thread, real = stuck, service._thread
        try:
            with pytest.raises(ReproError, match="failed to stop"):
                service.stop(timeout=0.1)
            assert engine.stopped == 1  # engine still torn down
            real.join(timeout=5.0)
            assert not real.is_alive()
        finally:
            wedge.set()

    def test_clean_stop_is_quiet_and_stops_engine(self):
        engine = _EngineStub()
        service = DecisionService(engine, port=0)
        service.start()
        service.stop()
        assert engine.stopped == 1
        assert service._thread is None

    def test_double_start_rejected(self):
        service = DecisionService(_EngineStub(), port=0)
        service.start()
        try:
            with pytest.raises(ValidationError):
                service.start()
        finally:
            service.stop()
