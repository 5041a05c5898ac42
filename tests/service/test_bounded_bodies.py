"""Request bodies are bounded: every POST is answered within a deadline.

``rfile.read(-1)`` blocks until the client closes its side, so a
request announcing ``Content-Length: -1`` used to get no reply and pin
a handler thread.  These tests speak raw HTTP over a socket — no client
library would send such a header — to each endpoint that reads a body:
the public ``POST /v1/jobs``, the coordinator's ``/v1/fleet/register``
and a worker's pickle data plane.  A body announced under the cap but
trickled (or never sent) is cut by the handler's socket timeout.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.service.app import MAX_JOB_BODY_BYTES, ServiceApp, make_server
from repro.service.fleet import LocalFleet
from repro.service.fleet.wire import FLEET_TOKEN_HEADER

#: Seconds a refused request may take to be answered.
DEADLINE = 5.0


def raw_post(
    base_url: str, path: str, headers: dict[str, str]
) -> tuple[int, dict, str | None]:
    """Send a hand-written POST; return ``(status, doc, Connection header)``.

    Raises ``socket.timeout`` if no complete reply arrives within
    :data:`DEADLINE`.
    """
    host, port = base_url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=DEADLINE) as sock:
        lines = [f"POST {path} HTTP/1.1", f"Host: {host}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        response = http.client.HTTPResponse(sock)
        response.begin()
        doc = json.loads(response.read())
        return response.status, doc, response.getheader("Connection")


@pytest.fixture
def daemon(tmp_path):
    app = ServiceApp(str(tmp_path / "cache"), backend="inline", workers=1)
    server = make_server(app, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    thread.join(timeout=10)
    app.close()


class TestTrickledBody:
    def test_stalled_body_closes_connection_and_frees_the_thread(self, tmp_path):
        """A body announced under the cap and then withheld must not pin
        a handler thread: the socket timeout closes the connection."""
        from repro.service.app import SOCKET_TIMEOUT_SECONDS

        app = ServiceApp(str(tmp_path / "cache"), backend="inline", workers=1)
        server = make_server(app, "127.0.0.1", 0)
        handler = server.RequestHandlerClass
        # On by default, and long enough never to cut an idle keep-alive.
        assert handler.timeout == SOCKET_TIMEOUT_SECONDS >= 60
        handler.timeout = 0.5
        handler_threads: list[threading.Thread] = []
        original_handle = handler.handle

        def handle(self):
            handler_threads.append(threading.current_thread())
            original_handle(self)

        handler.handle = handle
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            with socket.create_connection(("127.0.0.1", port), timeout=DEADLINE) as sock:
                sock.sendall(
                    b"POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    b"Content-Length: 100\r\n\r\n{\"kind\""
                )
                started = time.monotonic()
                assert sock.recv(1024) == b"", "server must close, not reply"
                assert time.monotonic() - started < DEADLINE
            deadline = time.monotonic() + DEADLINE
            while time.monotonic() < deadline and any(
                t.is_alive() for t in handler_threads
            ):
                time.sleep(0.02)
            assert len(handler_threads) == 1
            assert not handler_threads[0].is_alive(), "handler thread still pinned"
        finally:
            server.shutdown()
            thread.join(timeout=10)
            app.close()


@pytest.fixture
def fleet(tmp_path):
    with LocalFleet(tmp_path / "fleet", n_workers=1, heartbeat_interval=None) as lf:
        yield lf


class TestPublicJobs:
    @pytest.mark.parametrize("length", ["-1", "-99999", "abc", "1.5", None])
    def test_malformed_length_400(self, daemon, length):
        headers = {} if length is None else {"Content-Length": length}
        status, doc, connection = raw_post(daemon, "/v1/jobs", headers)
        assert status == 400
        assert "Content-Length" in doc["error"]
        assert connection == "close"

    def test_oversized_body_413_without_reading_it(self, daemon):
        """Announce one byte past the cap, send none: the refusal must
        not wait for a body that never comes."""
        status, doc, connection = raw_post(
            daemon, "/v1/jobs", {"Content-Length": str(MAX_JOB_BODY_BYTES + 1)}
        )
        assert status == 413 and str(MAX_JOB_BODY_BYTES) in doc["error"]
        assert connection == "close"


class TestFleetPlane:
    def test_register_negative_length_400(self, fleet):
        status, doc, _ = raw_post(
            fleet.base_url,
            "/v1/fleet/register",
            {"Content-Length": "-1", FLEET_TOKEN_HEADER: fleet.auth.secret},
        )
        assert status == 400 and "Content-Length" in doc["error"]

    @pytest.mark.parametrize("path", ["/v1/fleet/map", "/v1/fleet/entry"])
    def test_worker_negative_length_400(self, fleet, path):
        (worker_url,) = fleet.worker_urls().values()
        status, doc, _ = raw_post(
            worker_url,
            path,
            {"Content-Length": "-1", FLEET_TOKEN_HEADER: fleet.auth.secret},
        )
        assert status == 400 and "Content-Length" in doc["error"]
