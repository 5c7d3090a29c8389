"""Minimal HTTP/1.1 front for a simulated provider.

PUT /challenge stores the payload; GET /response evaluates it, sleeps the
simulated latency for real, and returns the body (404 until a challenge is
stored).  Connections are kept alive, with Nagle's algorithm off, so one
connection serves a whole audit.  Optional basic auth is enabled by passing
credentials (or the FPAUDIT_HTTP_USER / FPAUDIT_HTTP_PASS environment
variables when run via the CLI).
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .transport import _basic_auth, env_credentials


class SimHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, responder, port: int = 0,
                 credentials: tuple[str, str] | None = None):
        self.responder = responder
        self.credentials = credentials
        self.pending: bytes | None = None
        self.connections: set[socket.socket] = set()
        self.lock = threading.Lock()  # guards pending and connections
        super().__init__(("127.0.0.1", port), _Handler)

    def process_request(self, request, client_address) -> None:
        with self.lock:
            self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self.lock:
            self.connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # An auditor that gave up on a round closes its connection; a reply
        # that finds it gone is no fault of the server.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def server_close(self) -> None:
        """Stop listening and end the connections still open, so a closed
        server never answers on a client's kept-alive socket."""
        super().server_close()
        with self.lock:
            held = list(self.connections)
        for sock in held:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the handler closed it meanwhile

    @property
    def port(self) -> int:
        return self.server_address[1]

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"


# For a reply sent before the request body is read: on a kept-alive
# connection the unread body would be parsed as the next request.
_CLOSE = ("Connection", "close")


class _Handler(BaseHTTPRequestHandler):
    server: SimHTTPServer
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # else each reply waits for a delayed ACK

    def log_message(self, *args) -> None:
        pass

    def _reply(self, status: int, body: bytes = b"", *headers: tuple[str, str]) -> None:
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _authorized(self) -> bool:
        creds = self.server.credentials
        if creds is None:
            return True
        return self.headers.get("Authorization", "") == _basic_auth(*creds)

    def _deny(self) -> None:
        self._reply(401, b"", ("WWW-Authenticate", 'Basic realm="fpaudit"'), _CLOSE)

    def do_PUT(self) -> None:
        if not self._authorized():
            return self._deny()
        if self.path != "/challenge":
            return self._reply(404, b"", _CLOSE)
        length = int(self.headers.get("Content-Length", "0"))
        body = self.rfile.read(length)
        with self.server.lock:
            self.server.pending = body
        self.send_response(204)
        self.end_headers()

    def do_GET(self) -> None:
        if not self._authorized():
            return self._deny()
        if self.path != "/response":
            return self._reply(404)
        with self.server.lock:
            pending, self.server.pending = self.server.pending, None
        if pending is None:
            return self._reply(404)
        body, latency = self.server.responder.respond(pending)
        time.sleep(latency)
        self._reply(200, body)


def start_server(responder, port: int = 0,
                 credentials: tuple[str, str] | None = None) -> SimHTTPServer:
    """Serve on a daemon thread; ``shutdown()`` returns within one poll
    interval (0.05 s)."""
    server = SimHTTPServer(responder, port, credentials)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    return server


def serve_forever(responder, port: int) -> None:
    server = SimHTTPServer(responder, port, env_credentials())
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
