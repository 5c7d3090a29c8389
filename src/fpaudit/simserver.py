"""Minimal HTTP/1.1 front for a simulated provider.

PUT /challenge stores the payload and answers 204; GET /response evaluates
it, sleeps the simulated latency for real, and returns the body (404 until
a challenge is stored).  A PUT that carries ``Prefer:
return=representation`` (RFC 7240) is evaluated at once instead, and
answered 200 with the body, ``Content-Location: /response`` and
``Preference-Applied: return=representation``, after the same sleep; the
answer is stored too, so a client that does not take it there can still
GET it, at once and without the challenge being evaluated again.
Connections are kept alive, with Nagle's algorithm off, so one connection
serves a whole audit.  Optional basic auth is enabled by passing
credentials (or the FPAUDIT_HTTP_USER / FPAUDIT_HTTP_PASS environment
variables when run via the CLI).

It is a ``socketserver`` handler, not ``http.server``: requests are parsed
by ``http1.Wire``, as the auditor parses answers, and each reply, head and
body with its Content-Length, goes out in one write, with no Date header.
A PUT that expects ``100 Continue`` gets it before its body is read.  A
PUT without a Content-Length is answered 411, a malformed request 400; both
close the connection, as does a reply that leaves a request body unread and
the answer to an HTTP/1.0 request.
"""

from __future__ import annotations

import re
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from http.client import HTTPException

from .http1 import Wire
from .transport import _basic_auth


class SimHTTPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, responder, port: int = 0,
                 credentials: tuple[str, str] | None = None):
        self.responder = responder
        # The Authorization value every request must carry, if any.
        self.authorization = _basic_auth(*credentials).encode("latin-1") if credentials else None
        # The last PUT's challenge, for the next GET to evaluate, or, if the
        # PUT was answered with it, its answer (True), for the GET to repeat.
        self.pending: tuple[bytes, bool] | None = None
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


_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n" for s in HTTPStatus}


def _message(status: int, body: bytes, fields: tuple[tuple[str, str], ...], close: bool) -> bytes:
    """A whole reply: status line, ``fields``, ``Connection: close`` if
    ``close``, the body's Content-Length unless it is a 204, and the body."""
    head = _STATUS_LINES[status]
    for name, value in fields:
        head += f"{name}: {value}\r\n"
    if close:
        head += "Connection: close\r\n"
    if status != 204:  # which has no body to measure
        head += f"Content-Length: {len(body)}\r\n"
    return (head + "\r\n").encode("latin-1") + body


# A Prefer value (RFC 7240) that names return=representation among its preferences.
_WANTS_ANSWER = re.compile(rb'(?:^|,)\s*return\s*=\s*"?representation"?\s*(?:[;,]|$)', re.I).search
# What a PUT answered with its response says of its body.
_ANSWERED = (("Content-Location", "/response"), ("Preference-Applied", "return=representation"))


class _Handler(socketserver.StreamRequestHandler):
    """Serves the requests of one kept-alive connection in turn, each
    dispatched to ``do_<METHOD>``."""

    server: SimHTTPServer
    disable_nagle_algorithm = True  # else each reply waits for a delayed ACK

    def handle(self) -> None:
        self.wire = Wire(self.connection)
        self.close_connection = self.unread = False
        while not self.close_connection and self._read_request():
            getattr(self, f"do_{self.command}", self._unsupported)()

    def _read_request(self) -> bool:
        """Parse the next request's line and headers; False once the client
        has closed, or a malformed request has been answered 400."""
        try:
            line = self.wire.line("request line")
            if not line:
                return False
            parts = line.split()
            if len(parts) != 3 or not parts[2].startswith(b"HTTP/1."):
                raise HTTPException(f"bad request line {line!r}")
            self.headers = self.wire.fields()
        except HTTPException:
            self.close_connection = True
            self._reply(400)
            return False
        method, path, version = parts
        self.command, self.path = method.decode("latin-1"), path.decode("latin-1")
        self.close_connection = (version == b"HTTP/1.0"
                                 or b"close" in self.headers.get(b"connection", b"").lower())
        self.unread = (self.headers.get(b"content-length", b"0") != b"0"
                       or b"transfer-encoding" in self.headers)
        return True

    def _body(self) -> bytes | None:
        """The request body, or None if the request does not give its
        Content-Length.  A client that waits for ``100 Continue`` gets it
        now."""
        length = self.headers.get(b"content-length", b"")
        if not length.isdigit() or b"transfer-encoding" in self.headers:
            self.close_connection = True
            return None
        if self.headers.get(b"expect", b"").lower() == b"100-continue":
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        self.unread = False
        return self.wire.take(int(length))

    def _reply(self, status: int, body: bytes = b"", *fields: tuple[str, str]) -> None:
        """Send the reply, head and body, in one write.  A request body left
        unread ends the connection: it would be parsed as the next request."""
        close = self.close_connection = self.close_connection or self.unread
        self.connection.sendall(_message(status, body, fields, close))

    def _authorized(self) -> bool:
        expected = self.server.authorization
        return expected is None or self.headers.get(b"authorization", b"") == expected

    def _deny(self) -> None:
        self._reply(401, b"", ("WWW-Authenticate", 'Basic realm="fpaudit"'))

    def _unsupported(self) -> None:
        self._reply(501)

    def do_PUT(self) -> None:
        if not self._authorized():
            return self._deny()
        if self.path != "/challenge":
            return self._reply(404)
        body = self._body()
        if body is None:
            return self._reply(411)
        if not _WANTS_ANSWER(self.headers.get(b"prefer", b"")):
            with self.server.lock:
                self.server.pending = body, False
            return self._reply(204)
        answer = self._evaluate(body)
        with self.server.lock:
            self.server.pending = answer, True
        self._reply(200, answer, *_ANSWERED)

    def do_GET(self) -> None:
        if not self._authorized():
            return self._deny()
        if self.path != "/response":
            return self._reply(404)
        with self.server.lock:
            pending, self.server.pending = self.server.pending, None
        if pending is None:
            return self._reply(404)
        data, answered = pending
        self._reply(200, data if answered else self._evaluate(data))

    def _evaluate(self, challenge: bytes) -> bytes:
        """The provider's answer to ``challenge``, once its simulated latency
        has been slept for real."""
        body, latency = self.server.responder.respond(challenge)
        if latency > 0:  # even a zero sleep waits out the timer slack, 50 us on Linux
            time.sleep(latency)
        return body


def start_server(responder, port: int = 0,
                 credentials: tuple[str, str] | None = None) -> SimHTTPServer:
    """Serve on a daemon thread; ``shutdown()`` returns within one poll
    interval (0.05 s)."""
    server = SimHTTPServer(responder, port, credentials)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    return server


def serve_forever(server: SimHTTPServer) -> None:
    """Serve until interrupted, then close the server."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
