"""Minimal HTTP front for a simulated provider.

PUT /challenge stores the payload; GET /response evaluates it, sleeps the
simulated latency for real, and returns the body.  Optional basic auth is
enabled by passing credentials (or the FPAUDIT_HTTP_USER / FPAUDIT_HTTP_PASS
environment variables when run via the CLI).
"""

from __future__ import annotations

import base64
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .transport import env_credentials


class SimHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, responder, port: int = 0,
                 credentials: tuple[str, str] | None = None):
        self.responder = responder
        self.credentials = credentials
        self.pending: bytes | None = None
        self.lock = threading.Lock()
        super().__init__(("127.0.0.1", port), _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"


class _Handler(BaseHTTPRequestHandler):
    server: SimHTTPServer

    def log_message(self, *args) -> None:
        pass

    def _authorized(self) -> bool:
        creds = self.server.credentials
        if creds is None:
            return True
        header = self.headers.get("Authorization", "")
        expected = "Basic " + base64.b64encode(f"{creds[0]}:{creds[1]}".encode()).decode()
        return header == expected

    def _deny(self) -> None:
        self.send_response(401)
        self.send_header("WWW-Authenticate", 'Basic realm="fpaudit"')
        self.end_headers()

    def do_PUT(self) -> None:
        if not self._authorized():
            return self._deny()
        if self.path != "/challenge":
            self.send_response(404)
            self.end_headers()
            return
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
            self.send_response(404)
            self.end_headers()
            return
        with self.server.lock:
            pending, self.server.pending = self.server.pending, None
        if pending is None:
            self.send_response(404)
            self.end_headers()
            return
        body, latency = self.server.responder.respond(pending)
        time.sleep(latency)
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def start_server(responder, port: int = 0,
                 credentials: tuple[str, str] | None = None) -> SimHTTPServer:
    server = SimHTTPServer(responder, port, credentials)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
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
