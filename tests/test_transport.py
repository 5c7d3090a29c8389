import base64
import datetime
import http.client
import ipaddress
import socket
import socketserver
import ssl
import statistics
import threading
import time
import urllib.parse
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.x509.oid import NameOID

from fpaudit.challenge import RandomnessSource, judge, render_test
from fpaudit.simulator import LatencyModel, SimProviderConfig, produce
from fpaudit.simserver import SimHTTPServer, _Handler, _message, start_server
from fpaudit.strategies import STRATEGIES, run_audit
from fpaudit.transport import (
    CLAIM_PAYLOAD,
    InterfaceEndpoint,
    TransportError,
    close_connections,
    exchange,
    make_loopback,
    probe_version_claim,
)
from fpaudit.verdict import build_report
from fpaudit.versions import parse_version as pv

CREDS = ("auditor", "sekrit")


def test_loopback_exchange_honest_listing_payload(db, sim_family, rng):
    cfg = SimProviderConfig(src_version=pv("7.2.14"), latency=LatencyModel(0.001, 0.0), seed=3)
    chl, rsp = make_loopback(produce(sim_family, cfg))
    rt = render_test(db, pv("7.2.0"), rng)
    record = exchange(chl, rsp, rt.challenge_payload, rt.deadline)
    assert record.response_bytes == b"bool(false)\n"
    assert record.elapsed < rt.deadline
    assert record.sent_at <= record.received_at


def test_loopback_absent_when_latency_exceeds_cap(sim_family):
    cfg = SimProviderConfig(src_version=pv("7.2.14"), latency=LatencyModel(10.0, 0.0), seed=3)
    chl, rsp = (replace(ep, timeout_cap=0.5) for ep in make_loopback(produce(sim_family, cfg)))
    record = exchange(chl, rsp, b"<?php var_dump(api_7_0_0(1));", 0.2)
    assert record.response_bytes is None
    assert record.elapsed <= 0.2 + 0.5 + 1e-6


def test_probe_version_claim_faker(faker_endpoints):
    assert probe_version_claim(faker_endpoints) == "20.9.85-car"


def test_probe_version_claim_honest(honest_endpoints):
    assert probe_version_claim(honest_endpoints("7.1.1")) == "7.1.1"


def test_probe_unreachable_endpoint_errors():
    ep = InterfaceEndpoint(id="x", kind="http-fetch",
                           address="http://127.0.0.1:1/challenge", timeout_cap=0.3)
    with pytest.raises(TransportError):
        probe_version_claim((ep, ep))


@pytest.fixture
def http_server(sim_family):
    cfg = SimProviderConfig(src_version=pv("7.2.14"), latency=LatencyModel(0.0, 0.0), seed=3)
    server = start_server(produce(sim_family, cfg), credentials=CREDS)
    yield server
    server.shutdown()
    server.server_close()


def _endpoints(base: str, credentials=None, timeout_cap: float = 5.0):
    return tuple(InterfaceEndpoint(id=name, kind="http-fetch", address=f"{base}/{name}",
                                   credentials=credentials, timeout_cap=timeout_cap)
                 for name in ("challenge", "response"))


def _count_connections(server, monkeypatch) -> list:
    """Record every connection ``server`` accepts from now on."""
    accepted, get_request = [], server.get_request

    def counting():
        accepted.append(get_request())
        return accepted[-1]

    monkeypatch.setattr(server, "get_request", counting)
    return accepted


def test_one_fixture_audit_over_http_opens_one_connection(http_server, db, rng, monkeypatch):
    accepted = _count_connections(http_server, monkeypatch)
    endpoints = _endpoints(http_server.url(""), CREDS)
    assert probe_version_claim(endpoints) == "7.2.14"
    report = build_report(run_audit(db, "CBS", endpoints, rng), db)
    assert report.candidate_set.labels() == ["7.2.14"]
    assert len(accepted) == 1


def test_kept_alive_exchanges_do_not_stall_on_delayed_acks(http_server):
    # With Nagle's algorithm on at either end, a reply split over two writes
    # waits for the peer's delayed ACK: about 40 ms per exchange on Linux.
    chl, rsp = _endpoints(http_server.url(""), CREDS)
    records = [exchange(chl, rsp, CLAIM_PAYLOAD, 1.0) for _ in range(40)]
    assert all(r.response_bytes == b"7.2.14" for r in records)
    assert statistics.median(r.elapsed for r in records) < 0.020


def _wait_until(condition, seconds: float = 5.0) -> None:
    give_up = time.monotonic() + seconds
    while not condition() and time.monotonic() < give_up:
        time.sleep(0.005)
    assert condition()


def test_a_connection_the_server_closed_while_idle_is_reopened(http_server, monkeypatch):
    accepted = _count_connections(http_server, monkeypatch)
    chl, rsp = _endpoints(http_server.url(""), CREDS)
    assert exchange(chl, rsp, CLAIM_PAYLOAD, 1.0).response_bytes == b"7.2.14"
    sock, _ = accepted[0]
    sock.shutdown(socket.SHUT_RDWR)
    _wait_until(lambda: not http_server.connections)
    record = exchange(chl, rsp, CLAIM_PAYLOAD, 1.0)
    assert record.transport_error is None
    assert record.response_bytes == b"7.2.14"
    assert len(accepted) == 2


def test_simserver_shutdown_returns_within_a_short_poll_interval(http_server):
    started = time.perf_counter()
    http_server.shutdown()
    assert time.perf_counter() - started < 0.2


def test_a_closed_simserver_does_not_answer_on_a_kept_alive_connection(http_server):
    chl, rsp = _endpoints(http_server.url(""), CREDS)
    assert exchange(chl, rsp, CLAIM_PAYLOAD, 1.0).response_bytes == b"7.2.14"
    http_server.shutdown()
    http_server.server_close()
    record = exchange(chl, rsp, CLAIM_PAYLOAD, 1.0)
    assert record.response_bytes is None
    assert record.transport_error.startswith("challenge delivery failed: ")


@pytest.mark.parametrize("path, credentials, status", [
    ("/challenge", b"auditor:wrong", 401),
    ("/elsewhere", b"auditor:sekrit", 404),
])
def test_simserver_closes_a_connection_whose_request_body_it_left_unread(
        http_server, path, credentials, status):
    # Left on a kept-alive connection, the body would be read as the next request.
    conn = http.client.HTTPConnection("127.0.0.1", http_server.port, timeout=5)
    try:
        conn.request("PUT", path, b"GET /response HTTP/1.1\r\n\r\n",
                     {"Authorization": "Basic " + base64.b64encode(credentials).decode()})
        response = conn.getresponse()
        response.read()
    finally:
        conn.close()
    assert response.status == status
    assert response.getheader("Connection") == "close"


class _SlowFirstAnswer:
    """Answers every challenge at once, except the first, which takes 0.3 s."""

    def __init__(self) -> None:
        self.answered = 0

    def respond(self, payload: bytes) -> tuple[bytes, float]:
        self.answered += 1
        return b"answer to " + payload, 0.3 if self.answered == 1 else 0.0


def test_a_timed_out_fetch_closes_its_connection(http_server):
    http_server.responder = _SlowFirstAnswer()
    chl, rsp = _endpoints(http_server.url(""), CREDS, timeout_cap=0.1)
    first = exchange(chl, rsp, b"round 1", 0.05)
    assert first.transport_error.startswith("response fetch failed: ")
    time.sleep(0.4)  # the late answer to round 1 has been sent by now
    second = exchange(chl, rsp, b"round 2", 1.0)
    assert second.transport_error is None
    assert second.response_bytes == b"answer to round 2"


@contextmanager
def _serving(handler, **attrs):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    for name, value in attrs.items():
        setattr(server, name, value)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class _HangUpHandler(BaseHTTPRequestHandler):
    """Closes every connection without reading or answering a request."""

    def handle(self) -> None:
        self.server.hung_up += 1


def test_a_new_connection_that_fails_is_not_retried():
    with _serving(_HangUpHandler, hung_up=0) as server:
        chl, rsp = _endpoints(f"http://127.0.0.1:{server.server_address[1]}")
        record = exchange(chl, rsp, b"payload", 0.5)
    assert record.transport_error.startswith("challenge delivery failed: ")
    assert server.hung_up == 1


class _RedirectHandler(BaseHTTPRequestHandler):
    """Answers PUT with ``server.put_status`` and GET with 302, each pointing
    at /elsewhere, on kept-alive connections, and records every path asked
    for."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:
        pass

    def _redirect(self, status: int) -> None:
        self.server.paths.append(self.path)
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.send_response(status)
        self.send_header("Location", "/elsewhere")
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_PUT(self) -> None:
        self._redirect(self.server.put_status)

    def do_GET(self) -> None:
        self._redirect(302)


@pytest.mark.parametrize("put_status, error", [
    (307, "challenge delivery rejected: HTTP 307"),
    (204, "response fetch rejected: HTTP 302"),
])
def test_http_redirects_are_rejected_not_followed(put_status, error, monkeypatch):
    with _serving(_RedirectHandler, put_status=put_status, paths=[]) as server:
        accepted = _count_connections(server, monkeypatch)
        chl, rsp = _endpoints(f"http://127.0.0.1:{server.server_address[1]}", CREDS)
        records = [exchange(chl, rsp, b"payload", 0.5) for _ in range(2)]
    assert all(r.response_bytes is None for r in records)
    assert [r.transport_error for r in records] == [error, error]
    assert "/elsewhere" not in server.paths
    # A rejected status closes the connection: each exchange opened its own.
    assert len(accepted) == 2


class _ForwardingProxy(BaseHTTPRequestHandler):
    """Records every request, forwards absolute-form ones to their origin and
    refuses CONNECT tunnels."""

    def log_message(self, *args) -> None:
        pass

    def _record(self) -> None:
        self.server.seen.append((self.command, self.path,
                                 self.headers.get("Proxy-Authorization")))

    def _forward(self) -> None:
        self._record()
        url = urllib.parse.urlsplit(self.path)
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        origin = http.client.HTTPConnection(url.netloc, timeout=5)
        try:
            origin.request(self.command, url.path, body,
                           {"Authorization": self.headers.get("Authorization", "")})
            answer = origin.getresponse()
            data = answer.read()
        finally:
            origin.close()
        self.send_response(answer.status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_PUT = do_GET = _forward

    def do_CONNECT(self) -> None:
        self._record()
        self.send_response(502)
        self.end_headers()


@pytest.fixture
def proxy(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    with _serving(_ForwardingProxy, seen=[]) as server:
        address = f"http://scout:pw@127.0.0.1:{server.server_address[1]}"
        monkeypatch.setenv("HTTP_PROXY", address)
        monkeypatch.setenv("HTTPS_PROXY", address)
        yield server


PROXY_AUTH = "Basic c2NvdXQ6cHc="  # scout:pw


def test_http_goes_through_the_proxy_the_environment_names(proxy, http_server):
    chl, rsp = _endpoints(http_server.url(""), CREDS)
    record = exchange(chl, rsp, CLAIM_PAYLOAD, 1.0)
    assert record.response_bytes == b"7.2.14"
    assert proxy.seen == [("PUT", chl.address, PROXY_AUTH), ("GET", rsp.address, PROXY_AUTH)]


def test_https_is_tunnelled_through_the_proxy_the_environment_names(proxy):
    chl, rsp = _endpoints("https://127.0.0.1:1", CREDS)
    record = exchange(chl, rsp, CLAIM_PAYLOAD, 1.0)
    assert record.transport_error.startswith("challenge delivery failed: Tunnel connection failed")
    assert proxy.seen == [("CONNECT", "127.0.0.1:1", PROXY_AUTH)]


def test_no_proxy_exempts_a_host_from_the_proxy(proxy, http_server, monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    chl, rsp = _endpoints(http_server.url(""), CREDS)
    assert exchange(chl, rsp, CLAIM_PAYLOAD, 1.0).response_bytes == b"7.2.14"
    assert proxy.seen == []


def test_probe_version_claim_over_http(http_server, sim_family):
    # The claim travels as one more challenge through the audit's own pair.
    cfg = SimProviderConfig(src_version=pv("7.1.1"), behavior="claim-faker",
                            claim_label="20.9.85-car", latency=LatencyModel(0.0, 0.0), seed=3)
    http_server.responder = produce(sim_family, cfg)
    creds = ("auditor", "sekrit")
    chl = InterfaceEndpoint(id="c", kind="http-fetch",
                            address=http_server.url("/challenge"), credentials=creds)
    rsp = InterfaceEndpoint(id="r", kind="http-fetch",
                            address=http_server.url("/response"), credentials=creds)
    assert probe_version_claim((chl, rsp)) == "20.9.85-car"


def test_http_exchange_round_trip(http_server, db, rng):
    creds = ("auditor", "sekrit")
    chl = InterfaceEndpoint(id="c", kind="http-fetch",
                            address=http_server.url("/challenge"), credentials=creds)
    rsp = InterfaceEndpoint(id="r", kind="http-fetch",
                            address=http_server.url("/response"), credentials=creds)
    rt = render_test(db, pv("7.2.0"), rng)
    record = exchange(chl, rsp, rt.challenge_payload, 2.0)
    assert record.response_bytes == b"bool(false)\n"


def test_http_wrong_credentials_is_auth_error(http_server):
    chl = InterfaceEndpoint(id="c", kind="http-fetch",
                            address=http_server.url("/challenge"),
                            credentials=("auditor", "wrong"))
    rsp = InterfaceEndpoint(id="r", kind="http-fetch",
                            address=http_server.url("/response"),
                            credentials=("auditor", "wrong"))
    record = exchange(chl, rsp, b"<?php phpversion();", 0.5)
    assert record.response_bytes is None
    assert record.transport_error == "auth"


@pytest.mark.parametrize("address", ["file:///etc/hostname", "127.0.0.1:1/challenge",
                                     "http://127.0.0.1:port/challenge"])
def test_http_endpoint_with_a_bad_address_is_a_transport_error(address):
    ep = InterfaceEndpoint(id="c", kind="http-fetch", address=address, timeout_cap=0.3)
    record = exchange(ep, ep, b"payload", 0.1)
    assert record.response_bytes is None
    assert record.transport_error.startswith("challenge delivery failed: ")


class _HeldAckHandler(BaseHTTPRequestHandler):
    """Holds each PUT's acknowledgement for 300 ms, then answers GET at once."""

    def log_message(self, *args) -> None:
        pass

    def do_PUT(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        time.sleep(0.3)
        self.send_response(204)
        self.end_headers()

    def do_GET(self) -> None:
        body = self.server.answer
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_http_held_put_acknowledgement_counts_against_deadline(db, rng):
    # A provider that forwards the challenge while holding the PUT
    # acknowledgement, and then serves the right answer at once, must still
    # miss the 200 ms deadline.
    rt = render_test(db, pv("7.2.0"), rng)
    assert rt.deadline == pytest.approx(0.2)
    with _serving(_HeldAckHandler, answer=rt.expected_payload) as server:
        base = f"http://127.0.0.1:{server.server_address[1]}"
        chl = InterfaceEndpoint(id="c", kind="http-fetch", address=base + "/challenge")
        rsp = InterfaceEndpoint(id="r", kind="http-fetch", address=base + "/response")
        record = exchange(chl, rsp, rt.challenge_payload, rt.deadline)
    assert record.response_bytes == rt.expected_payload
    result = judge(record.response_bytes, rt.expected_payload, record.elapsed,
                   rt.deadline, record.transport_error)
    assert result.reason == "timeout"


class _StaleAnswerHandler(BaseHTTPRequestHandler):
    """An honest provider whose answer takes 200 ms, but whose GET keeps
    serving the previous round's answer (404 before the first) until then."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # else each answer waits for a delayed ACK

    def log_message(self, *args) -> None:
        pass

    def do_PUT(self) -> None:
        server = self.server
        payload = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        server.previous, server.latest = server.latest, b"answer to " + payload
        server.put_at = time.monotonic()
        self.send_response(204)
        self.end_headers()

    def do_GET(self) -> None:
        server = self.server
        ready = time.monotonic() - server.put_at >= 0.2
        body = server.latest if ready else server.previous
        self.send_response(404 if body is None else 200)
        self.send_header("Content-Length", str(len(body or b"")))
        self.end_headers()
        self.wfile.write(body or b"")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP direction 6: the first GET that is not a 404 is taken "
                          "as the answer, even one left from the round before")
def test_an_http_answer_left_from_the_previous_round_is_not_this_rounds():
    with _serving(_StaleAnswerHandler, previous=None, latest=None, put_at=0.0) as server:
        chl, rsp = _endpoints(f"http://127.0.0.1:{server.server_address[1]}")
        first = exchange(chl, rsp, b"round 1", 0.5)
        second = exchange(chl, rsp, b"round 2", 0.5)
    assert first.response_bytes == b"answer to round 1"
    assert second.response_bytes == b"answer to round 2"


def test_an_http_challenge_with_a_loopback_response_is_a_transport_error(sim_family):
    chl = InterfaceEndpoint(id="c", kind="http-fetch", address="http://127.0.0.1:1/challenge")
    _, rsp = make_loopback(produce(sim_family, SimProviderConfig(src_version=pv("7.2.14"))))
    record = exchange(chl, rsp, b"payload", 0.2)
    assert record.response_bytes is None
    assert "unsupported response channel 'loopback-sim'" in record.transport_error


@pytest.mark.parametrize("kind", ["carrier-pigeon", "file-drop"])
def test_an_unknown_challenge_kind_raises(kind):
    chl = InterfaceEndpoint(id="c", kind=kind)
    rsp = InterfaceEndpoint(id="r", kind="http-fetch", address="http://127.0.0.1:1/response")
    with pytest.raises(ValueError, match=f"unknown endpoint kind '{kind}'"):
        exchange(chl, rsp, b"payload", 0.2)


def test_probe_version_claim_without_an_answer_errors(http_server):
    # The simulator answers 404 at any path but /response: never ready.
    chl = InterfaceEndpoint(id="c", kind="http-fetch", address=http_server.url("/challenge"),
                            credentials=CREDS, timeout_cap=0.05)
    rsp = InterfaceEndpoint(id="r", kind="http-fetch", address=http_server.url("/elsewhere"),
                            credentials=CREDS, timeout_cap=0.05)
    with pytest.raises(TransportError, match="no answer within"):
        probe_version_claim((chl, rsp))


def test_exchange_timestamps_monotone(honest_endpoints):
    chl, rsp = honest_endpoints("7.2.14")
    record = exchange(chl, rsp, b"<?php phpversion();", 0.5)
    assert record.sent_at <= record.received_at
    assert record.elapsed >= 0.0


class _CannedAnswers(socketserver.StreamRequestHandler):
    """Reads each request on a kept-alive connection and answers it with
    ``server.answers[method]``, sent as it is in one write."""

    def handle(self) -> None:
        try:
            while line := self.rfile.readline():
                length = 0
                while (field := self.rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = field.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                self.rfile.read(length)
                self.wfile.write(self.server.answers[line.split()[0].decode()])
        except OSError:
            pass  # the client closed the connection while its answer was being sent


NO_CONTENT = b"HTTP/1.1 204 No Content\r\n\r\n"
FRESH = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfresh"


@pytest.mark.parametrize("put_answer, get_answer, connections", [
    (NO_CONTENT + b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nstale", FRESH, 3),
    (NO_CONTENT, FRESH + b" and more", 2),
], ids=["an-answer-nobody-asked-for", "beyond-its-content-length"])
def test_bytes_left_over_after_an_answer_close_the_connection(put_answer, get_answer,
                                                              connections, monkeypatch):
    # They are never read as the next request's answer.
    with _serving(_CannedAnswers, answers={"PUT": put_answer, "GET": get_answer}) as server:
        accepted = _count_connections(server, monkeypatch)
        chl, rsp = _endpoints(f"http://127.0.0.1:{server.server_address[1]}")
        records = [exchange(chl, rsp, b"payload", 1.0) for _ in range(2)]
    assert [(r.transport_error, r.response_bytes) for r in records] == [(None, b"fresh")] * 2
    assert len(accepted) == connections


@pytest.mark.parametrize("answer, error", [
    (b"HTTP/1.1 200 " + b"x" * 65536 + b"\r\n\r\n",
     "got more than 65536 bytes when reading status line"),
    (b"HTTP/1.1 200 OK\r\nX-Long: " + b"x" * 65536 + b"\r\n\r\n",
     "got more than 65536 bytes when reading header line"),
    (b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 99 + b"Content-Length: 0\r\n\r\n",
     "got more than 100 headers"),
], ids=["status-line", "header-line", "header-count"])
def test_an_answer_over_the_header_limits_fails_the_fetch_and_closes(answer, error, monkeypatch):
    with _serving(_CannedAnswers, answers={"PUT": NO_CONTENT, "GET": answer}) as server:
        accepted = _count_connections(server, monkeypatch)
        chl, rsp = _endpoints(f"http://127.0.0.1:{server.server_address[1]}")
        first = exchange(chl, rsp, b"payload", 1.0)
        server.answers["GET"] = FRESH
        second = exchange(chl, rsp, b"payload", 1.0)
    assert first.response_bytes is None
    assert first.transport_error == f"response fetch failed: {error}"
    assert (second.transport_error, second.response_bytes) == (None, b"fresh")
    assert len(accepted) == 2


def test_an_answer_at_the_header_limits_is_read(monkeypatch):
    # A 65,536-byte status line, ending included, and 100 header lines,
    # the blank one included, are what http.client accepts too.
    status = b"HTTP/1.1 200 " + b"x" * (65536 - 15) + b"\r\n"
    answer = status + b"X-Many: 1\r\n" * 98 + b"Content-Length: 5\r\n\r\nfresh"
    assert len(status) == 65536
    with _serving(_CannedAnswers, answers={"PUT": NO_CONTENT, "GET": answer}) as server:
        accepted = _count_connections(server, monkeypatch)
        chl, rsp = _endpoints(f"http://127.0.0.1:{server.server_address[1]}")
        records = [exchange(chl, rsp, b"payload", 1.0) for _ in range(2)]
    assert [(r.transport_error, r.response_bytes) for r in records] == [(None, b"fresh")] * 2
    assert len(accepted) == 1


AUTH = b"Authorization: Basic " + base64.b64encode(b"auditor:sekrit") + b"\r\n"


def _raw_connection(server) -> socket.socket:
    return socket.create_connection(("127.0.0.1", server.port), timeout=5)


def _read_reply(sock: socket.socket) -> tuple[int, str | None, bytes]:
    """The status, Connection header and body of the next answer, read by
    http.client, which skips a ``100 Continue``."""
    response = http.client.HTTPResponse(sock)
    response.begin()
    return response.status, response.getheader("Connection"), response.read()


def test_simserver_sends_100_continue_before_reading_a_put_body(http_server):
    # What "curl -T" does: the body follows only once the server asks for it.
    with _raw_connection(http_server) as sock:
        sock.sendall(b"PUT /challenge HTTP/1.1\r\nHost: sim\r\n" + AUTH
                     + b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n" % len(CLAIM_PAYLOAD))
        interim = b"HTTP/1.1 100 Continue\r\n\r\n"
        assert sock.recv(len(interim), socket.MSG_WAITALL) == interim
        sock.sendall(CLAIM_PAYLOAD)
        assert _read_reply(sock) == (204, None, b"")
        sock.sendall(b"GET /response HTTP/1.1\r\nHost: sim\r\n" + AUTH + b"\r\n")
        assert _read_reply(sock) == (200, None, b"7.2.14")


@pytest.mark.parametrize("request_head, status", [
    (b"PUT /challenge HTTP/1.1\r\nHost: sim\r\n" + AUTH + b"\r\n", 411),
    (b"HELLO\r\n\r\n", 400),
    (b"GET /response\r\n\r\n", 400),
    (b"GET /response SPDY/3\r\n\r\n", 400),
], ids=["put-without-length", "one-word", "no-version", "not-http"])
def test_simserver_answers_a_request_it_cannot_frame_and_closes(http_server, request_head,
                                                                 status):
    with _raw_connection(http_server) as sock:
        sock.sendall(request_head)
        assert _read_reply(sock)[:2] == (status, "close")
        assert sock.recv(1) == b""


def test_simserver_answers_one_http_1_0_request_and_closes(http_server):
    request = b"GET /response HTTP/1.0\r\n" + AUTH + b"\r\n"
    with _raw_connection(http_server) as sock:
        sock.sendall(request * 2)
        assert _read_reply(sock) == (404, "close", b"")
        assert sock.recv(1) == b""


@pytest.mark.parametrize("address", ["http://127.0.0.1:1/a challenge", "http://127.0.0.1:1/défi"])
def test_an_address_a_request_line_cannot_carry_is_a_transport_error(address):
    ep = InterfaceEndpoint(id="c", kind="http-fetch", address=address, timeout_cap=0.3)
    record = exchange(ep, ep, b"payload", 0.1)
    assert record.response_bytes is None
    assert record.transport_error == (f"challenge delivery failed: {address!r} has a character "
                                      "a request line cannot carry")


@pytest.mark.parametrize("address", ["file:///etc/hostname", "127.0.0.1:1/challenge",
                                     "http://127.0.0.1:port/challenge",
                                     "http://127.0.0.1:1/a challenge"])
def test_a_bad_address_fails_every_exchange_with_the_same_message(address):
    # Each endpoint's request set-up is worked out once and reused; a bad
    # address must not be remembered as a good one, nor change its message.
    ep = InterfaceEndpoint(id="c", kind="http-fetch", address=address, timeout_cap=0.3)
    errors = {exchange(ep, ep, b"payload", 0.1).transport_error for _ in range(3)}
    assert len(errors) == 1
    assert errors.pop().startswith("challenge delivery failed: ")


class _RecordsAuthorization(socketserver.StreamRequestHandler):
    """Answers each request 204 (PUT) or 200 (GET) on a kept-alive
    connection and records its Authorization value (None without one)."""

    def handle(self) -> None:
        while line := self.rfile.readline():
            fields = {}
            while (field := self.rfile.readline()) not in (b"\r\n", b""):
                name, _, value = field.partition(b":")
                fields[name.strip().lower()] = value.strip()
            self.rfile.read(int(fields.get(b"content-length", 0)))
            self.server.seen.append(fields.get(b"authorization"))
            self.wfile.write(NO_CONTENT if line.startswith(b"PUT") else FRESH)


def test_endpoints_differing_only_in_credentials_send_their_own_authorization():
    with _serving(_RecordsAuthorization, seen=[]) as server:
        base = f"http://127.0.0.1:{server.server_address[1]}"
        for credentials in (CREDS, ("auditor", "other"), None, CREDS):
            assert exchange(*_endpoints(base, credentials), b"payload", 1.0).response_bytes == b"fresh"
    expected = [b"Basic " + base64.b64encode(b"auditor:sekrit"),
                b"Basic " + base64.b64encode(b"auditor:other"), None,
                b"Basic " + base64.b64encode(b"auditor:sekrit")]
    assert server.seen == [value for value in expected for _ in ("PUT", "GET")]


@pytest.mark.parametrize("request_head, status, close", [
    (b"PUT /challenge HTTP/1.1\r\n" + AUTH + b"Content-Length: 1\r\n\r\nx", 204, False),
    (b"PUT /challenge HTTP/1.1\r\n" + AUTH + b"Connection: close\r\nContent-Length: 1\r\n\r\nx",
     204, True),
    (b"GET /response HTTP/1.1\r\n" + AUTH + b"\r\n", 404, False),
    (b"GET /elsewhere HTTP/1.0\r\n" + AUTH + b"\r\n", 404, True),
    (b"PUT /challenge HTTP/1.1\r\n" + AUTH + b"\r\n", 411, True),
    (b"DELETE /challenge HTTP/1.1\r\n\r\n", 501, False),
    (b"DELETE /challenge HTTP/1.1\r\nConnection: close\r\n\r\n", 501, True),
], ids=["204", "204-close", "404", "404-close", "411-close", "501", "501-close"])
def test_a_prebuilt_simserver_reply_is_what_the_general_path_builds(http_server, request_head,
                                                                      status, close):
    with _raw_connection(http_server) as sock:
        sock.sendall(request_head)
        reply = b""
        while not reply.endswith(b"\r\n\r\n"):
            reply += sock.recv(4096)
        assert reply == _message(status, b"", (), close)
        if close:
            assert sock.recv(1) == b""


def _self_signed_certificate(directory: Path) -> tuple[Path, Path]:
    """A certificate for 127.0.0.1, signed by its own key, and that key, as PEM files."""
    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (x509.CertificateBuilder()
            .subject_name(name).issuer_name(name)
            .public_key(key.public_key())
            .serial_number(x509.random_serial_number())
            .not_valid_before(now - datetime.timedelta(minutes=5))
            .not_valid_after(now + datetime.timedelta(days=1))
            .add_extension(x509.SubjectAlternativeName(
                [x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), critical=False)
            .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
            .sign(key, hashes.SHA256()))
    cert_file, key_file = directory / "cert.pem", directory / "key.pem"
    cert_file.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_file.write_bytes(key.private_bytes(serialization.Encoding.PEM,
                                           serialization.PrivateFormat.PKCS8,
                                           serialization.NoEncryption()))
    return cert_file, key_file


@pytest.fixture
def https_server(sim_family, tmp_path):
    """The simulator served over TLS with a self-signed certificate, and the
    certificate's file."""
    cert_file, key_file = _self_signed_certificate(tmp_path)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert_file, key_file)
    cfg = SimProviderConfig(src_version=pv("7.2.14"), latency=LatencyModel(0.0, 0.0), seed=3)
    server = SimHTTPServer(produce(sim_family, cfg), credentials=CREDS)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    yield server, cert_file
    server.shutdown()
    server.server_close()
    close_connections()


def test_https_exchange_round_trip_with_a_trusted_certificate(https_server, db, rng, monkeypatch):
    server, cert_file = https_server
    monkeypatch.setenv("SSL_CERT_FILE", str(cert_file))
    chl, rsp = _endpoints(f"https://127.0.0.1:{server.port}", CREDS)
    for _ in range(3):
        rt = render_test(db, pv("7.2.0"), rng)
        record = exchange(chl, rsp, rt.challenge_payload, 2.0)
        assert record.transport_error is None
        assert record.response_bytes == b"bool(false)\n"


def test_https_exchange_with_an_untrusted_certificate_fails_delivery(https_server, tmp_path,
                                                                     monkeypatch):
    server, _ = https_server
    (tmp_path / "other").mkdir()
    other_cert, _ = _self_signed_certificate(tmp_path / "other")
    monkeypatch.setenv("SSL_CERT_FILE", str(other_cert))
    chl, rsp = _endpoints(f"https://127.0.0.1:{server.port}", CREDS)
    record = exchange(chl, rsp, b"<?php phpversion();", 2.0)
    assert record.response_bytes is None
    assert record.transport_error.startswith("challenge delivery failed: ")
    assert "CERTIFICATE_VERIFY_FAILED" in record.transport_error


# A provider may answer the challenge on the PUT's own reply (RFC 7240
# return=representation, with a Content-Location naming the response URL).

PREFER = b"Prefer: return=representation\r\n"


@pytest.mark.parametrize("prefer, answered", [
    (PREFER, True),
    (b"Prefer: respond-async, RETURN = \"representation\"; x=1\r\n", True),
    (b"", False),
    (b"Prefer: return=minimal\r\n", False),
    (b"Prefer: return=representations\r\n", False),
], ids=["asked", "among-others", "not-asked", "minimal", "other-token"])
def test_simserver_answers_a_put_that_asks_for_the_representation(http_server, prefer, answered):
    with _raw_connection(http_server) as sock:
        sock.sendall(b"PUT /challenge HTTP/1.1\r\nHost: sim\r\n" + AUTH + prefer
                     + b"Content-Length: %d\r\n\r\n" % len(CLAIM_PAYLOAD) + CLAIM_PAYLOAD)
        response = http.client.HTTPResponse(sock)
        response.begin()
        reply = (response.status, response.getheader("Content-Location"),
                 response.getheader("Preference-Applied"), response.read())
        # The challenge is stored either way, so a client that did not take
        # the answer on the PUT can still GET it.
        sock.sendall(b"GET /response HTTP/1.1\r\nHost: sim\r\n" + AUTH + b"\r\n")
        assert _read_reply(sock) == (200, None, b"7.2.14")
    if answered:
        assert reply == (200, "/response", "return=representation", b"7.2.14")
    else:
        assert reply == (204, None, None, b"")


def _count_requests(monkeypatch) -> Counter:
    """Count, by method, every request a simserver serves from now on."""
    seen = Counter()
    for method in ("PUT", "GET"):
        serve = getattr(_Handler, f"do_{method}")

        def counted(self, serve=serve, method=method):
            seen[method] += 1
            serve(self)

        monkeypatch.setattr(_Handler, f"do_{method}", counted)
    return seen


def _exchanges(log) -> int:
    return sum(len(outcome.exchanges) for outcome in log.plan_outcomes())


def test_a_provider_that_answers_on_the_put_serves_each_exchange_in_one_request(
        http_server, db, rng, monkeypatch):
    seen = _count_requests(monkeypatch)
    endpoints = _endpoints(http_server.url(""), CREDS)
    records = [exchange(*endpoints, CLAIM_PAYLOAD, 1.0) for _ in range(5)]
    assert [(r.transport_error, r.response_bytes) for r in records] == [(None, b"7.2.14")] * 5
    log = run_audit(db, "CBS", endpoints, rng)
    assert build_report(log, db).candidate_set.labels() == ["7.2.14"]
    assert seen == {"PUT": 5 + _exchanges(log)}


class _Recorded(socketserver.StreamRequestHandler):
    """Like ``_CannedAnswers``, and records each request's method, target
    and Prefer value (None without one)."""

    def handle(self) -> None:
        try:
            while line := self.rfile.readline():
                fields = {}
                while (field := self.rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = field.partition(b":")
                    fields[name.strip().lower()] = value.strip()
                self.rfile.read(int(fields.get(b"content-length", 0)))
                method, target = line.split()[:2]
                self.server.seen.append((method.decode(), target.decode(), fields.get(b"prefer")))
                self.wfile.write(self.server.answers[method.decode()])
        except OSError:
            pass  # the client closed the connection while its answer was being sent


def _answer(body: bytes, *fields: bytes, status: bytes = b"200 OK") -> bytes:
    head = b"HTTP/1.1 " + status + b"\r\n" + b"".join(f + b"\r\n" for f in fields)
    return head + b"Content-Length: %d\r\n\r\n" % len(body) + body


@contextmanager
def _recording(put_answer: bytes, get_answer: bytes = FRESH):
    """A ``_Recorded`` server answering PUT with ``put_answer``, in which
    ``{origin}`` stands for the server's own scheme and host:port."""
    with _serving(_Recorded, seen=[], answers={}) as server:
        origin = f"http://127.0.0.1:{server.server_address[1]}"
        server.answers.update(PUT=put_answer.replace(b"{origin}", origin.encode()),
                              GET=get_answer)
        yield server, origin


@pytest.mark.parametrize("put_answer", [
    NO_CONTENT,
    _answer(b"stored"),
    _answer(b"stale", b"Content-Location: /elsewhere"),
    _answer(b"stale", b"Content-Location: /challenge"),
    _answer(b"stale", b"Content-Location: /response?round=1"),
    _answer(b"stale", b"Content-Location: http://127.0.0.1:1/response"),
    _answer(b"stale", b"Content-Location: https://127.0.0.1:1/response"),
    _answer(b"stale", b"Content-Location: http://[::1/response"),
    _answer(b"stale", b"Content-Location: /response", status=b"201 Created"),
    _answer(b"stale", b"Content-Location: /response",
            status=b"203 Non-Authoritative Information"),
], ids=["204", "200-without-location", "another-path", "the-challenge", "another-query",
        "another-origin", "another-scheme", "malformed", "201", "203"])
def test_a_put_reply_that_is_not_the_response_is_only_an_acknowledgement(put_answer):
    with _recording(put_answer) as (server, origin):
        chl, rsp = _endpoints(origin)
        records = [exchange(chl, rsp, b"payload", 1.0) for _ in range(2)]
    assert [(r.transport_error, r.response_bytes) for r in records] == [(None, b"fresh")] * 2
    asked = b"return=representation"
    assert server.seen == [("PUT", "/challenge", asked), ("GET", "/response", None)] * 2


@pytest.mark.parametrize("location", [b"/response", b"response", b"{origin}/response",
                                      b"/response#answer"],
                         ids=["absolute-path", "relative", "absolute-url", "fragment"])
def test_a_200_put_reply_that_names_the_response_ends_the_exchange(location):
    with _recording(_answer(b"fresh", b"Content-Location: " + location)) as (server, origin):
        chl, rsp = _endpoints(origin)
        records = [exchange(chl, rsp, b"payload", 1.0) for _ in range(2)]
    assert [(r.transport_error, r.response_bytes) for r in records] == [(None, b"fresh")] * 2
    assert [method for method, _, _ in server.seen] == ["PUT", "PUT"]


def test_an_answer_on_the_put_from_another_origin_than_the_response_is_not_taken():
    # The response URL is on another origin, which the Content-Location
    # names: the challenge's origin cannot answer for it.
    with _recording(NO_CONTENT) as (other, other_origin):
        answer = _answer(b"stale", f"Content-Location: {other_origin}/response".encode())
        with _recording(answer) as (server, origin):
            chl = InterfaceEndpoint(id="c", kind="http-fetch", address=f"{origin}/challenge")
            rsp = InterfaceEndpoint(id="r", kind="http-fetch", address=f"{other_origin}/response")
            record = exchange(chl, rsp, b"payload", 1.0)
    assert (record.transport_error, record.response_bytes) == (None, b"fresh")
    assert [method for method, _, _ in server.seen] == ["PUT"]
    assert [method for method, _, _ in other.seen] == ["GET"]


def test_a_malformed_response_address_fails_the_fetch_after_an_answer_on_the_put():
    with _recording(_answer(b"fresh", b"Content-Location: /response")) as (server, origin):
        chl = InterfaceEndpoint(id="c", kind="http-fetch", address=f"{origin}/challenge")
        rsp = InterfaceEndpoint(id="r", kind="http-fetch", address="127.0.0.1:1/response")
        errors = {exchange(chl, rsp, b"payload", 0.5).transport_error for _ in range(3)}
    assert errors == {"response fetch failed: '127.0.0.1:1/response' is not an http(s) URL"}


ANSWERED = _answer(b"fresh", b"Content-Location: /response")


def test_an_answer_nobody_asked_for_after_the_puts_answer_closes_the_connection(monkeypatch):
    unasked = _answer(b"stale", b"Content-Location: /response")
    with _serving(_CannedAnswers, answers={"PUT": ANSWERED + unasked, "GET": FRESH}) as server:
        accepted = _count_connections(server, monkeypatch)
        chl, rsp = _endpoints(f"http://127.0.0.1:{server.server_address[1]}")
        records = [exchange(chl, rsp, b"payload", 1.0) for _ in range(3)]
    assert [(r.transport_error, r.response_bytes) for r in records] == [(None, b"fresh")] * 3
    assert len(accepted) == 3


def test_an_answer_on_the_put_that_keeps_the_connection_reuses_it(monkeypatch):
    with _serving(_CannedAnswers, answers={"PUT": ANSWERED, "GET": FRESH}) as server:
        accepted = _count_connections(server, monkeypatch)
        chl, rsp = _endpoints(f"http://127.0.0.1:{server.server_address[1]}")
        records = [exchange(chl, rsp, b"payload", 1.0) for _ in range(3)]
    assert [(r.transport_error, r.response_bytes) for r in records] == [(None, b"fresh")] * 3
    assert len(accepted) == 1


def test_a_put_that_times_out_connecting_is_a_failed_delivery(monkeypatch):
    # Only a time-out awaiting the PUT's reply is a failed fetch.
    def slow_connect(*args, **kwargs):
        raise TimeoutError("timed out")

    monkeypatch.setattr(socket, "create_connection", slow_connect)
    chl, rsp = _endpoints("http://127.0.0.1:1")
    record = exchange(chl, rsp, b"payload", 0.1)
    assert record.transport_error == "challenge delivery failed: timed out"


def test_a_put_that_times_out_being_sent_is_a_failed_delivery():
    # A server that never reads: the challenge fills both ends' buffers
    # (4 MB at most on Linux) and its last bytes never go out.
    with socket.socket() as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        server.bind(("127.0.0.1", 0))
        server.listen()
        chl, rsp = _endpoints(f"http://127.0.0.1:{server.getsockname()[1]}", timeout_cap=0.2)
        record = exchange(chl, rsp, bytes(8 << 20), 0.1)
    assert record.transport_error == "challenge delivery failed: timed out"


class _HeldAnswerHandler(BaseHTTPRequestHandler):
    """Answers each PUT that asks for it with the answer, after 300 ms."""

    def log_message(self, *args) -> None:
        pass

    def do_PUT(self) -> None:
        self.server.seen.append("PUT")
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        time.sleep(0.3)
        body = self.server.answer
        self.send_response(200)
        self.send_header("Content-Location", "/response")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        self.server.seen.append("GET")
        self.send_response(404)
        self.send_header("Content-Length", "0")
        self.end_headers()


def test_an_answer_held_on_the_put_counts_against_deadline(db, rng):
    # As with a held acknowledgement: the clock starts before the PUT.
    rt = render_test(db, pv("7.2.0"), rng)
    assert rt.deadline == pytest.approx(0.2)
    with _serving(_HeldAnswerHandler, answer=rt.expected_payload, seen=[]) as server:
        chl, rsp = _endpoints(f"http://127.0.0.1:{server.server_address[1]}")
        record = exchange(chl, rsp, rt.challenge_payload, rt.deadline)
    assert server.seen == ["PUT"]
    assert record.response_bytes == rt.expected_payload
    assert record.elapsed >= 0.3
    result = judge(record.response_bytes, rt.expected_payload, record.elapsed,
                   rt.deadline, record.transport_error)
    assert result.reason == "timeout"


class _StaleGetAnswerOnPutHandler(_StaleAnswerHandler):
    """``_StaleAnswerHandler``, which also answers each PUT that asks for it
    with its own round's answer once that is ready, 200 ms on."""

    def do_PUT(self) -> None:
        server = self.server
        payload = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        server.previous, server.latest = server.latest, b"answer to " + payload
        server.put_at = time.monotonic()
        time.sleep(0.2)
        self.send_response(200)
        self.send_header("Content-Location", "/response")
        self.send_header("Content-Length", str(len(server.latest)))
        self.end_headers()
        self.wfile.write(server.latest)


def test_an_answer_on_the_put_is_its_own_rounds_where_the_get_would_be_stale():
    # The GET path's open defect (ROADMAP direction 6) does not reach an
    # answer sent on the PUT: it belongs to its round by construction.
    with _serving(_StaleGetAnswerOnPutHandler, previous=None, latest=None, put_at=0.0) as server:
        chl, rsp = _endpoints(f"http://127.0.0.1:{server.server_address[1]}")
        records = [exchange(chl, rsp, b"round %d" % n, 0.5) for n in (1, 2, 3)]
    assert [r.response_bytes for r in records] == [b"answer to round %d" % n for n in (1, 2, 3)]


class _IgnoresThePreference(_Handler):
    """The simulator as a server that never heard of RFC 7240."""

    def _read_request(self) -> bool:
        if not super()._read_request():
            return False
        self.headers.pop(b"prefer", None)
        return True


@pytest.fixture
def sim_servers(sim_family):
    """Two simulators: one answers on the PUT, one ignores the preference."""
    cfg = SimProviderConfig(src_version=pv("7.2.14"), latency=LatencyModel(0.0, 0.0), seed=3)
    servers = [start_server(produce(sim_family, cfg)) for _ in range(2)]
    servers[1].RequestHandlerClass = _IgnoresThePreference
    yield servers
    for server in servers:
        server.shutdown()
        server.server_close()
    close_connections()


def _http_audit(server, db, sim_family, strategy: str, src, behavior: str, seed: int):
    """One seeded audit over ``server``, claim probe included: its rows,
    stop reason, candidates, report document and exchanged bytes."""
    server.responder = produce(sim_family, SimProviderConfig(
        src_version=src, behavior=behavior, claim_label="99.0.0-fake",
        latency=LatencyModel(0.0, 0.0), seed=seed))
    endpoints = _endpoints(server.url(""))
    claimed = probe_version_claim(endpoints)
    log = run_audit(db, strategy, endpoints, RandomnessSource(seed=seed))
    report = build_report(log, db, claimed_version=claimed)
    exchanged = [(r.challenge_bytes, r.response_bytes, r.transport_error)
                 for outcome in log.plan_outcomes() for r in outcome.exchanges]
    rows = [(r.testorder, r.version, r.delta, r.origin) for r in log.rows]
    return rows, log.stop_reason, report.candidate_set.labels(), report.to_doc(), exchanged


def test_seeded_audits_over_an_answer_on_the_put_are_those_over_a_get(
        sim_servers, db, sim_family, monkeypatch):
    seen = _count_requests(monkeypatch)
    answering, ignoring = sim_servers
    specs = [(strategy, src, behavior) for strategy in STRATEGIES
             for src in sim_family.family.versions[::2] for behavior in ("honest", "claim-faker")]
    exchanges = 0
    for seed, spec in enumerate(specs):
        on_put = _http_audit(answering, db, sim_family, *spec, seed)
        on_get = _http_audit(ignoring, db, sim_family, *spec, seed)
        assert on_put == on_get, spec
        exchanges += 1 + len(on_put[4])  # the claim probe, then the audit's
    # Each exchange is one PUT to each server, and one GET to the one that ignores it.
    assert seen == {"PUT": 2 * exchanges, "GET": exchanges}


def test_a_timed_out_get_closes_its_connection(http_server, monkeypatch):
    # test_a_timed_out_fetch_closes_its_connection, over a provider that
    # ignores the preference: there the time-out is the GET's.
    seen = _count_requests(monkeypatch)
    http_server.RequestHandlerClass = _IgnoresThePreference
    http_server.responder = _SlowFirstAnswer()
    chl, rsp = _endpoints(http_server.url(""), CREDS, timeout_cap=0.1)
    first = exchange(chl, rsp, b"round 1", 0.05)
    assert first.transport_error.startswith("response fetch failed: ")
    time.sleep(0.4)  # the late answer to round 1 has been sent by now
    second = exchange(chl, rsp, b"round 2", 1.0)
    assert second.transport_error is None
    assert second.response_bytes == b"answer to round 2"
    assert seen == {"PUT": 2, "GET": 2}


class _CountedAnswers:
    """Answers every challenge after ``latency`` seconds, counting the answers."""

    def __init__(self, latency: float) -> None:
        self.latency, self.answered = latency, 0

    def respond(self, payload: bytes) -> tuple[bytes, float]:
        self.answered += 1
        return b"answer to " + payload, self.latency


def test_a_get_after_an_answer_on_the_put_repeats_it_without_evaluating_again(
        http_server, monkeypatch):
    # The response URL spells the simulator's host another way, so the
    # client does not take the PUT's answer and GETs the response.  The GET
    # repeats that answer at once: the challenge is evaluated, and its
    # latency slept, once a round.
    seen = _count_requests(monkeypatch)
    http_server.responder = responder = _CountedAnswers(0.2)
    chl, _ = _endpoints(http_server.url(""), CREDS)
    _, rsp = _endpoints(f"http://localhost:{http_server.port}", CREDS)
    records = [exchange(chl, rsp, b"round %d" % n, 1.0) for n in (1, 2)]
    assert [(r.transport_error, r.response_bytes) for r in records] == [
        (None, b"answer to round 1"), (None, b"answer to round 2")]
    assert seen == {"PUT": 2, "GET": 2}
    assert responder.answered == 2
    assert all(0.2 <= r.elapsed < 0.4 for r in records)
