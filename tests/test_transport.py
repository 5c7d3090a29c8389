import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from fpaudit.challenge import judge, render_test
from fpaudit.simulator import LatencyModel, SimProviderConfig, produce
from fpaudit.simserver import start_server
from fpaudit.transport import (
    InterfaceEndpoint,
    exchange,
    make_loopback,
    probe_version_claim,
)
from fpaudit.versions import parse_version as pv


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
    chl, rsp = make_loopback(produce(sim_family, cfg), timeout_cap=0.5)
    record = exchange(chl, rsp, b"<?php var_dump(api_7_0_0(1));", 0.2)
    assert record.response_bytes is None
    assert record.elapsed <= 0.2 + 0.5 + 1e-6


def test_probe_version_claim_faker(faker_endpoints):
    assert probe_version_claim(faker_endpoints[0]) == "20.9.85-car"


def test_probe_version_claim_honest(honest_endpoints):
    chl, _ = honest_endpoints("7.1.1")
    assert probe_version_claim(chl) == "7.1.1"


def test_probe_unreachable_endpoint_errors():
    ep = InterfaceEndpoint(id="x", kind="http-fetch",
                           address="http://127.0.0.1:1/claim", timeout_cap=0.3)
    from fpaudit.transport import TransportError
    with pytest.raises(TransportError):
        probe_version_claim(ep)


@pytest.fixture
def http_server(sim_family):
    cfg = SimProviderConfig(src_version=pv("7.2.14"), latency=LatencyModel(0.0, 0.0), seed=3)
    server = start_server(produce(sim_family, cfg), credentials=("auditor", "sekrit"))
    yield server
    server.shutdown()
    server.server_close()


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
    server = ThreadingHTTPServer(("127.0.0.1", 0), _HeldAckHandler)
    server.answer = rt.expected_payload
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_address[1]}"
        chl = InterfaceEndpoint(id="c", kind="http-fetch", address=base + "/challenge")
        rsp = InterfaceEndpoint(id="r", kind="http-fetch", address=base + "/response")
        record = exchange(chl, rsp, rt.challenge_payload, rt.deadline)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert record.response_bytes == rt.expected_payload
    result = judge(record.response_bytes, rt.expected_payload, record.elapsed,
                   rt.deadline, record.transport_error)
    assert result.reason == "timeout"


def test_file_drop_with_never_materializing_response(tmp_path):
    chl = InterfaceEndpoint(id="c", kind="file-drop", address=str(tmp_path / "drop"),
                            timeout_cap=0.2)
    rsp = InterfaceEndpoint(id="r", kind="file-drop", address=str(tmp_path / "out"),
                            filename="response.txt", timeout_cap=0.2)
    record = exchange(chl, rsp, b"payload", 0.1)
    assert record.response_bytes is None
    assert (tmp_path / "drop" / "challenge.txt").read_bytes() == b"payload"


def test_file_drop_reads_response_file(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "response.txt").write_bytes(b"answer")
    chl = InterfaceEndpoint(id="c", kind="file-drop", address=str(tmp_path / "drop"))
    rsp = InterfaceEndpoint(id="r", kind="file-drop", address=str(out),
                            filename="response.txt")
    record = exchange(chl, rsp, b"payload", 0.5)
    assert record.response_bytes == b"answer"


def test_exchange_timestamps_monotone(honest_endpoints):
    chl, rsp = honest_endpoints("7.2.14")
    record = exchange(chl, rsp, b"<?php phpversion();", 0.5)
    assert record.sent_at <= record.received_at
    assert record.elapsed >= 0.0
