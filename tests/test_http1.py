"""The answer framing in ``fpaudit.http1`` against ``http.client``'s, on
generated answers served over a real socket in randomly cut writes."""

import http.client
import io
import socket
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from fpaudit.http1 import Wire, read_answer

TOKEN = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=8)
VALUE = st.text("abcdefghijklmnopqrstuvwxyz0123456789 =/", max_size=12).map(str.strip)
FIELDS = st.lists(st.tuples(TOKEN.map(lambda name: "x-" + name), VALUE), max_size=4)


def _head(start: str, fields) -> bytes:
    return "".join(f"{line}\r\n" for line in [start, *(f"{n}: {v}" for n, v in fields), ""]).encode()


@st.composite
def answers(draw) -> bytes:
    """One HTTP answer as a server would write it, in one of the framings
    RFC 9112 section 6.3 allows, maybe after a ``100 Continue``."""
    framing = draw(st.sampled_from(["length", "chunked", "until-close", "no-content"]))
    status = 204 if framing == "no-content" else draw(st.sampled_from([200, 201, 404, 500]))
    body = b"" if framing == "no-content" else draw(st.binary(max_size=300))
    fields = draw(FIELDS)
    version = "HTTP/1.0" if framing == "until-close" else "HTTP/1.1"
    message = _head("HTTP/1.1 100 Continue", []) if draw(st.booleans()) else b""
    if framing == "length":
        fields.append(("Content-Length", str(len(body))))
    elif framing == "chunked":
        fields.append(("Transfer-Encoding", "chunked"))
    message += _head(f"{version} {status} Whatever", fields)
    if framing != "chunked":
        return message + body
    cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=5)))
    for start, end in zip([0, *cuts], [*cuts, len(body)]):
        if end > start:
            extension = draw(st.sampled_from(["", ";x=1", ";name", ' ; q="a;b"']))
            message += f"{end - start:x}{extension}\r\n".encode() + body[start:end] + b"\r\n"
    trailers = draw(FIELDS)
    return message + b"0\r\n" + _head("", trailers)[2:]


class _Replay:
    """A socket stand-in that ``http.client.HTTPResponse`` reads ``data`` from."""

    def __init__(self, data: bytes) -> None:
        self.data = data

    def makefile(self, mode):
        return io.BytesIO(self.data)


def reference(message: bytes) -> tuple[int, bytes]:
    response = http.client.HTTPResponse(_Replay(message), method="GET")
    response.begin()
    return response.status, response.read()


def _serve_in_pieces(sock: socket.socket, message: bytes, cuts: list[int]) -> None:
    with sock:
        for start, end in zip([0, *cuts], [*cuts, len(message)]):
            sock.sendall(message[start:end])
            time.sleep(0.0002)  # lets the reader take what has come so far


@settings(max_examples=150, deadline=None)
@given(message=answers(), data=st.data())
def test_the_framing_reads_what_http_client_reads(message, data):
    cuts = sorted(set(data.draw(st.lists(st.integers(1, max(len(message) - 1, 1)), max_size=6))))
    reader, writer = socket.socketpair()
    server = threading.Thread(target=_serve_in_pieces, args=(writer, message, cuts))
    server.start()
    try:
        with reader:
            reader.settimeout(5)
            wire = Wire(reader)
            status, body, _ = read_answer(wire)
            assert not wire.pending()
    finally:
        server.join(timeout=5)
    assert not server.is_alive()
    assert (status, body) == reference(message)
