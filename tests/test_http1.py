"""The answer framing in ``fpaudit.http1`` against ``http.client``'s, on
generated answers served over a real socket whole or in randomly cut
writes; and a head split in one pass against the same head read line by
line."""

import http.client
import io
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpaudit.http1 import MAXHEADERS, MAXLINE, Wire, read_answer

TOKEN = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=8)
VALUE = st.text("abcdefghijklmnopqrstuvwxyz0123456789 =/", max_size=12).map(str.strip)
FIELDS = st.lists(st.tuples(TOKEN.map(lambda name: "x-" + name), VALUE), max_size=4)
ENDING = st.sampled_from(["\r\n", "\n"])


@st.composite
def cased(draw, name: str) -> str:
    """``name`` with each letter in either case."""
    return "".join(c.upper() if draw(st.booleans()) else c for c in name)


@st.composite
def heads(draw, start: str, fields) -> bytes:
    """A start line, ``fields`` and the blank line, each line ended by CRLF
    or a bare LF, each name in mixed case, maybe some name repeated."""
    fields = [(draw(cased(name)), value) for name, value in fields]
    if fields and draw(st.booleans()):
        name, _ = draw(st.sampled_from(fields))
        fields.append((draw(cased(name)), "repeated"))  # ignored: the first one wins
    lines = [start, *(f"{name}: {value}" for name, value in fields), ""]
    return "".join(line + draw(ENDING) for line in lines).encode()


@st.composite
def answers(draw) -> bytes:
    """One HTTP answer as a server would write it, in one of the framings
    RFC 9112 section 6.3 allows, maybe after a ``100 Continue``."""
    framing = draw(st.sampled_from(["length", "chunked", "until-close", "no-content"]))
    status = 204 if framing == "no-content" else draw(st.sampled_from([200, 201, 404, 500]))
    body = b"" if framing == "no-content" else draw(st.binary(max_size=300))
    fields = draw(FIELDS)
    version = "HTTP/1.0" if framing == "until-close" else "HTTP/1.1"
    message = draw(heads("HTTP/1.1 100 Continue", [])) if draw(st.booleans()) else b""
    if framing == "length":
        fields.insert(draw(st.integers(0, len(fields))), ("Content-Length", str(len(body))))
    elif framing == "chunked":
        fields.insert(draw(st.integers(0, len(fields))), ("Transfer-Encoding", "chunked"))
    message += draw(heads(f"{version} {status} Whatever", fields))
    if framing != "chunked":
        return message + body
    cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=5)))
    for start, end in zip([0, *cuts], [*cuts, len(body)]):
        if end > start:
            extension = draw(st.sampled_from(["", ";x=1", ";name", ' ; q="a;b"']))
            message += f"{end - start:x}{extension}{draw(ENDING)}".encode() + body[start:end] + b"\r\n"
    return message + b"0" + draw(heads("", draw(FIELDS)))


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
    # An answer written whole is parsed with its head already buffered.
    whole = data.draw(st.booleans())
    cuts = [] if whole else sorted(set(data.draw(
        st.lists(st.integers(1, max(len(message) - 1, 1)), min_size=1, max_size=6))))
    reader, writer = socket.socketpair()
    server = threading.Thread(target=_serve_in_pieces, args=(writer, message, cuts))
    server.start()
    try:
        with reader:
            reader.settimeout(5)
            wire = Wire(reader)
            status, body, _, _ = read_answer(wire)
            assert not wire.pending()
    finally:
        server.join(timeout=5)
    assert not server.is_alive()
    assert (status, body) == reference(message)


class _Pieces:
    """A socket stand-in whose ``recv`` returns ``pieces`` one at a time."""

    def __init__(self, pieces: list[bytes]) -> None:
        self.pieces = [piece for piece in pieces if piece]  # b"" would read as the end

    def recv(self, _size: int) -> bytes:
        return self.pieces.pop(0) if self.pieces else b""


def _fields_read(pieces: list[bytes]):
    """What ``Wire.fields`` makes of the head after a status line, and what
    is left after it; or the exception it raises, as type and message."""
    wire = Wire(_Pieces(pieces))
    wire.line("status line")
    try:
        return wire.fields(), wire.rest()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _agree(head: bytes, cut: int, tail: bytes = b"body"):
    """Received whole, the head after the status line is split in one pass;
    received after it in two pieces, it is read line by line."""
    status = b"HTTP/1.1 200 OK\r\n"
    whole = _fields_read([status + head + tail])
    assert whole == _fields_read([status, head[:cut], head[cut:] + tail])
    return whole


# Any line but a blank one, which would end the head early.
LINE = st.binary(max_size=30).map(lambda line: line.replace(b"\n", b"")).filter(
    lambda line: line not in (b"", b"\r"))


@given(names=st.lists(st.sampled_from(["Host", "X-A", "x-a", "Content-Length"]), max_size=6),
       tail=st.binary(max_size=12) | st.sampled_from([b"\n\n", b"x: 1\r\n\r\n"]), data=st.data())
def test_a_buffered_head_is_split_as_it_is_read_line_by_line(names, tail, data):
    # Lower-case names, the first of a repeated name winning, values
    # stripped, lines without a colon ignored, CRLF or bare LF endings; and
    # what follows the head, whatever it holds, is left unread.
    lines = [data.draw(st.one_of(LINE, st.builds(lambda n, v: n.encode() + b":" + v,
                                                 cased(name), LINE)))
             for name in names]
    head = b"".join(line + data.draw(ENDING).encode() for line in [*lines, b""])
    result = _agree(head, data.draw(st.integers(0, len(head))), tail)
    assert isinstance(result[0], dict) and result[1] == tail


@pytest.mark.parametrize("count", [MAXHEADERS - 2, MAXHEADERS - 1, MAXHEADERS])
def test_a_head_near_the_line_count_limit_is_read_as_line_by_line(count):
    result = _agree(b"X-Many: 1\r\n" * count + b"\r\n", 5)
    assert (result[0] is http.client.HTTPException) == (count >= MAXHEADERS)


@pytest.mark.parametrize("length", [MAXLINE - 1, MAXLINE, MAXLINE + 1])
def test_a_head_near_the_line_length_limit_is_read_as_line_by_line(length):
    line = b"X-Long: " + b"x" * (length - 10) + b"\r\n"
    assert len(line) == length
    result = _agree(b"X-A: 1\r\n" + line + b"\r\n", 5)
    assert (result[0] is http.client.LineTooLong) == (length > MAXLINE)
