"""HTTP/1.1 message framing on a connected socket, for both ends.

The auditor's client (``transport``) and the simulator's server
(``simserver``) read messages with ``Wire``: one receive buffer per
connection and a parser that works on bytes.  It keeps ``http.client``'s
limits (65,536 bytes a line, 100 header lines) and raises its exception
types, so a failure reads as it always has.  Answer bodies are framed as
RFC 9112 section 6.3 says; of an answer's head the client keeps its
status, whether the connection stays open and its ``Content-Location``,
by which a PUT's answer says it is the response itself.  Each end writes
a message, head and body, in one ``sendall``, so no message waits on a
delayed ACK between two segments.
"""

from __future__ import annotations

import re
import socket
from http.client import (BadStatusLine, HTTPException, IncompleteRead, LineTooLong,
                         RemoteDisconnected, UnknownProtocol)

MAXLINE = 65536  # bytes in a status, request, header or chunk-size line, with its ending
MAXHEADERS = 100  # lines in a header block, counting the blank line that ends it
_RECV = 65536
_HEX = b"0123456789abcdefABCDEF"
_BLANK = re.compile(rb"\n\r?\n")  # a line's end, then the blank line that ends a block


class Wire:
    """A connected socket and the bytes received on it but not yet parsed."""

    __slots__ = ("sock", "buf", "pos", "nread")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = b""
        self.pos = 0  # buf[pos:] is unparsed
        self.nread = 0  # bytes received over the connection's life

    def pending(self) -> bool:
        """Whether bytes were received beyond the last message parsed."""
        return self.pos < len(self.buf)

    def _recv(self) -> bytes:
        data = self.sock.recv(_RECV)
        self.nread += len(data)
        return data

    def line(self, what: str) -> bytes:
        """The next line with its ending.  At the end of the stream, what
        is left of it (``b""`` if nothing)."""
        buf, pos = self.buf, self.pos
        end = buf.find(b"\n", pos)
        while end < 0:
            if len(buf) - pos > MAXLINE:
                raise LineTooLong(what)
            data = self._recv()
            if not data:
                self.buf, self.pos = b"", 0
                return buf[pos:]
            searched = len(buf) - pos
            buf = self.buf = buf[pos:] + data
            self.pos = pos = 0
            end = buf.find(b"\n", searched)
        if end - pos >= MAXLINE:
            raise LineTooLong(what)
        self.pos = end + 1
        return buf[pos:end + 1]

    def fields(self, what: str = "header line") -> dict[bytes, bytes]:
        """The header (or trailer) lines up to the blank line that ends
        them: lower-case name to value, the first of a repeated name
        winning.  A line without a colon is ignored.

        A block already received whole, and too short to reach a limit, is
        split at its blank line in one pass; any other is read line by line."""
        buf, pos = self.buf, self.pos
        if buf.startswith((b"\n", b"\r\n"), pos):
            self.pos = buf.index(b"\n", pos) + 1
            return {}
        blank = _BLANK.search(buf, pos)
        lines = buf[pos:blank.start()].split(b"\n") if blank and blank.start() - pos < MAXLINE else []
        if 0 < len(lines) < MAXHEADERS - 1:
            self.pos = blank.end()
        else:
            lines = []
            for _ in range(MAXHEADERS):
                line = self.line(what)
                if line in (b"\r\n", b"\n", b""):
                    break
                lines.append(line)
            else:
                raise HTTPException(f"got more than {MAXHEADERS} headers")
        fields: dict[bytes, bytes] = {}
        for line in lines:
            name, colon, value = line.partition(b":")
            if colon:
                fields.setdefault(name.lower(), value.strip())
        return fields

    def take(self, n: int) -> bytes:
        """Exactly the next ``n`` bytes."""
        start, have = self.pos, len(self.buf) - self.pos
        if have >= n:
            self.pos = start + n
            return self.buf[start:start + n]
        parts = [self.buf[start:]]
        while have < n:
            data = self._recv()
            if not data:
                raise IncompleteRead(b"".join(parts), n - have)
            parts.append(data)
            have += len(data)
        self.buf, self.pos = b"".join(parts), n
        return self.buf[:n]

    def rest(self) -> bytes:
        """Everything up to the end of the stream."""
        parts = [self.buf[self.pos:]]
        while data := self._recv():
            parts.append(data)
        self.buf, self.pos = b"", 0
        return b"".join(parts)

    def chunked(self) -> bytes:
        """A chunked body, decoded; its trailer lines are read and dropped."""
        parts = []
        while True:
            line = self.line("chunk size")
            size = line.partition(b";")[0].strip()
            if not size or size.strip(_HEX):
                if not line:
                    raise IncompleteRead(b"".join(parts))
                raise HTTPException(f"bad chunk size line {line!r}")
            size = int(size, 16)
            if not size:
                self.fields("trailer line")
                return b"".join(parts)
            parts.append(self.take(size))
            if self.take(2) != b"\r\n":
                raise HTTPException("chunk data not followed by CRLF")


def read_answer(wire: Wire) -> tuple[int, bytes, bool, bytes | None]:
    """The next final answer on ``wire`` to a GET or PUT: its status, its
    body, whether the server keeps the connection open, and its
    ``Content-Location`` (None without one), which says whose
    representation the body is.  Interim (1xx) answers are skipped."""
    while True:
        line = wire.line("status line")
        if not line:
            raise RemoteDisconnected("Remote end closed connection without response")
        parts = line.split(None, 2)
        try:
            version, status = parts[0], int(parts[1])
        except (IndexError, ValueError):
            raise BadStatusLine(str(line, "iso-8859-1")) from None
        if not version.startswith(b"HTTP/") or not 100 <= status <= 999:
            raise BadStatusLine(str(line, "iso-8859-1"))
        fields = wire.fields()
        if status >= 200:
            break
    connection = fields.get(b"connection", b"").lower()
    if version in (b"HTTP/1.0", b"HTTP/0.9"):
        keep = b"keep-alive" in connection
    elif version.startswith(b"HTTP/1."):
        keep = b"close" not in connection
    else:
        raise UnknownProtocol(str(version, "iso-8859-1"))
    coding = fields.get(b"transfer-encoding")
    length = fields.get(b"content-length")
    if status in (204, 304):
        body = b""
    elif coding is not None:
        # Chunked only if it is the last coding applied; else the body runs
        # to the end of the stream.
        if coding.rpartition(b",")[2].strip().lower() == b"chunked":
            body = wire.chunked()
        else:
            body, keep = wire.rest(), False
    elif length is not None:
        if not length.isdigit():
            raise HTTPException(f"invalid Content-Length {length!r}")
        body = wire.take(int(length))
    else:
        body, keep = wire.rest(), False
    return status, body, keep, fields.get(b"content-location")
