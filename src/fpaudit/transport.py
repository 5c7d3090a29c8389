"""Delivery of challenges and collection of responses.

An exchange runs in process (``loopback-sim``, both endpoints bound to one
responder) or over HTTP (``http-fetch``: PUT the challenge to one URL, then
GET the response from another until it is ready).  Every PUT asks for the
answer on its own reply (``Prefer: return=representation``, RFC 7240); a
provider may give it there, as a 200 whose ``Content-Location`` names the
response URL on the challenge's own origin, and the exchange then makes
no GET.  Any other reply to the PUT is only an acknowledgement.  All
timing is measured on the verifier side, up to the last response byte
received.  Over HTTP the clock starts before the PUT, so holding its reply
counts against the provider.  Credentials come from configuration or the
environment, never from command lines.  HTTP requests from one thread to
one scheme and host:port share one kept-alive connection, so an exchange
pays no handshake in its timed window; what every request to an endpoint
shares (connection key, request target, header lines) is worked out once.
``http.client`` only opens that connection (proxy tunnel and TLS
included); each request then goes out in one write and its answer is
framed by ``http1``.  Bytes left over after an answer close the
connection, so they are never read as a later request's answer.
"""

from __future__ import annotations

import base64
import functools
import http.client
import os
import re
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol

from .http1 import Wire, read_answer

DEFAULT_TIMEOUT_CAP = 5.0  # seconds on top of the per-test deadline


class TransportError(RuntimeError):
    pass


class Responder(Protocol):
    """In-process provider used by loopback endpoints."""

    def respond(self, payload: bytes) -> tuple[bytes, float]:
        """Return (response bytes, simulated latency in seconds)."""
        ...


@dataclass(frozen=True)
class InterfaceEndpoint:
    id: str
    kind: str  # http-fetch | loopback-sim
    address: str = ""
    credentials: tuple[str, str] | None = None
    timeout_cap: float = DEFAULT_TIMEOUT_CAP
    responder: object | None = field(default=None, compare=False)


class ExchangeRecord(NamedTuple):
    challenge_bytes: bytes
    response_bytes: bytes | None
    sent_at: float
    received_at: float
    elapsed: float
    transport_error: str | None = None


def make_loopback(responder: Responder):
    """Challenge/response endpoint pair bound to one in-process responder."""
    chl = InterfaceEndpoint(id="sim-chl", kind="loopback-sim", responder=responder)
    rsp = InterfaceEndpoint(id="sim-rsp", kind="loopback-sim", responder=responder)
    return chl, rsp


def exchange(challenge_ep: InterfaceEndpoint, response_ep: InterfaceEndpoint,
             payload: bytes, deadline: float) -> ExchangeRecord:
    """Deliver a challenge and collect the response.

    Transport failures are folded into the record, never raised: the caller
    judges the outcome (a failed exchange judges false with its reason).
    """
    try:
        if challenge_ep.kind == "loopback-sim":
            return _exchange_loopback(challenge_ep, response_ep, payload, deadline)
        if challenge_ep.kind == "http-fetch":
            return _exchange_http(challenge_ep, response_ep, payload, deadline)
    except TransportError as exc:
        now = time.monotonic()
        return ExchangeRecord(payload, None, now, now, 0.0, transport_error=str(exc))
    raise ValueError(f"unknown endpoint kind {challenge_ep.kind!r}")


def _exchange_loopback(chl: InterfaceEndpoint, rsp: InterfaceEndpoint,
                       payload: bytes, deadline: float) -> ExchangeRecord:
    responder = chl.responder or rsp.responder
    if responder is None:
        raise TransportError("loopback endpoint has no responder attached")
    sent = time.monotonic()
    body, latency = responder.respond(payload)
    cutoff = deadline + chl.timeout_cap
    if latency > cutoff:
        # The verifier would have stopped waiting; the response is absent.
        return ExchangeRecord(payload, None, sent, sent + cutoff, cutoff, transport_error=None)
    return ExchangeRecord(payload, body, sent, sent + latency, latency)


def env_credentials() -> tuple[str, str] | None:
    """Basic-auth credentials from FPAUDIT_HTTP_USER / FPAUDIT_HTTP_PASS, if both are set."""
    user = os.environ.get("FPAUDIT_HTTP_USER")
    password = os.environ.get("FPAUDIT_HTTP_PASS")
    return (user, password) if user and password is not None else None


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")


def _request(method: str, ep: InterfaceEndpoint, body: bytes | None,
             timeout: float) -> tuple[int, bytes, bytes | None]:
    """One HTTP(S) request with preemptive Basic auth: its answer's status,
    body and ``Content-Location``.  A PUT asks for the answer on its reply
    (``Prefer: return=representation``).  A 404 on GET (not ready yet) is
    returned.  Every other status from 300 up is a TransportError, since no
    redirect is followed and credentials never leave the named host; so is
    every failure.  Either closes the connection, so a late answer is never
    read as a later request's.  Since a PUT's reply may be the answer, a
    time-out awaiting it is a failed fetch; every other PUT failure is a
    failed delivery."""
    what = "challenge delivery" if method == "PUT" else "response fetch"
    try:
        key, target, fields = _prepare(ep.address, ep.credentials)
        if method == "PUT":
            fields += "Prefer: return=representation\r\n"
        status, data, location = _send(key, method, target, body, fields, timeout)
    except _AnswerTimeout as exc:
        raise TransportError(f"response fetch failed: {exc}") from exc
    # Timeouts and refusals are OSErrors; a malformed address is a ValueError
    # or, for its port, an http.client.InvalidURL; a malformed answer is an
    # http.client.HTTPException.
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise TransportError(f"{what} failed: {exc}") from exc
    if status >= 300 and not (method == "GET" and status == 404):
        _close(key)
        raise TransportError("auth" if status in (401, 403) else f"{what} rejected: HTTP {status}")
    return status, data, location


class _AnswerTimeout(TimeoutError):
    """A request went out whole, but its answer did not arrive in time."""


@functools.lru_cache(maxsize=128)
def _prepare(address: str, credentials: tuple[str, str] | None) -> tuple[tuple[str, str], str, str]:
    """What every request to an endpoint shares, worked out once per address
    and credentials: the connection key (scheme and host:port), the request
    target and the header lines that follow ``Host``.  A malformed address
    raises each time it is asked for."""
    if not address.startswith(("http://", "https://")):
        raise ValueError(f"{address!r} is not an http(s) URL")
    key, target = _split(address)
    if _UNSAFE(target) or _UNSAFE(key[1]):
        raise http.client.InvalidURL(f"{address!r} has a character a request line "
                                     "cannot carry")
    fields = "Content-Type: application/octet-stream\r\nAccept-Encoding: identity\r\n"
    if credentials:
        fields += f"Authorization: {_basic_auth(*credentials)}\r\n"
    return key, target, fields


def _split(url: str) -> tuple[tuple[str, str], str]:
    """An absolute URL's connection key (scheme and host:port) and request target."""
    parts = urllib.parse.urlsplit(url)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    return (parts.scheme, parts.netloc), target


# Cached: a urljoin costs about a third of an exchange with a local simulator.
@functools.lru_cache(maxsize=128)
def _resolve(base: str, reference: bytes) -> tuple[tuple[str, str], str] | None:
    """The connection key and request target that a URI reference sent in
    an answer (say its ``Content-Location``) names, resolved against the
    URL asked; None if it names none."""
    try:
        return _split(urllib.parse.urljoin(base, reference.decode("latin-1")))
    except ValueError:  # say, an unclosed IPv6 bracket
        return None


# Anything but visible ASCII in a request target or host would break the request line.
_UNSAFE = re.compile(r"[^\x21-\x7e]").search


class _Link(NamedTuple):
    """A kept-alive connection, with the target prefix and header lines its
    route adds (see ``_open``)."""

    wire: Wire
    prefix: str
    route: str


class _Pool(threading.local):
    """This thread's kept-alive connections, keyed by scheme and host:port."""

    def __init__(self) -> None:
        self.links: dict[tuple[str, str], _Link] = {}


_POOL = _Pool()


def _send(key: tuple[str, str], method: str, target: str, body: bytes | None,
          fields: str, timeout: float) -> tuple[int, bytes, bytes | None]:
    """Send one request, head and body in one write, on this thread's
    connection for ``key`` and read the whole answer.  A failure closes the
    connection; so does an answer after which the server closes it, or
    after which bytes are left over (sent beyond the answer's length, or
    unasked for), so they are never read as a later request's answer.  A
    reused connection that fails before any answer byte arrives (the server
    closed it while idle) is reopened once; a new connection is not
    retried.  A time-out after the request went out whole is an
    ``_AnswerTimeout``."""
    while True:
        link = _POOL.links.get(key)
        reused = link is not None
        if reused:
            link.wire.sock.settimeout(timeout)
        else:
            link = _POOL.links[key] = _open(*key, timeout)
        wire = link.wire
        head = f"{method} {link.prefix}{target} HTTP/1.1\r\nHost: {key[1]}\r\n{fields}{link.route}"
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        received, sent = wire.nread, False
        try:
            wire.sock.sendall((head + "\r\n").encode("latin-1") + (body or b""))
            sent = True
            status, data, keep, location = read_answer(wire)
        except BaseException as exc:
            _close(key)
            if sent and isinstance(exc, TimeoutError):
                raise _AnswerTimeout(*exc.args) from exc
            if not (reused and wire.nread == received and isinstance(exc, ConnectionError)):
                raise
            continue
        if not keep or wire.pending():
            _close(key)
        return status, data, location


def _open(scheme: str, hostport: str, timeout: float) -> _Link:
    """A new connection to ``hostport``, through the proxy the environment
    names for ``scheme`` unless ``no_proxy`` exempts the host.
    ``http.client`` only connects it: it opens the socket with
    ``TCP_NODELAY``, asks a proxy for a ``CONNECT`` tunnel and wraps TLS."""
    cls = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
    proxy = urllib.request.getproxies().get(scheme)
    prefix = route = ""
    if not proxy or urllib.request.proxy_bypass(hostport):
        conn = cls(hostport, timeout=timeout)
    else:
        parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        auth = {}
        if parts.username is not None:
            auth["Proxy-Authorization"] = _basic_auth(urllib.parse.unquote(parts.username),
                                                      urllib.parse.unquote(parts.password or ""))
        conn = cls(parts.netloc.rpartition("@")[2], timeout=timeout)
        if scheme == "https":
            # A CONNECT tunnel: the proxy never sees the requests inside it.
            conn.set_tunnel(hostport, headers=auth)
        else:
            # A forwarding proxy takes each request with the absolute URL
            # as its target.
            prefix = f"http://{hostport}"
            route = "".join(f"{name}: {value}\r\n" for name, value in auth.items())
    try:
        conn.connect()
    except BaseException:
        conn.close()  # a socket it opened before the tunnel or TLS failed
        raise
    return _Link(Wire(conn.sock), prefix, route)


def _close(key: tuple[str, str]) -> None:
    link = _POOL.links.pop(key, None)
    if link is not None:
        link.wire.sock.close()


def close_connections() -> None:
    """Close this thread's kept-alive connections."""
    for key in list(_POOL.links):
        _close(key)


def _exchange_http(chl: InterfaceEndpoint, rsp: InterfaceEndpoint,
                   payload: bytes, deadline: float) -> ExchangeRecord:
    """PUT the challenge, asking for the answer on the reply.  If the reply
    is the answer (``_is_the_response``), the exchange ends with it; else
    GET the response every 10 ms until it is not a 404 (not ready yet) or
    ``deadline`` + the cap has passed.  The clock starts before the PUT: a
    provider that holds its reply while it forwards the challenge pays for
    the hold."""
    if rsp.kind != "http-fetch":
        raise TransportError(f"unsupported response channel {rsp.kind!r} for {chl.kind}")
    budget = deadline + chl.timeout_cap
    sent = time.monotonic()
    status, body, location = _request("PUT", chl, payload, budget)
    if status != 200 or location is None or not _is_the_response(chl, rsp, location):
        body = None
        while (remaining := budget - (time.monotonic() - sent)) > 0:
            status, data, _ = _request("GET", rsp, None, max(remaining, 0.05))
            if status != 404:
                body = data
                break
            time.sleep(min(0.01, remaining))
    now = time.monotonic()
    return ExchangeRecord(payload, body, sent, now, now - sent)


def _is_the_response(chl: InterfaceEndpoint, rsp: InterfaceEndpoint, location: bytes) -> bool:
    """Whether a challenge PUT's answer is the response, as its
    ``Content-Location``, resolved against the challenge URL, names the
    response URL (scheme, host:port and request target) and the response
    URL shares the challenge's connection key: one origin does not answer
    for another.  A malformed response address names nothing here; its
    GET then fails as it always has."""
    try:
        key, target, _ = _prepare(rsp.address, rsp.credentials)
    except (ValueError, http.client.HTTPException):
        return False
    return (key == _prepare(chl.address, chl.credentials)[0]
            and _resolve(chl.address, location) == (key, target))


CLAIM_PAYLOAD = b"<?php phpversion();"


def probe_version_claim(endpoints: tuple[InterfaceEndpoint, InterfaceEndpoint]) -> str:
    """Ask the provider for its self-declared version string, as one more
    challenge over the audit's own endpoints that waits only ``timeout_cap``.

    This is the trivially spoofable baseline: the returned label is exactly
    what the provider chose to print, with no trust attached.
    """
    record = exchange(*endpoints, CLAIM_PAYLOAD, 0.0)
    if record.transport_error is not None:
        raise TransportError(record.transport_error)
    if record.response_bytes is None:
        raise TransportError(f"no answer within {record.elapsed:.2f} s")
    return record.response_bytes.decode("utf-8", "replace").strip()
