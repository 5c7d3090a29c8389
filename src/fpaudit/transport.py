"""Pluggable delivery channels for challenges and responses.

A challenge may travel over one channel and its response over another; the
two endpoints of an exchange are therefore passed separately.  All timing
is measured on the verifier side, up to the last response byte received,
from before the challenge PUT on HTTP and from the written file on file
drop.  Credentials come from configuration or the environment, never from
command lines.
"""

from __future__ import annotations

import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import requests

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
    kind: str  # http-fetch | file-drop | local-exec | loopback-sim
    address: str = ""
    credentials: tuple[str, str] | None = None
    timeout_cap: float = DEFAULT_TIMEOUT_CAP
    filename: str = "challenge.txt"
    responder: object | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ExchangeRecord:
    challenge_bytes: bytes
    response_bytes: bytes | None
    sent_at: float
    received_at: float
    elapsed: float
    transport_error: str | None = None


def make_loopback(responder: Responder, timeout_cap: float = DEFAULT_TIMEOUT_CAP):
    """Challenge/response endpoint pair bound to one in-process responder."""
    chl = InterfaceEndpoint(id="sim-chl", kind="loopback-sim", responder=responder, timeout_cap=timeout_cap)
    rsp = InterfaceEndpoint(id="sim-rsp", kind="loopback-sim", responder=responder, timeout_cap=timeout_cap)
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
        if challenge_ep.kind == "file-drop":
            return _exchange_filedrop(challenge_ep, response_ep, payload, deadline)
        if challenge_ep.kind == "local-exec":
            return _exchange_exec(challenge_ep, payload, deadline)
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


def _http_auth(ep: InterfaceEndpoint):
    return ep.credentials if ep.credentials else None


def _exchange_http(chl: InterfaceEndpoint, rsp: InterfaceEndpoint,
                   payload: bytes, deadline: float) -> ExchangeRecord:
    budget = deadline + chl.timeout_cap
    # The clock starts before the PUT: a provider that holds the delivery
    # acknowledgement while it forwards the challenge pays for the hold.
    sent = time.monotonic()
    try:
        put = requests.put(chl.address, data=payload, auth=_http_auth(chl), timeout=budget)
    except requests.RequestException as exc:
        raise TransportError(f"challenge delivery failed: {exc}") from exc
    if put.status_code in (401, 403):
        raise TransportError("auth")
    if put.status_code >= 400:
        raise TransportError(f"challenge delivery rejected: HTTP {put.status_code}")
    return _poll_http(rsp, payload, sent, budget)


def _poll_http(rsp: InterfaceEndpoint, payload: bytes, sent: float,
               budget: float) -> ExchangeRecord:
    """GET the response until ready (404 is not yet) or ``budget`` s after ``sent``."""
    while True:
        remaining = budget - (time.monotonic() - sent)
        if remaining <= 0:
            now = time.monotonic()
            return ExchangeRecord(payload, None, sent, now, now - sent)
        try:
            got = requests.get(rsp.address, auth=_http_auth(rsp), timeout=max(remaining, 0.05))
        except requests.RequestException as exc:
            raise TransportError(f"response fetch failed: {exc}") from exc
        if got.status_code in (401, 403):
            raise TransportError("auth")
        if got.status_code == 404:
            time.sleep(min(0.01, max(remaining, 0.0)))
            continue
        if got.status_code >= 400:
            raise TransportError(f"response fetch rejected: HTTP {got.status_code}")
        now = time.monotonic()
        return ExchangeRecord(payload, got.content, sent, now, now - sent)


def _exchange_filedrop(chl: InterfaceEndpoint, rsp: InterfaceEndpoint,
                       payload: bytes, deadline: float) -> ExchangeRecord:
    target = Path(chl.address) / chl.filename
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(payload)
    except OSError as exc:
        raise TransportError(f"file drop failed: {exc}") from exc
    sent = time.monotonic()

    if rsp.kind == "http-fetch":
        return _poll_http(rsp, payload, sent, deadline + chl.timeout_cap)
    if rsp.kind == "file-drop":
        source = Path(rsp.address) / rsp.filename
        budget = deadline + chl.timeout_cap
        while True:
            if source.exists():
                now = time.monotonic()
                return ExchangeRecord(payload, source.read_bytes(), sent, now, now - sent)
            if time.monotonic() - sent > budget:
                now = time.monotonic()
                return ExchangeRecord(payload, None, sent, now, now - sent)
            time.sleep(0.01)
    raise TransportError(f"unsupported response channel {rsp.kind!r} for file-drop")


def _exchange_exec(chl: InterfaceEndpoint, payload: bytes, deadline: float) -> ExchangeRecord:
    sent = time.monotonic()
    try:
        proc = subprocess.run(
            [chl.address], input=payload, capture_output=True,
            timeout=deadline + chl.timeout_cap,
        )
    except subprocess.TimeoutExpired:
        now = time.monotonic()
        return ExchangeRecord(payload, None, sent, now, now - sent)
    except OSError as exc:
        raise TransportError(f"exec failed: {exc}") from exc
    now = time.monotonic()
    return ExchangeRecord(payload, proc.stdout, sent, now, now - sent)


DEFAULT_CLAIM_PAYLOAD = b"<?php phpversion();"


def probe_version_claim(ep: InterfaceEndpoint, claim_payload: bytes = DEFAULT_CLAIM_PAYLOAD) -> str:
    """Ask the provider for its self-declared version string.

    This is the trivially spoofable baseline: the returned label is exactly
    what the provider chose to print, with no trust attached.
    """
    if ep.kind == "loopback-sim":
        if ep.responder is None:
            raise TransportError("loopback endpoint has no responder attached")
        body, _ = ep.responder.respond(claim_payload)
        return body.decode("utf-8", "replace").strip()
    if ep.kind == "http-fetch":
        try:
            got = requests.get(ep.address, auth=_http_auth(ep), timeout=ep.timeout_cap)
        except requests.RequestException as exc:
            raise TransportError(f"claim probe failed: {exc}") from exc
        if got.status_code >= 400:
            raise TransportError(f"claim probe rejected: HTTP {got.status_code}")
        return got.text.strip()
    if ep.kind == "local-exec":
        record = _exchange_exec(ep, claim_payload, ep.timeout_cap)
        if record.response_bytes is None:
            raise TransportError("claim probe timed out")
        return record.response_bytes.decode("utf-8", "replace").strip()
    raise TransportError(f"claim probe unsupported on {ep.kind!r}")
