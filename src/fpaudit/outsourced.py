"""Outsourced audit: user, auditor and provider with chained signed logs.

The auditor owns the database and strategy; the user owns the randomness
and the channel to the provider; the provider answers challenges.  Each
round produces four signatures chaining the round's values together:

    S1 = Sig_auditor(c, t1)          over the challenge template
    S2 = Sig_user(phi, t2, S1)       over the drawn randomness
    S3 = Sig_provider(e', t3, S2)    over the response
    S4 = Sig_user(t4)                closing timestamp (chained by position)

Signed byte layout (bit-exact, also used by ``verify_liability``): an ASCII
context tag (``S1``..``S4``) followed by each field as a 4-byte big-endian
length prefix plus the field bytes, in the order listed above.  Timestamps
are RFC-3339 strings; ``phi`` is the canonical JSON of the drawn variables
(sorted keys, values in their template byte form).

Per-party log entries (newline-delimited JSON, signatures base64):

    provider: round, cPrime, ePrime, t3, S2, S3
    user:     round, version, c, phi, ePrime, t1..t4, S1..S4
    auditor:  round, version, c, phi, ePrime, t1..t4, S1..S4, delta

t1/S1 appear in the user log (and ``delta`` in the auditor log) so each log
chain-verifies on its own; liability still rests on the canonical tuples.
"""

from __future__ import annotations

import base64
import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .challenge import Binding, RandomnessSource, draw_binding, render, tags_for
from .database import Database
from .strategies import DecisionLog, drive_audit
from .transport import ExchangeRecord
from .versions import Version, parse_version, render_version

ROLES = ("user", "auditor", "provider")
DEFAULT_SKEW = 2.0  # seconds tolerated between different parties' clocks


class OutsourcedAuditError(RuntimeError):
    pass


class RoundError(OutsourcedAuditError):
    """A live round failed; ``blamed`` names the responsible party."""

    def __init__(self, blamed: str, reason: str):
        super().__init__(f"{blamed}: {reason}")
        self.blamed = blamed
        self.reason = reason


def _lp(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def _layout(tag: bytes, *fields: bytes) -> bytes:
    return tag + b"".join(_lp(f) for f in fields)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def _iso(ts: float) -> str:
    return datetime.fromtimestamp(ts, timezone.utc).isoformat(timespec="microseconds")


def _epoch(iso: str) -> float:
    return datetime.fromisoformat(iso).timestamp()


def phi_bytes(binding: Binding) -> bytes:
    return json.dumps(binding.canonical(), sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass
class PartyIdentity:
    role: str
    signing_key: Ed25519PrivateKey | None
    verify_key: Ed25519PublicKey

    @classmethod
    def generate(cls, role: str) -> "PartyIdentity":
        if role not in ROLES:
            raise OutsourcedAuditError(f"unknown role {role!r}")
        key = Ed25519PrivateKey.generate()
        return cls(role=role, signing_key=key, verify_key=key.public_key())

    def sign(self, data: bytes) -> bytes:
        if self.signing_key is None:
            raise OutsourcedAuditError(f"{self.role} has no signing key")
        return self.signing_key.sign(data)

    def verify(self, signature: bytes, data: bytes) -> bool:
        try:
            self.verify_key.verify(signature, data)
            return True
        except InvalidSignature:
            return False

    def public_hex(self) -> str:
        from cryptography.hazmat.primitives import serialization

        return self.verify_key.public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        ).hex()


def verify_key_from_hex(hex_str: str) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(bytes.fromhex(hex_str))


def s1_bytes(c: bytes, t1: str) -> bytes:
    return _layout(b"S1", c, t1.encode())


def s2_bytes(phi: bytes, t2: str, s1: bytes) -> bytes:
    return _layout(b"S2", phi, t2.encode(), s1)


def s3_bytes(e_prime: bytes, t3: str, s2: bytes) -> bytes:
    return _layout(b"S3", e_prime, t3.encode(), s2)


def s4_bytes(t4: str) -> bytes:
    return _layout(b"S4", t4.encode())


# ---------------------------------------------------------------------------
# Parties


@dataclass
class UserParty:
    identity: PartyIdentity
    rng: RandomnessSource
    log: list[dict] = field(default_factory=list)

    def draw_randomness(self, db: Database, version: Version) -> Binding:
        """Private draw; the auditor has no way to supply this value."""
        return draw_binding(db.entries[version], self.rng, db.family)


@dataclass
class ProviderParty:
    identity: PartyIdentity
    responder: object
    log: list[dict] = field(default_factory=list)

    def process(self, round_no: int, c_prime: bytes, s2: bytes) -> tuple[bytes, str, bytes, float]:
        body, latency = self.responder.respond(c_prime)
        t3 = _now()
        s3 = self.identity.sign(s3_bytes(body, t3, s2))
        self.log.append({
            "round": round_no,
            "cPrime": _b64(c_prime),
            "ePrime": _b64(body),
            "t3": t3,
            "S2": _b64(s2),
            "S3": _b64(s3),
        })
        return body, t3, s3, latency


@dataclass
class AuditorParty:
    identity: PartyIdentity
    db: Database
    repeat_threshold: int = 2
    log: list[dict] = field(default_factory=list)
    _phi_seen: Counter = field(default_factory=Counter)


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(s: str) -> bytes:
    return base64.b64decode(s.encode("ascii"))


@dataclass(frozen=True)
class RoundResult:
    round_no: int
    version: Version
    delta: bool
    reason: str | None
    elapsed: float
    e_prime: bytes
    expected: bytes


def run_round(
    auditor: AuditorParty,
    user: UserParty,
    provider: ProviderParty,
    version: Version,
    round_no: int,
) -> RoundResult:
    """One signed challenge-response round for a single intrinsic test."""
    db = auditor.db
    entry = db.entries[version]
    if not entry.has_payload:
        raise OutsourcedAuditError(f"version {render_version(version)} has no intrinsic test")

    # Auditor -> user: challenge template, signed.
    c = entry.challenge_template
    t1 = _now()
    s1 = auditor.identity.sign(s1_bytes(c, t1))

    # User: verify the auditor's signature, draw randomness, render, forward.
    if not auditor.identity.verify(s1, s1_bytes(c, t1)):
        raise RoundError("auditor", "challenge signature failed verification")
    binding = user.draw_randomness(db, version)
    phi = phi_bytes(binding)
    sent = time.time()
    t2 = _iso(sent)
    s2 = user.identity.sign(s2_bytes(phi, t2, s1))
    c_prime = render(c, binding, tags_for(db, entry, "challenge"))

    e_prime, t3, s3, latency = provider.process(round_no, c_prime, s2)

    # User: verify the provider's signature, close the round.
    if not provider.identity.verify(s3, s3_bytes(e_prime, t3, s2)):
        raise RoundError("provider", "response signature failed verification")
    t4 = _iso(sent + latency)
    s4 = user.identity.sign(s4_bytes(t4))
    user.log.append({
        "round": round_no,
        "version": render_version(version),
        "c": _b64(c),
        "phi": binding.canonical(),
        "ePrime": _b64(e_prime),
        "t1": t1, "t2": t2, "t3": t3, "t4": t4,
        "S1": _b64(s1), "S2": _b64(s2), "S3": _b64(s3), "S4": _b64(s4),
    })

    # Auditor: verify the whole chain, judge, log, watch the randomness.
    if not user.identity.verify(s2, s2_bytes(phi, t2, s1)):
        raise RoundError("user", "randomness signature failed verification")
    if not provider.identity.verify(s3, s3_bytes(e_prime, t3, s2)):
        raise RoundError("provider", "response signature failed verification")
    if not user.identity.verify(s4, s4_bytes(t4)):
        raise RoundError("user", "closing signature failed verification")
    if _epoch(t2) < _epoch(t1) - DEFAULT_SKEW or _epoch(t4) < _epoch(t2):
        raise RoundError("user", "timestamp regression")

    auditor._phi_seen[phi] += 1
    if auditor._phi_seen[phi] >= auditor.repeat_threshold:
        raise RoundError("user", f"randomness value repeated {auditor._phi_seen[phi]} times")

    expected = render(entry.expect_template, binding, tags_for(db, entry, "expect"))
    elapsed = _epoch(t4) - _epoch(t2)
    delta = e_prime == expected and elapsed <= entry.wait_time
    reason = None if delta else ("mismatch" if elapsed <= entry.wait_time else "timeout")
    auditor.log.append({
        "round": round_no,
        "version": render_version(version),
        "c": _b64(c),
        "phi": binding.canonical(),
        "ePrime": _b64(e_prime),
        "t1": t1, "t2": t2, "t3": t3, "t4": t4,
        "S1": _b64(s1), "S2": _b64(s2), "S3": _b64(s3), "S4": _b64(s4),
        "delta": delta,
    })
    return RoundResult(round_no, version, delta, reason, elapsed, e_prime, expected)


@dataclass
class OutsourcedSession:
    """A full outsourced audit: the auditor's strategy drives the rounds."""

    db: Database
    strategy_name: str
    user: UserParty
    provider: ProviderParty
    auditor: AuditorParty
    budget: int | None = None

    def run(self) -> DecisionLog:
        """Run the shared audit loop, each new sub-test one signed round."""
        rounds = itertools.count(1)

        def probe(version: Version):
            result = run_round(self.auditor, self.user, self.provider, version, next(rounds))
            record = ExchangeRecord(b"", result.e_prime, 0.0, result.elapsed, result.elapsed)
            return result.delta, result.reason, record

        return drive_audit(self.db, self.strategy_name, probe, self.budget)


# ---------------------------------------------------------------------------
# Log files


def write_log(path: str | Path, entries: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def read_log(path: str | Path) -> list[dict]:
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def write_keys(path: str | Path, identities: dict[str, PartyIdentity]) -> None:
    doc = {role: ident.public_hex() for role, ident in identities.items()}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")


def read_keys(path: str | Path) -> dict[str, Ed25519PublicKey]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return {role: verify_key_from_hex(hexstr) for role, hexstr in doc.items()}


# ---------------------------------------------------------------------------
# Liability verification


@dataclass
class PartyVerdict:
    status: str = "compliant"  # or "blamed"
    reason: str | None = None

    def blame(self, reason: str) -> None:
        if self.status == "compliant":
            self.status = "blamed"
            self.reason = reason


def verify_liability(
    logs: dict[str, list[dict]],
    keys: dict[str, Ed25519PublicKey],
    db: Database,
    skew: float = DEFAULT_SKEW,
) -> dict[str, PartyVerdict]:
    """Replay the signed logs and assign blame for any contradiction.

    Signature checks are cross-referenced: a signature that fails in one
    log copy but verifies in another blames the holder of the bad copy; a
    signature failing in every copy blames its signer.  The expected
    response is recomputed from the signed challenge template and
    randomness, and compared against the auditor's recorded decision.
    """
    verdicts = {role: PartyVerdict() for role in ROLES}

    def check(role: str, sig: bytes, data: bytes) -> bool:
        key = keys.get(role)
        if key is None:
            return False
        try:
            key.verify(sig, data)
            return True
        except InvalidSignature:
            return False

    for role, entries in logs.items():
        rounds = [e.get("round") for e in entries]
        if any(b <= a for a, b in zip(rounds, rounds[1:])):
            verdicts[role].blame("round counters are not strictly increasing")

    by_round: dict[int, dict[str, dict]] = {}
    for role, entries in logs.items():
        for entry in entries:
            by_round.setdefault(entry.get("round"), {})[role] = entry

    supplied = set(logs)
    for round_no in sorted(k for k in by_round if k is not None):
        copies = by_round[round_no]
        for role in supplied - set(copies):
            verdicts[role].blame(f"round {round_no} missing from log")

        sig_results: dict[str, dict[str, bool]] = {}
        for role, entry in copies.items():
            sig_results[role] = _verify_entry_signatures(entry, check)
        for sig_name in ("S1", "S2", "S3", "S4"):
            outcomes = {role: res[sig_name] for role, res in sig_results.items() if sig_name in res}
            if not outcomes or all(outcomes.values()):
                continue
            if any(outcomes.values()):
                for role, ok in outcomes.items():
                    if not ok:
                        verdicts[role].blame(f"round {round_no}: {sig_name} fails in this log copy")
            else:
                signer = {"S1": "auditor", "S2": "user", "S3": "provider", "S4": "user"}[sig_name]
                for role in outcomes:
                    if role == signer:
                        verdicts[signer].blame(f"round {round_no}: {sig_name} invalid everywhere")
                        break
                else:
                    verdicts[signer].blame(f"round {round_no}: {sig_name} invalid everywhere")

        # Replay only against a copy whose signatures all verified; corrupted
        # copies were blamed above and must not poison the reference data.
        clean_roles = [role for role, res in sig_results.items() if res and all(res.values())]
        reference = None
        for role in ("auditor", "user"):
            if role in clean_roles and role in copies:
                reference = copies[role]
                break
        if reference is None:
            continue
        try:
            c = _unb64(reference["c"])
            phi = json.dumps(reference["phi"], sort_keys=True, separators=(",", ":")).encode()
            e_prime = _unb64(reference["ePrime"])
            version = parse_version(reference["version"])
        except (KeyError, ValueError):
            verdicts["auditor" if reference is copies.get("auditor") else "user"].blame(
                f"round {round_no}: malformed entry")
            continue

        entry = db.entries.get(version)
        if entry is None or entry.challenge_template is None:
            verdicts["auditor"].blame(f"round {round_no}: challenge for unknown version "
                                      f"{reference['version']}")
            continue
        if c != entry.challenge_template:
            verdicts["auditor"].blame(
                f"round {round_no}: challenge does not match the database entry")
            continue

        binding = Binding(dict(reference["phi"]))
        expected_c_prime = render(c, binding, tags_for(db, entry, "challenge"))
        provider_copy = copies.get("provider")
        if provider_copy is not None:
            if _unb64(provider_copy.get("cPrime", "")) != expected_c_prime:
                verdicts["provider"].blame(
                    f"round {round_no}: logged challenge does not derive from the signed randomness")
            if _unb64(provider_copy.get("ePrime", "")) != e_prime and sig_results.get(
                    "provider", {}).get("S3", True):
                verdicts["provider"].blame(f"round {round_no}: response differs across logs")

        if all(sig_results.get(r, {}).get(name, True)
               for r in copies for name in ("S1", "S2", "S3", "S4")):
            t_vals = {}
            try:
                for key_name in ("t1", "t2", "t3", "t4"):
                    t_vals[key_name] = _epoch(reference[key_name])
            except (KeyError, ValueError):
                t_vals = {}
            if t_vals:
                if t_vals["t2"] < t_vals["t1"] - skew:
                    verdicts["user"].blame(f"round {round_no}: t2 precedes t1")
                if t_vals["t3"] < t_vals["t2"] - skew:
                    verdicts["provider"].blame(f"round {round_no}: t3 precedes t2")
                if t_vals["t4"] < t_vals["t3"] - skew or t_vals["t4"] < t_vals["t2"]:
                    verdicts["user"].blame(f"round {round_no}: t4 precedes earlier timestamps")

            auditor_copy = copies.get("auditor")
            if auditor_copy is not None and "delta" in auditor_copy and t_vals:
                expected = render(entry.expect_template, binding, tags_for(db, entry, "expect"))
                elapsed = t_vals["t4"] - t_vals["t2"]
                replayed = e_prime == expected and elapsed <= entry.wait_time
                if bool(auditor_copy["delta"]) != replayed:
                    verdicts["auditor"].blame(
                        f"round {round_no}: recorded decision contradicts the replayed "
                        "expected response")
    return verdicts


def _verify_entry_signatures(entry: dict, check) -> dict[str, bool]:
    """Verify whichever signatures this entry carries enough fields for."""
    results: dict[str, bool] = {}
    try:
        if {"c", "t1", "S1"} <= entry.keys():
            c = _unb64(entry["c"])
            s1 = _unb64(entry["S1"])
            results["S1"] = check("auditor", s1, s1_bytes(c, entry["t1"]))
            if {"phi", "t2", "S2"} <= entry.keys():
                phi = json.dumps(entry["phi"], sort_keys=True, separators=(",", ":")).encode()
                s2 = _unb64(entry["S2"])
                results["S2"] = check("user", s2, s2_bytes(phi, entry["t2"], s1))
                if {"ePrime", "t3", "S3"} <= entry.keys():
                    s3 = _unb64(entry["S3"])
                    results["S3"] = check(
                        "provider", s3, s3_bytes(_unb64(entry["ePrime"]), entry["t3"], s2))
        elif {"ePrime", "t3", "S2", "S3"} <= entry.keys():
            # Provider entries carry S2 opaquely; S3 still binds it.
            s3 = _unb64(entry["S3"])
            results["S3"] = check(
                "provider", s3, s3_bytes(_unb64(entry["ePrime"]), entry["t3"], _unb64(entry["S2"])))
        if {"t4", "S4"} <= entry.keys():
            results["S4"] = check("user", _unb64(entry["S4"]), s4_bytes(entry["t4"]))
    except (ValueError, KeyError):
        return {name: False for name in ("S1", "S2", "S3", "S4") if name in entry}
    return results
