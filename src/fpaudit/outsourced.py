"""Outsourced audit: user, auditor and provider with chained signed logs.

The auditor owns the database and strategy; the user owns the randomness
and the channel to the provider; the provider answers challenges.  Each
round produces four signatures chaining the round's values together; the
``SIGNATURES`` table names each one's signer and the fields it covers:

    S1 = Sig_auditor(c, t1)          over the challenge template
    S2 = Sig_user(phi, t2, S1)       over the drawn randomness
    S3 = Sig_provider(e', t3, S2)    over the response
    S4 = Sig_user(t4)                closing timestamp (chained by position)

Signed byte layout (``signed_bytes``, bit-exact): an ASCII context tag
(``S1``..``S4``) followed by each covered field as a 4-byte big-endian
length prefix plus the field bytes, in the order listed above.  Timestamps
are RFC-3339 strings; ``phi`` is the canonical JSON of the drawn variables
(sorted keys, values in their template byte form).

Per-party log entries (``LOG_FIELDS``; newline-delimited JSON, signatures
and other bytes base64, ``phi`` as an object):

    provider: round, cPrime, ePrime, t3, S2, S3
    user:     round, version, c, phi, ePrime, t1..t4, S1..S4
    auditor:  round, version, c, phi, ePrime, t1..t4, S1..S4, delta

t1/S1 appear in the user log (and ``delta`` in the auditor log) so each log
chain-verifies on its own; liability still rests on the canonical tuples.
A round is identified by its S2, which every log holds; no signature
covers ``round``, which only labels it.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .challenge import RandomnessSource, draw_values, judge, render
from .database import Database, VersionTest
from .strategies import DecisionLog, drive_audit
from .transport import ExchangeRecord
from .versions import Version, parse_version, render_version

ROLES = ("user", "auditor", "provider")
SKEW = 2.0  # seconds tolerated between different parties' clocks

# Signature -> (signer, covered fields in signed order).
SIGNATURES = {
    "S1": ("auditor", ("c", "t1")),
    "S2": ("user", ("phi", "t2", "S1")),
    "S3": ("provider", ("ePrime", "t3", "S2")),
    "S4": ("user", ("t4",)),
}

_ROUND = ("round", "version", "c", "phi", "ePrime", "t1", "t2", "t3", "t4", "S1", "S2", "S3", "S4")
LOG_FIELDS = {"provider": ("round", "cPrime", "ePrime", "t3", "S2", "S3"),
              "user": _ROUND, "auditor": _ROUND + ("delta",)}
# Timestamp -> the party whose signature covers it.
_STAMPERS = {f: signer for signer, covered in SIGNATURES.values() for f in covered if f[0] == "t"}


class OutsourcedAuditError(RuntimeError):
    pass


class RoundError(OutsourcedAuditError):
    """A live round failed; ``blamed`` names the responsible party."""

    def __init__(self, blamed: str, reason: str):
        super().__init__(f"{blamed}: {reason}")
        self.blamed = blamed
        self.reason = reason


def _phi_bytes(phi: dict) -> bytes:
    """Canonical JSON of logged randomness: the bytes S2 covers."""
    if not all(isinstance(value, str) for value in phi.values()):
        raise ValueError("values must be strings")
    return json.dumps(phi, sort_keys=True, separators=(",", ":")).encode("utf-8")


# Field -> (logged JSON type, logged form -> field value, field value -> logged form).
# Every field a signature covers holds bytes.
_B64 = (str, base64.b64decode, lambda data: base64.b64encode(data).decode("ascii"))
CODECS = {
    "round": (int, int, int),
    "delta": (bool, bool, bool),
    "version": (str, parse_version, render_version),
    "phi": (dict, _phi_bytes, json.loads),
    **dict.fromkeys(("c", "cPrime", "ePrime", "S1", "S2", "S3", "S4"), _B64),
    **dict.fromkeys(("t1", "t2", "t3", "t4"), (str, str.encode, bytes.decode)),
}


def encode_entry(role: str, fields: dict) -> dict:
    """The log entry ``role`` keeps for a round's fields."""
    return {name: CODECS[name][2](fields[name]) for name in LOG_FIELDS[role]}


def decode_entry(role: str, entry: object) -> dict:
    """The fields of one of ``role``'s log entries; a missing or mistyped
    field is a ValueError naming it."""
    fields = {}
    for name in LOG_FIELDS[role]:
        kind, decode, _ = CODECS[name]
        value = entry.get(name) if isinstance(entry, dict) else None
        try:
            if type(value) is not kind:  # a bool is no round number
                raise ValueError(f"missing or not a {kind.__name__}")
            fields[name] = decode(value)
        except ValueError as exc:
            raise ValueError(f"{name!r}: {exc}") from None
    return fields


def signed_bytes(name: str, fields: dict) -> bytes:
    """What signature ``name`` signs: its tag, then each covered field length-prefixed."""
    covered = (fields[f] for f in SIGNATURES[name][1])
    return name.encode("ascii") + b"".join(len(v).to_bytes(4, "big") + v for v in covered)


# Signature checks a process remembers, the least recently used dropped
# first.  A session's rounds check four triples each, so a liability check
# that follows a session of up to 64 rounds finds them all; past that it
# checks each triple again, once per call (``verify_liability``'s memo).
_VERIFIED_TRIPLES = 256


@functools.lru_cache(maxsize=_VERIFIED_TRIPLES)
def _accepts(public: bytes, signature: bytes, data: bytes) -> bool:
    """Whether ``signature`` is the Ed25519 signature of ``data`` under the
    raw public key ``public``.

    The answer is a function of these three byte strings alone, so a
    result from the table is what OpenSSL returned for the same bytes.  The
    key enters as its bytes: key objects are unhashable, and ``read_keys``
    makes new ones for the same key."""
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, data)
        return True
    except InvalidSignature:
        return False


def _stamp(ts: float) -> bytes:
    return datetime.fromtimestamp(ts, timezone.utc).isoformat(timespec="microseconds").encode()


def _epoch(stamp: bytes) -> float:
    """Seconds since the epoch; a stamp without a UTC offset, which would
    be read in the judge's local time, is a ValueError."""
    parsed = datetime.fromisoformat(stamp.decode())
    if parsed.tzinfo is None:
        raise ValueError("no UTC offset")
    return parsed.timestamp()


def _timestamp_faults(fields: dict) -> list[tuple[str, str]]:
    """(party, reason) for signed timestamps that do not parse or run
    backwards; clocks of different parties may differ by ``SKEW``."""
    times, faults = {}, []
    for name, signer in _STAMPERS.items():
        try:
            times[name] = _epoch(fields[name])
        except ValueError:
            return [(signer, f"{name} is not a timestamp")]
    if times["t2"] < times["t1"] - SKEW:
        faults.append(("user", "t2 precedes t1"))
    if times["t3"] < times["t2"] - SKEW:
        faults.append(("provider", "t3 precedes t2"))
    if times["t4"] < times["t3"] - SKEW or times["t4"] < times["t2"]:
        faults.append(("user", "t4 precedes earlier timestamps"))
    return faults


@dataclass
class PartyIdentity:
    role: str
    signing_key: Ed25519PrivateKey
    verify_key: Ed25519PublicKey

    @classmethod
    def generate(cls, role: str) -> "PartyIdentity":
        if role not in ROLES:
            raise OutsourcedAuditError(f"unknown role {role!r}")
        key = Ed25519PrivateKey.generate()
        return cls(role=role, signing_key=key, verify_key=key.public_key())

    def sign(self, data: bytes) -> bytes:
        return self.signing_key.sign(data)

    def verify(self, signature: bytes, data: bytes) -> bool:
        return _accepts(self.verify_key.public_bytes_raw(), signature, data)

    def public_hex(self) -> str:
        return self.verify_key.public_bytes_raw().hex()


# ---------------------------------------------------------------------------
# Parties


@dataclass
class UserParty:
    identity: PartyIdentity
    rng: RandomnessSource
    log: list[dict] = field(default_factory=list)

    def draw_randomness(self, db: Database, version: Version) -> dict[str, bytes]:
        """Private draw; the auditor has no way to supply this value."""
        return draw_values(db.entries[version], self.rng, db.family)


@dataclass
class ProviderParty:
    identity: PartyIdentity
    responder: object
    log: list[dict] = field(default_factory=list)

    def process(self, round_no: int, c_prime: bytes, s2: bytes) -> tuple[bytes, bytes, bytes, float]:
        """Answer ``c_prime`` and sign it: (e', t3, S3, simulated latency)."""
        body, latency = self.responder.respond(c_prime)
        fields = {"round": round_no, "cPrime": c_prime, "ePrime": body,
                  "t3": _stamp(time.time()), "S2": s2}
        fields["S3"] = self.identity.sign(signed_bytes("S3", fields))
        self.log.append(encode_entry("provider", fields))
        return body, fields["t3"], fields["S3"], latency


@dataclass
class AuditorParty:
    identity: PartyIdentity
    db: Database
    log: list[dict] = field(default_factory=list)
    _phi_seen: set[bytes] = field(default_factory=set)


@dataclass(frozen=True)
class RoundResult:
    delta: bool
    reason: str | None
    elapsed: float
    e_prime: bytes


def _replay(entry: VersionTest, expected: bytes, fields: dict) -> RoundResult:
    """Judge a round's response against ``expected``, the expectation its
    signed values imply."""
    elapsed = _epoch(fields["t4"]) - _epoch(fields["t2"])
    judged = judge(fields["ePrime"], expected, elapsed, entry.wait_time)
    return RoundResult(judged.delta, judged.reason, elapsed, fields["ePrime"])


def _check(identities: dict[str, PartyIdentity], name: str, fields: dict) -> None:
    """Verify signature ``name`` live; a failure blames its signer."""
    signer = SIGNATURES[name][0]
    if not identities[signer].verify(fields[name], signed_bytes(name, fields)):
        raise RoundError(signer, f"{name} failed verification")


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
    identities = {"auditor": auditor.identity, "user": user.identity,
                  "provider": provider.identity}

    # Auditor -> user: challenge template, signed.
    fields = {"round": round_no, "version": version, "c": entry.challenge_template,
              "t1": _stamp(time.time())}
    fields["S1"] = auditor.identity.sign(signed_bytes("S1", fields))

    # User: verify the auditor's signature, draw randomness, render, forward.
    _check(identities, "S1", fields)
    values = user.draw_randomness(db, version)
    sent = time.time()
    fields.update(phi=_phi_bytes({name: v.decode() for name, v in values.items()}),
                  t2=_stamp(sent))
    fields["S2"] = user.identity.sign(signed_bytes("S2", fields))
    c_prime, expected = render(entry, values)

    fields["ePrime"], fields["t3"], fields["S3"], latency = provider.process(
        round_no, c_prime, fields["S2"])

    # User: verify the provider's signature, close the round.
    _check(identities, "S3", fields)
    fields["t4"] = _stamp(sent + latency)
    fields["S4"] = user.identity.sign(signed_bytes("S4", fields))
    logged = encode_entry("user", fields)
    user.log.append(logged)

    # Auditor: verify the whole chain, judge, log, watch the randomness.
    for name in ("S2", "S3", "S4"):
        _check(identities, name, fields)
    faults = _timestamp_faults(fields)
    if faults:
        raise RoundError(*faults[0])
    if fields["phi"] in auditor._phi_seen:
        raise RoundError("user", "randomness value repeated")
    auditor._phi_seen.add(fields["phi"])

    result = _replay(entry, expected, fields)
    auditor.log.append({**logged, "delta": result.delta})
    return result


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
    """The entries of a log file; a line that is not UTF-8 or not a JSON
    object with an integer ``round`` is a ValueError naming the file and the
    line."""
    entries = []
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                entry = json.loads(line)
                if not isinstance(entry, dict) or type(entry.get("round")) is not int:
                    raise ValueError("not an object with an integer 'round'")
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
            entries.append(entry)
    return entries


def write_keys(path: str | Path, identities: dict[str, PartyIdentity]) -> None:
    doc = {role: ident.public_hex() for role, ident in identities.items()}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")


def read_keys(path: str | Path) -> dict[str, Ed25519PublicKey]:
    """Public keys by role; anything but an object of hex Ed25519 keys is a
    ValueError naming the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or not all(isinstance(h, str) for h in doc.values()):
            raise ValueError("not an object of hex public keys by role")
        return {role: Ed25519PublicKey.from_public_bytes(bytes.fromhex(h))
                for role, h in doc.items()}
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
) -> dict[str, PartyVerdict]:
    """Replay the signed logs and assign blame for any contradiction.

    Every party checks each signature before it logs it, so an entry that
    does not decode, carries a failing signature or repeats an S2 its log
    already holds blames the log's holder and is no evidence.  A round's
    copies are the entries that carry its S2.  A log lacking a round
    another log holds is blamed, except the auditor for a round whose user
    copy shows a fault the auditor rejects live.  The expected response is
    recomputed from the signed challenge template and randomness, and
    compared against the auditor's recorded decision.  A ``keys`` mapping
    that lacks a role, or ``logs`` holding a role outside ``ROLES``, is a
    ValueError naming that role.

    Every copy is checked against its own signed bytes, through the
    process's bounded table of verification results keyed on the public
    key's bytes, the signature and the signed bytes, with a memo per call
    in front of it.  Whatever the length of the logs, the S1..S4 the
    user's and the auditor's logs share, and the provider's S3, cost at
    most one OpenSSL check each per call, four a round; none at all when
    a live session of up to 64 rounds in the same process has just
    checked them.
    """
    for role in ROLES:
        if role not in keys:
            raise ValueError(f"no public key for the {role}")
    for role in logs:
        if role not in ROLES:
            raise ValueError(f"no such role as {role!r} to hold a log")
    public = {role: keys[role].public_bytes_raw() for role in ROLES}
    # The logs are read one after the other, so logs of more rounds than
    # the table holds would evict each triple before its copies return.
    verified = functools.cache(_accepts)

    verdicts = {role: PartyVerdict() for role in ROLES}
    rounds: dict[bytes, dict[str, dict]] = {}  # S2 -> holder -> its copy
    rejected_live: set[bytes] = set()  # S2 of user copies the auditor would not log
    user_phis: set[bytes] = set()
    for role, entries in logs.items():
        for number, entry in enumerate(entries, start=1):
            try:
                fields = decode_entry(role, entry)
            except ValueError as exc:
                verdicts[role].blame(f"entry {number}: {exc}")
                continue
            label = f"round {fields['round']}"
            failed = next((name for name, (_, covered) in SIGNATURES.items()
                           if name in fields and all(f in fields for f in covered)
                           and not verified(public[SIGNATURES[name][0]], fields[name],
                                            signed_bytes(name, fields))), None)
            if failed:
                verdicts[role].blame(f"{label}: {failed} fails verification")
                if role == "user":
                    rejected_live.add(fields["S2"])
                continue
            copies = rounds.setdefault(fields["S2"], {})
            if role in copies:
                verdicts[role].blame(f"{label}: the log holds this round's S2 twice")
                continue
            copies[role] = fields
            if role == "user":
                if fields["phi"] in user_phis:
                    verdicts["user"].blame(f"{label}: randomness value repeated")
                    rejected_live.add(fields["S2"])
                user_phis.add(fields["phi"])

    for s2, copies in rounds.items():
        label = f"round {next(iter(copies.values()))['round']}"
        holder = next((role for role in ("auditor", "user") if role in copies), None)
        reference = copies.get(holder)
        faults = _timestamp_faults(reference) if reference else []
        for role in logs.keys() - copies.keys():
            # The auditor logs a round only after its live checks pass.
            if role != "auditor" or not (s2 in rejected_live or faults):
                verdicts[role].blame(f"{label} missing from log")
        if reference is None:
            continue

        entry = db.entries.get(reference["version"])
        if entry is None or entry.challenge_template != reference["c"]:
            # S1 covers c but not the version label, which is the holder's word.
            if any(e.challenge_template == reference["c"] for e in db.entries.values()):
                verdicts[holder].blame(f"{label}: version label does not name the signed challenge")
            else:
                verdicts["auditor"].blame(f"{label}: challenge matches no database entry")
            continue
        values = {name: v.encode() for name, v in json.loads(reference["phi"]).items()}
        if values.keys() != entry.variables.keys():
            verdicts["user"].blame(f"{label}: signed randomness does not bind the entry's variables")
            continue
        c_prime, expected = render(entry, values)
        provider_copy = copies.get("provider")
        if provider_copy is not None:
            if provider_copy["cPrime"] != c_prime:
                verdicts["provider"].blame(
                    f"{label}: logged challenge does not derive from the signed randomness")
            if provider_copy["ePrime"] != reference["ePrime"]:
                verdicts["provider"].blame(f"{label}: response differs across logs")
        for blamed, reason in faults:
            verdicts[blamed].blame(f"{label}: {reason}")
        auditor_copy = copies.get("auditor")
        if auditor_copy is not None and not faults and \
                _replay(entry, expected, reference).delta != auditor_copy["delta"]:
            verdicts["auditor"].blame(
                f"{label}: recorded decision contradicts the replayed expected response")
    return verdicts
