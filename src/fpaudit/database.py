"""Fingerprint database: per-version challenge tests and their referral structure.

The on-disk form is JSON with this layout::

    {
      "creationTimestamp":   "<RFC-3339>",
      "lastUpdateTimestamp": "<RFC-3339>",
      "defaultvalues": { "version.test.waittime.amount": 200, ... },
      "settings": { "interface.challenges": "...", "interface.responses": "...",
                    "strategies": ["BinarySearch", ...] },
      "service": {
        "name": "<family>",
        "family": ["4.0.0b1", ...],            # optional; defaults to entry keys
        "versions": {
          "7.2.0": { "test": {
              "variables": {"ax": {"format": "integer", "min": 1, "max": 999999999}},
              "challenge": {"payload": "..."},
              "expect":    {"payload": "..."},
              "branching": {"7.1.0": "1"},     # prerequisites tested first
              "deprecated": "7.1.0"            # boundary whose test must fail
          }},
          ...
        }
      }
    }

Entries without a ``challenge`` payload are pure referral entries: the
versions named under ``branching`` are tested in order instead.

Referral semantics used to derive where each entry's probed function is
actually available (its availability "windows" over the family):

* plain entry with a payload: available from that version onward;
* ``deprecated`` boundary (or an explicit ``windows`` list): available only
  inside the stated window(s);
* a referral entry for version ``x`` naming a non-ancestor version ``u``
  marks ``u``'s function as back-ported: the function is absent between the
  start of ``x``'s branch and ``x`` itself.

Ancestor referrals (branch origins and technical prerequisites) always point
at the first version of a branch, i.e. a version with zeroed patch (or
zeroed minor and patch); anything else is treated as a back-port partner.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

from .versions import Version, VersionSet, branch_origin, parse_version, render_version

_IDENT_RE = re.compile(r"[a-z0-9_]+")

DEFAULT_WAIT_MS = 200

# The "defaultvalues" block of every database this package authors.
DEFAULT_VALUES = {
    "version.test.challenge.setstarttag": "true",
    "version.test.challenge.setendtag": "false",
    "version.test.expect.setstarttag": "false",
    "version.test.expect.setendtag": "false",
    "version.test.challenge.starttag": "<?php ",
    "version.test.challenge.endtag": " ?>",
    "version.test.expect.type": "string",
    "version.test.label": "0",
    "version.test.variables.type": "rand",
    "version.test.variables.format": "value",
    "version.test.waittime.amount": DEFAULT_WAIT_MS,
    "version.test.waittime.type": "milliseconds",
}

# Keys understood in the "defaultvalues" block.  The tag *value* keys carry
# the strings that get prepended/appended when the corresponding flag is set.
KNOWN_DEFAULTS = {
    "version.test.challenge.setstarttag",
    "version.test.challenge.setendtag",
    "version.test.expect.setstarttag",
    "version.test.expect.setendtag",
    "version.test.challenge.starttag",
    "version.test.challenge.endtag",
    "version.test.expect.starttag",
    "version.test.expect.endtag",
    "version.test.expect.type",
    "version.test.label",
    "version.test.variables.type",
    "version.test.variables.format",
    "version.test.waittime.amount",
    "version.test.waittime.type",
}

VARIABLE_FORMATS = {"integer", "string", "binary", "version", "dir-file"}

STRATEGY_ALIASES = {
    "BS": "BinarySearch",
    "CBS": "CascadingBinarySearch",
    "HTL": "HighToLow",
    "LTH": "LowToHigh",
    "HMSU": "MajorHighestStepUp",
}
STRATEGY_SHORT = {long: short for short, long in STRATEGY_ALIASES.items()}


class DatabaseError(ValueError):
    """Base class for database schema and referral problems."""


class SchemaError(DatabaseError):
    pass


class DanglingReferralError(DatabaseError):
    pass


class ReferralCycleError(DatabaseError):
    pass


@dataclass(frozen=True)
class VariableSpec:
    name: str
    format: str
    min: int | None = None
    max: int | None = None
    length: int | None = None

    def __post_init__(self) -> None:
        if self.format not in VARIABLE_FORMATS:
            raise SchemaError(f"variable {self.name!r}: unknown format {self.format!r}")
        if self.format == "integer":
            if self.min is None or self.max is None:
                raise SchemaError(f"variable {self.name!r}: integer format needs min and max")
            if self.min > self.max:
                raise SchemaError(f"variable {self.name!r}: min {self.min} > max {self.max}")
        if self.format in ("string", "binary"):
            if not self.length or self.length <= 0:
                raise SchemaError(f"variable {self.name!r}: {self.format} format needs a positive length")
        if not _IDENT_RE.fullmatch(self.name):
            raise SchemaError(f"variable name {self.name!r} is not a valid placeholder token")


@dataclass(frozen=True)
class DatabaseMeta:
    creation_timestamp: str
    last_update_timestamp: str
    default_values: dict[str, object]
    challenge_interface: str
    response_interface: str
    strategies: tuple[str, ...]
    service_name: str

    def wait_time(self) -> float:
        """Default per-test deadline in seconds."""
        amount = float(self.default_values.get("version.test.waittime.amount", DEFAULT_WAIT_MS))
        unit = str(self.default_values.get("version.test.waittime.type", "milliseconds"))
        return _to_seconds(amount, unit)


def _to_seconds(amount: float, unit: str) -> float:
    if unit in ("ms", "millisecond", "milliseconds"):
        return amount / 1000.0
    if unit in ("s", "second", "seconds"):
        return amount
    raise SchemaError(f"unknown waittime unit {unit!r}")


def _parse_rfc3339(value: str, key: str) -> str:
    try:
        datetime.fromisoformat(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{key} is not an RFC-3339 timestamp: {value!r}") from exc
    return value


@dataclass(frozen=True)
class VersionTest:
    """One database entry: intrinsic test plus referral structure."""

    version: Version
    variables: dict[str, VariableSpec] = field(default_factory=dict)
    challenge_template: bytes | None = None
    expect_template: bytes | None = None
    expect_type: str = "string"
    wait_time: float = DEFAULT_WAIT_MS / 1000.0
    branching_refs: tuple[Version, ...] = ()
    branching_flags: dict[str, str] = field(default_factory=dict)
    deprecated_ref: Version | None = None
    explicit_windows: tuple[tuple[Version, Version | None], ...] | None = None
    tag_overrides: dict[str, object] = field(default_factory=dict)

    @property
    def has_payload(self) -> bool:
        return self.challenge_template is not None


@dataclass(frozen=True)
class PlanStep:
    """One sub-test of a resolved plan."""

    version: Version
    expect_pass: bool


TestPlan = tuple[PlanStep, ...]


@dataclass(frozen=True)
class Database:
    meta: DatabaseMeta
    entries: dict[Version, VersionTest]
    family: VersionSet
    # version of a payload entry -> set of family versions where its probed
    # function is available (derived from the referral structure at load).
    availability: dict[Version, frozenset[Version]] = field(default_factory=dict, compare=False)
    availability_windows: dict[Version, tuple[tuple[Version, Version | None], ...]] = field(
        default_factory=dict, compare=False
    )

    @property
    def is_perfect(self) -> bool:
        return set(self.entries) == set(self.family.versions)

    def sorted_entry_versions(self) -> list[Version]:
        return sorted(self.entries)


# ---------------------------------------------------------------------------
# Loading and validation


def load_database(document: bytes | str) -> Database:
    """Parse, validate and resolve a database document.

    Raises :class:`SchemaError`, :class:`DanglingReferralError` or
    :class:`ReferralCycleError` with the offending version label in the
    message.
    """
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"database document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("database document must be a JSON object")

    meta = _load_meta(doc)
    service = doc.get("service")
    if not isinstance(service, dict):
        raise SchemaError("missing 'service' object")
    versions_doc = service.get("versions", {})
    if not isinstance(versions_doc, dict):
        raise SchemaError("'service.versions' must be an object")

    entries: dict[Version, VersionTest] = {}
    for label, body in versions_doc.items():
        v = parse_version(label)
        entries[v] = _load_entry(label, v, body, meta)

    family_labels = service.get("family")
    if family_labels is None:
        family_versions = tuple(entries)
    else:
        family_versions = tuple(parse_version(lbl) for lbl in family_labels)
        missing = [render_version(v) for v in entries if v not in family_versions]
        if missing:
            raise SchemaError(f"entries outside the declared family: {', '.join(missing)}")
    family = VersionSet(meta.service_name, family_versions)

    db = Database(meta=meta, entries=entries, family=family)
    _check_referrals(db)
    _check_cycles(db)
    avail, windows = _derive_availability(db)
    return replace(db, availability=avail, availability_windows=windows)


def _load_meta(doc: dict) -> DatabaseMeta:
    created = _parse_rfc3339(doc.get("creationTimestamp", ""), "creationTimestamp")
    updated = _parse_rfc3339(doc.get("lastUpdateTimestamp", created), "lastUpdateTimestamp")
    defaults = doc.get("defaultvalues", {})
    if not isinstance(defaults, dict):
        raise SchemaError("'defaultvalues' must be an object")
    for key in defaults:
        if key not in KNOWN_DEFAULTS:
            raise SchemaError(f"unknown default key {key!r}")
    amount = defaults.get("version.test.waittime.amount", DEFAULT_WAIT_MS)
    if not isinstance(amount, (int, float)) or amount <= 0:
        raise SchemaError(f"waittime amount must be positive, got {amount!r}")
    settings = doc.get("settings", {})
    strategies = tuple(settings.get("strategies", list(STRATEGY_ALIASES.values())))
    for name in strategies:
        if name not in STRATEGY_SHORT and name not in STRATEGY_ALIASES:
            raise SchemaError(f"unknown strategy name {name!r} in settings")
    service = doc.get("service", {})
    name = service.get("name") if isinstance(service, dict) else None
    if not name:
        raise SchemaError("missing 'service.name'")
    return DatabaseMeta(
        creation_timestamp=created,
        last_update_timestamp=updated,
        default_values=dict(defaults),
        challenge_interface=str(settings.get("interface.challenges", "loopback-sim")),
        response_interface=str(settings.get("interface.responses", "loopback-sim")),
        strategies=strategies,
        service_name=str(name),
    )


def _load_entry(label: str, v: Version, body: object, meta: DatabaseMeta) -> VersionTest:
    if not isinstance(body, dict) or not isinstance(body.get("test"), dict):
        raise SchemaError(f"entry {label!r}: missing 'test' object")
    test = body["test"]

    variables: dict[str, VariableSpec] = {}
    for name, spec in test.get("variables", {}).items():
        if not isinstance(spec, dict):
            raise SchemaError(f"entry {label!r}: variable {name!r} must be an object")
        variables[name] = VariableSpec(
            name=name,
            format=spec.get("format", str(meta.default_values.get("version.test.variables.format", "integer"))),
            min=spec.get("min"),
            max=spec.get("max"),
            length=spec.get("length"),
        )

    challenge = test.get("challenge") or {}
    expect = test.get("expect") or {}
    challenge_payload = challenge.get("payload")
    expect_payload = expect.get("payload")
    if (challenge_payload is None) != (expect_payload is None):
        raise SchemaError(f"entry {label!r}: challenge and expect payloads must come together")

    expect_type = str(expect.get("type", meta.default_values.get("version.test.expect.type", "string")))
    if expect_type != "string":
        raise SchemaError(f"entry {label!r}: unsupported expect type {expect_type!r}")

    wait = test.get("waittime")
    if wait is not None:
        wait_s = _to_seconds(float(wait.get("amount")), str(wait.get("type", "milliseconds")))
    else:
        wait_s = meta.wait_time()

    branching = test.get("branching", {})
    if not isinstance(branching, dict):
        raise SchemaError(f"entry {label!r}: 'branching' must be an object")
    refs = tuple(parse_version(ref) for ref in branching)
    flags = {ref: str(flag) for ref, flag in branching.items()}

    deprecated = test.get("deprecated")
    deprecated_ref = parse_version(deprecated) if deprecated else None

    explicit = None
    if "windows" in test:
        explicit = tuple(
            (parse_version(lo), parse_version(hi) if hi else None) for lo, hi in test["windows"]
        )

    tag_overrides = {}
    for side in ("challenge", "expect"):
        block = test.get(side) or {}
        for tag_key in ("setstarttag", "setendtag"):
            if tag_key in block:
                tag_overrides[f"{side}.{tag_key}"] = block[tag_key]

    if challenge_payload is None and not refs:
        raise SchemaError(f"entry {label!r}: has neither a challenge payload nor referrals")

    return VersionTest(
        version=v,
        variables=variables,
        challenge_template=challenge_payload.encode("utf-8") if challenge_payload is not None else None,
        expect_template=expect_payload.encode("utf-8") if expect_payload is not None else None,
        expect_type=expect_type,
        wait_time=wait_s,
        branching_refs=refs,
        branching_flags=flags,
        deprecated_ref=deprecated_ref,
        explicit_windows=explicit,
        tag_overrides=tag_overrides,
    )


def _check_referrals(db: Database) -> None:
    for v, entry in db.entries.items():
        for ref in entry.branching_refs:
            if ref != v and ref not in db.entries:
                raise DanglingReferralError(
                    f"entry {render_version(v)} refers to {render_version(ref)} which has no database entry"
                )
        if entry.deprecated_ref is not None and entry.deprecated_ref not in db.entries:
            raise DanglingReferralError(
                f"entry {render_version(v)} names deprecated boundary "
                f"{render_version(entry.deprecated_ref)} which has no database entry"
            )


def _check_cycles(db: Database) -> None:
    # Self-references select the entry's own intrinsic test and are legal.
    WHITE, GREY, BLACK = 0, 1, 2
    state = {v: WHITE for v in db.entries}

    def visit(v: Version, stack: list[Version]) -> None:
        state[v] = GREY
        stack.append(v)
        for ref in db.entries[v].branching_refs:
            if ref == v:
                continue
            if state[ref] == GREY:
                chain = " -> ".join(render_version(x) for x in stack + [ref])
                raise ReferralCycleError(f"referral cycle: {chain}")
            if state[ref] == WHITE:
                visit(ref, stack)
        stack.pop()
        state[v] = BLACK

    for v in db.entries:
        if state[v] == WHITE:
            visit(v, [])


def _ancestor_origins(x: Version) -> set[Version]:
    return {branch_origin(x, "minor"), branch_origin(x, "major")}


def _derive_availability(db: Database):
    """Compute, per payload entry, where its probed function is available."""
    windows: dict[Version, list[tuple[Version, Version | None]]] = {}
    for v, entry in db.entries.items():
        if not entry.has_payload:
            continue
        if entry.explicit_windows is not None:
            windows[v] = list(entry.explicit_windows)
        elif entry.deprecated_ref is not None:
            windows[v] = [(v, entry.deprecated_ref)]
        else:
            windows[v] = [(v, None)]

    # A non-ancestor referral from entry x to payload entry u marks u's
    # function as back-ported: absent from the start of x's branch up to x.
    holes: dict[Version, list[tuple[Version, Version]]] = {}
    for x, entry in db.entries.items():
        ancestors = _ancestor_origins(x)
        for ref in entry.branching_refs:
            if ref == x or ref in ancestors:
                continue
            target = db.entries.get(ref)
            if target is None or not target.has_payload:
                continue
            if ref >= x:
                continue
            hole_start = branch_origin(x, "minor" if x.patch != 0 else "major")
            if hole_start > ref:
                holes.setdefault(ref, []).append((hole_start, x))

    fam = list(db.family.versions)
    avail: dict[Version, frozenset[Version]] = {}
    final_windows: dict[Version, tuple[tuple[Version, Version | None], ...]] = {}
    for v, wins in windows.items():
        members = set()
        for lo, hi in wins:
            members.update(u for u in fam if lo <= u and (hi is None or u < hi))
        for lo, hi in holes.get(v, []):
            members.difference_update(u for u in fam if lo <= u < hi)
        avail[v] = frozenset(members)
        final_windows[v] = _members_to_windows(sorted(members), fam)
    return avail, final_windows


def _members_to_windows(members: list[Version], fam: list[Version]):
    """Collapse a version set into half-open windows over the family order."""
    if not members:
        return ()
    index = {v: i for i, v in enumerate(fam)}
    spans = []
    start = prev = members[0]
    for v in members[1:]:
        if index[v] == index[prev] + 1:
            prev = v
            continue
        spans.append((start, fam[index[prev] + 1] if index[prev] + 1 < len(fam) else None))
        start = prev = v
    spans.append((start, fam[index[prev] + 1] if index[prev] + 1 < len(fam) else None))
    return tuple(spans)


# ---------------------------------------------------------------------------
# Plan resolution


def resolve_plan(db: Database, v: Version) -> TestPlan:
    """Ordered sub-tests deciding version ``v``.

    Referrals expand recursively before the entry's own intrinsic test; a
    deprecated boundary expands after it, tagged expect-fail.  A family
    version without an entry yields an empty plan (vacuously true).
    """
    if v not in db.entries:
        if v not in db.family:
            raise DatabaseError(f"version {render_version(v)} is not part of the family")
        return ()

    steps: list[PlanStep] = []
    seen: set[Version] = set()
    depth_budget = len(db.entries) + 1

    def add(version: Version, expect_pass: bool) -> None:
        if version in seen:
            return
        seen.add(version)
        steps.append(PlanStep(version, expect_pass))

    def expand(version: Version, depth: int) -> None:
        if depth > depth_budget:
            raise ReferralCycleError(f"referral expansion exceeded family size at {render_version(version)}")
        entry = db.entries[version]
        for ref in entry.branching_refs:
            if ref == version:
                if entry.has_payload:
                    add(version, True)
                continue
            expand(ref, depth + 1)
        if entry.has_payload:
            add(version, True)

    expand(v, 0)
    entry = db.entries[v]
    if entry.deprecated_ref is not None:
        boundary = db.entries[entry.deprecated_ref]
        if boundary.has_payload and entry.deprecated_ref not in seen:
            steps.append(PlanStep(entry.deprecated_ref, False))
    return tuple(steps)


def fold_constraints(db: Database, observations: Iterable[tuple[Version, bool]],
                     members: Iterable[Version] | None = None) -> set[Version]:
    """``members`` (default: the family) narrowed by ``(version, observed)`` pairs:
    a passed intrinsic test keeps where its function is available, a failed one the rest."""
    members = set(db.family.versions if members is None else members)
    for version, observed in observations:
        avail = db.availability.get(version)
        if avail is None:
            raise ValueError(f"version {render_version(version)} has no intrinsic test to observe")
        members = members & avail if observed else members - avail
    return members


def plan_truth_set(db: Database, v: Version) -> frozenset[Version]:
    """Family versions at which the full plan for ``v`` passes."""
    plan = resolve_plan(db, v)
    return frozenset(fold_constraints(db, ((step.version, step.expect_pass) for step in plan)))


# ---------------------------------------------------------------------------
# Strategy independence


@dataclass(frozen=True)
class IndependenceReport:
    problems: tuple[str, ...]
    equivalence_classes: tuple[tuple[str, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def validate_strategy_independence(db: Database) -> IndependenceReport:
    """Check that every entry resolves to concrete tests from any entry point.

    Versions whose plans are empty are reported as equivalence classes with
    their nearest decided representative, not as errors.
    """
    problems: list[str] = []
    empty: list[Version] = []
    for v in db.family.versions:
        try:
            plan = resolve_plan(db, v)
        except DatabaseError as exc:
            problems.append(str(exc))
            continue
        if not plan:
            empty.append(v)
            continue
        for step in plan:
            entry = db.entries.get(step.version)
            if entry is None or not entry.has_payload:
                problems.append(
                    f"plan for {render_version(v)} references {render_version(step.version)} "
                    "which has no concrete intrinsic test"
                )

    classes: list[tuple[str, ...]] = []
    fam = list(db.family.versions)
    for v in empty:
        idx = fam.index(v)
        rep = next((fam[i] for i in range(idx - 1, -1, -1) if fam[i] in db.entries), None)
        members = (render_version(rep), render_version(v)) if rep else (render_version(v),)
        classes.append(members)
    return IndependenceReport(tuple(problems), tuple(classes))


# ---------------------------------------------------------------------------
# Serialization and authoring


def serialize_database(db: Database) -> bytes:
    """Canonical JSON form; load(serialize(db)) == db."""
    versions_doc: dict[str, object] = {}
    for v in db.sorted_entry_versions():
        entry = db.entries[v]
        test: dict[str, object] = {}
        if entry.variables:
            test["variables"] = {
                name: _variable_doc(spec) for name, spec in entry.variables.items()
            }
        if entry.has_payload:
            challenge: dict[str, object] = {"payload": entry.challenge_template.decode("utf-8")}
            expect: dict[str, object] = {"payload": entry.expect_template.decode("utf-8")}
            for key, value in entry.tag_overrides.items():
                side, tag = key.split(".", 1)
                (challenge if side == "challenge" else expect)[tag] = value
            test["challenge"] = challenge
            test["expect"] = expect
        if entry.branching_refs:
            test["branching"] = {
                render_version(ref): entry.branching_flags.get(render_version(ref), "1")
                for ref in entry.branching_refs
            }
        if entry.deprecated_ref is not None:
            test["deprecated"] = render_version(entry.deprecated_ref)
        if entry.explicit_windows is not None:
            test["windows"] = [
                [render_version(lo), render_version(hi) if hi else None]
                for lo, hi in entry.explicit_windows
            ]
        if entry.wait_time != db.meta.wait_time():
            test["waittime"] = {"amount": entry.wait_time * 1000.0, "type": "milliseconds"}
        versions_doc[render_version(v)] = {"test": test}

    doc = {
        "creationTimestamp": db.meta.creation_timestamp,
        "lastUpdateTimestamp": db.meta.last_update_timestamp,
        "defaultvalues": db.meta.default_values,
        "settings": {
            "interface.challenges": db.meta.challenge_interface,
            "interface.responses": db.meta.response_interface,
            "strategies": list(db.meta.strategies),
        },
        "service": {
            "name": db.meta.service_name,
            "family": db.family.labels(),
            "versions": versions_doc,
        },
    }
    return json.dumps(doc, indent=2, ensure_ascii=True).encode("utf-8")


def _variable_doc(spec: VariableSpec) -> dict[str, object]:
    doc: dict[str, object] = {"format": spec.format}
    if spec.min is not None:
        doc["min"] = spec.min
    if spec.max is not None:
        doc["max"] = spec.max
    if spec.length is not None:
        doc["length"] = spec.length
    return doc


def new_database(service_name: str) -> Database:
    """Fresh empty database with metadata stamped now."""
    now = datetime.now(timezone.utc).isoformat(timespec="seconds")
    meta = DatabaseMeta(
        creation_timestamp=now,
        last_update_timestamp=now,
        default_values=dict(DEFAULT_VALUES),
        challenge_interface="loopback-sim",
        response_interface="loopback-sim",
        strategies=tuple(STRATEGY_ALIASES.values()),
        service_name=service_name,
    )
    return Database(meta=meta, entries={}, family=VersionSet(service_name, ()))


def add_entry(
    db: Database,
    label: str,
    *,
    challenge: str | None = None,
    expect: str | None = None,
    variables: dict[str, VariableSpec] | None = None,
    branching: list[str] | None = None,
    deprecated: str | None = None,
    wait_time: float | None = None,
) -> Database:
    """Return a new database with one more entry (revalidated in full)."""
    v = parse_version(label)
    if v in db.entries:
        raise DatabaseError(f"entry {label!r} already exists")
    entry = VersionTest(
        version=v,
        variables=dict(variables or {}),
        challenge_template=challenge.encode("utf-8") if challenge is not None else None,
        expect_template=expect.encode("utf-8") if expect is not None else None,
        wait_time=wait_time if wait_time is not None else db.meta.wait_time(),
        branching_refs=tuple(parse_version(r) for r in (branching or [])),
        branching_flags={r: "1" for r in (branching or [])},
        deprecated_ref=parse_version(deprecated) if deprecated else None,
    )
    if not entry.has_payload and not entry.branching_refs:
        raise SchemaError(f"entry {label!r}: has neither a challenge payload nor referrals")
    entries = dict(db.entries)
    entries[v] = entry
    family_versions = set(db.family.versions) | {v}
    now = datetime.now(timezone.utc).isoformat(timespec="seconds")
    meta = replace(db.meta, last_update_timestamp=now)
    out = Database(meta=meta, entries=entries, family=VersionSet(db.family.family_name, tuple(family_versions)))
    _check_referrals(out)
    _check_cycles(out)
    avail, windows = _derive_availability(out)
    return replace(out, availability=avail, availability_windows=windows)
