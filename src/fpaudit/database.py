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

Building a :class:`Database` walks the referrals once, without recursion,
so any referral depth loads: the walk rejects a referral or ``deprecated``
boundary that names no entry, a referral cycle and an entry that tests
nothing (its plan is empty), and resolves every entry's plan into
``Database.plans``.

Availability is derived as masks: ``Database.avail_masks`` holds, per
payload entry, the mask of the family versions where its probed function
is available.  Windows are only input syntax (``deprecated``, ``windows``,
read into masks by ``VersionSet.mask``) and report output
(``VersionSet.windows``, its inverse).  The referral semantics:

* plain entry with a payload: available from that version onward;
* ``deprecated`` boundary (or an explicit ``windows`` list): available only
  inside the stated window(s); a boundary at or below its entry, an empty
  list and a window whose end is not above its start are rejected;
* a referral entry for version ``x`` naming a non-ancestor version ``u``
  marks ``u``'s function as back-ported: the function is absent between the
  start of ``x``'s branch and ``x`` itself.

Ancestor referrals (branch origins and technical prerequisites) always point
at the first version of a branch, i.e. a version with zeroed patch (or
zeroed minor and patch); anything else is treated as a back-port partner.

This module also holds the rules for reading a field of an outside JSON
document, which the simulator config's loader shares: ``null`` is the only
absent value, a JSON bool is no number, numbers are finite (NaN, the
infinities and an int beyond float range are errors), wait amounts are
positive and, once converted, a deadline above 0 s (``5e-324`` ms is not),
text fields (interfaces, ``expect.type``, ``branching`` flags) are strings,
and a window list must cover something.  Each error names its key.  A
``string`` or ``binary`` variable is at most ``MAX_VARIABLE_LENGTH`` long.

Each distinct label string is parsed once per document: one dict, made by
each load call and passed to every label reader, so every reference to an
entry spelled as its key is the entry key's own ``Version``.  Each distinct
variable spec is built once per document the same way.  No parse or spec
outlives the document.  The default variable format, expect type and wait
are resolved once per document too, on :class:`DatabaseMeta`.  A payload
template is compiled the first time an audit renders it, not at load.
"""

from __future__ import annotations

import functools
import json
import math
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .versions import (Version, VersionParseError, VersionSet, branch_origin, parse_version,
                       render_version)

_IDENT_RE = re.compile(r"[a-z0-9_]+")
# A "#name#" placeholder in a challenge or expect template.
_PLACEHOLDER_RE = re.compile(rb"#([a-z0-9_]+)#")

DEFAULT_WAIT_MS = 200
_WAIT_AMOUNT, _WAIT_TYPE = "version.test.waittime.amount", "version.test.waittime.type"
_VARIABLE_FORMAT, _EXPECT_TYPE = "version.test.variables.format", "version.test.expect.type"

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
    "version.test.variables.format": "integer",
    "version.test.waittime.amount": DEFAULT_WAIT_MS,
    "version.test.waittime.type": "milliseconds",
}

# Keys understood in the "defaultvalues" block.  The tag *value* keys carry
# the strings that get prepended/appended when the corresponding flag is set.
KNOWN_DEFAULTS = set(DEFAULT_VALUES) | {"version.test.expect.starttag", "version.test.expect.endtag"}

VARIABLE_FORMATS = {"integer", "string", "binary", "version", "dir-file"}

# The longest ``string`` or ``binary`` value a test may ask for: every
# exchange renders it anew, so a database must not make one arbitrarily large.
MAX_VARIABLE_LENGTH = 4096

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
            if self.length > MAX_VARIABLE_LENGTH:
                raise SchemaError(f"variable {self.name!r}: length {self.length} is above "
                                  f"{MAX_VARIABLE_LENGTH}")
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
        """Default per-test deadline in seconds, resolved once per document."""
        return self._default_wait

    @functools.cached_property
    def _default_wait(self) -> float:
        return _deadline(self.default_values, _WAIT_AMOUNT, _WAIT_TYPE, "default key '{}'",
                         DEFAULT_WAIT_MS)

    @functools.cached_property
    def default_format(self) -> str:
        """The format of a variable that names none."""
        fmt = _field(self.default_values, _VARIABLE_FORMAT, str, "a string",
                     f"default key '{_VARIABLE_FORMAT}'", "integer")
        if fmt not in VARIABLE_FORMATS:
            raise SchemaError(f"default key '{_VARIABLE_FORMAT}': unknown format {fmt!r}")
        return fmt

    @functools.cached_property
    def default_tags(self) -> tuple[Tags, Tags]:
        """The challenge and expect tags of an entry that overrides no tag flag."""
        return (_side_tags({}, "challenge", self.default_values),
                _side_tags({}, "expect", self.default_values))


def _deadline(doc: dict, amount_key: str, unit_key: str, at: str,
              default: float | None = None) -> float:
    """``doc[amount_key]`` (``default`` if absent or null) of the unit
    ``doc[unit_key]`` names (milliseconds if absent or null) in seconds.  An
    amount that is no positive finite number, or that is 0 s once converted,
    and a unit that is not a known string are a :class:`SchemaError` naming
    the key, as ``at.format(key)``."""
    amount_at, unit_at = at.format(amount_key), at.format(unit_key)
    amount = _number(doc, amount_key, amount_at, default, positive=True)
    unit = _field(doc, unit_key, str, "a string", unit_at, "milliseconds")
    if unit in ("ms", "millisecond", "milliseconds"):
        seconds = amount / 1000.0
    elif unit in ("s", "second", "seconds"):
        seconds = amount
    else:
        raise SchemaError(f"{unit_at}: unknown waittime unit {unit!r}")
    if seconds == 0.0:  # a subnormal amount of milliseconds
        raise SchemaError(f"{amount_at} must be a deadline above 0 s, got {amount!r} {unit}")
    return seconds


def _parse_rfc3339(value: str, key: str) -> str:
    try:
        datetime.fromisoformat(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{key} is not an RFC-3339 timestamp: {value!r}") from exc
    return value


@dataclass(frozen=True)
class Tags:
    start: bytes = b""
    end: bytes = b""


class Template(NamedTuple):
    """A payload template compiled when it is first rendered, with the side's
    tags around it: a bytes format with one ``%s`` per ``#name#`` placeholder
    (every literal ``%`` doubled) and the placeholders' names in order.
    ``pick`` takes their values from a dict keyed by name in the form ``%``
    takes them, so filling is ``format % pick(values)``; a name the dict
    lacks is a ``KeyError``."""

    format: bytes
    names: tuple[str, ...]
    pick: Callable[[dict], object]


def _no_values(values: dict) -> tuple:
    return ()


def _compile(template: bytes, tags: Tags) -> Template:
    """``template`` wrapped in ``tags``, its ``#name#`` placeholders made ``%s``."""
    parts = _PLACEHOLDER_RE.split(template)
    parts[0] = tags.start + parts[0]
    parts[-1] += tags.end
    names = tuple(name.decode("ascii") for name in parts[1::2])
    # One name picks the bare value, several a tuple: both are what % takes.
    return Template(b"%s".join(literal.replace(b"%", b"%%") for literal in parts[::2]),
                    names, itemgetter(*names) if names else _no_values)


@dataclass(frozen=True)
class VersionTest:
    """One database entry: intrinsic test plus referral structure."""

    version: Version
    variables: dict[str, VariableSpec] = field(default_factory=dict)
    challenge_template: bytes | None = None
    expect_template: bytes | None = None
    wait_time: float = DEFAULT_WAIT_MS / 1000.0
    branching_refs: tuple[Version, ...] = ()
    branching_flags: dict[str, str] = field(default_factory=dict)
    deprecated_ref: Version | None = None
    explicit_windows: tuple[tuple[Version, Version | None], ...] | None = None
    tag_overrides: dict[str, object] = field(default_factory=dict)
    # The tags each side's payload is wrapped in: the defaults, with
    # ``tag_overrides`` applied, resolved when the entry is loaded.
    challenge_tags: Tags = Tags()
    expect_tags: Tags = Tags()
    # Both sides' templates compiled with their tags, set by ``compile`` when
    # the entry is first rendered, so an entry no audit renders is never
    # compiled.  Deferring this defers no error: the loader checked every
    # placeholder against the variables, a name ``_PLACEHOLDER_RE`` matches
    # is ASCII, and the tags are bytes resolved at load, so ``_compile``
    # cannot fail on a loaded entry.  One field holds both sides, so no
    # thread sees one side compiled without the other.
    compiled: tuple[Template, Template] | None = field(default=None, init=False, repr=False,
                                                       compare=False)

    def compile(self) -> tuple[Template, Template]:
        """A payload entry's challenge and expect templates, compiled on the
        first call."""
        if self.compiled is None:
            pair = (_compile(self.challenge_template, self.challenge_tags),
                    _compile(self.expect_template, self.expect_tags))
            object.__setattr__(self, "compiled", pair)
        return self.compiled

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
    """Entries over a family; construction checks the referrals, resolves
    each entry's plan and derives where each payload entry's function is
    available.

    Version sets are masks over the family index (see ``VersionSet``);
    ``family.select`` turns one back into versions.
    """

    meta: DatabaseMeta
    entries: dict[Version, VersionTest]
    family: VersionSet
    # version of a payload entry -> mask of the family versions where its
    # probed function is available (derived from the referral structure).
    avail_masks: dict[Version, int] = field(init=False, repr=False, compare=False)
    entry_versions: tuple[Version, ...] = field(init=False, repr=False, compare=False)
    # entry version -> its resolved plan (see ``resolve_plan``).
    plans: dict[Version, TestPlan] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        missing = [render_version(v) for v in self.entries if v not in self.family]
        if missing:
            raise SchemaError(f"entries outside the declared family: {', '.join(missing)}")
        object.__setattr__(self, "plans", _resolve_plans(self.entries))
        object.__setattr__(self, "avail_masks", _derive_availability(self))
        object.__setattr__(self, "entry_versions",
                           tuple(v for v in self.family.versions if v in self.entries))

    @functools.cached_property
    def availability(self) -> dict[Version, frozenset[Version]]:
        """``avail_masks`` as version sets, for readers outside the package."""
        return {v: frozenset(self.family.select(m)) for v, m in self.avail_masks.items()}

    @functools.cached_property
    def truth(self) -> dict[Version, int]:
        """Entry version -> mask of the family versions at which its full plan
        passes, in ascending version order, derived on first use."""
        return {v: plan_truth_set(self, v) for v in self.entry_versions}

    @functools.cached_property
    def entry_truths(self) -> tuple[tuple[Version, int, int], ...]:
        """``(entry, its own bit, its truth mask)`` per entry, ascending: what
        an audit step scans, built once per database."""
        index = self.family.index
        return tuple((v, 1 << index[v], t) for v, t in self.truth.items())

    @functools.cached_property
    def entry_mask(self) -> int:
        """The mask of the family versions that have an entry."""
        index = self.family.index
        return sum(1 << index[v] for v in self.entry_versions)

    @functools.cached_property
    def branch_heads(self) -> dict[tuple[int, ...], dict[int, Version]]:
        """Branch prefix ``()``, ``(major,)`` or ``(major, minor)`` -> the lowest
        entry for each value of the next component, both in ascending order."""
        heads: dict[tuple[int, ...], dict[int, Version]] = {(): {}}
        for v in self.entry_versions:
            heads[()].setdefault(v.major, v)
            heads.setdefault((v.major,), {}).setdefault(v.minor, v)
            heads.setdefault((v.major, v.minor), {}).setdefault(v.patch, v)
        return heads

    @functools.cached_property
    def decisions(self) -> dict:
        """The audit loop's decision memo: strategy class -> the root of that
        strategy's decision tree, filled by ``strategies.drive_audit`` as
        audits reach new steps.

        A node is the step the loop decided there: ``(pick, plan, children,
        ends)``, or the stop reason ``"converged"``.  ``children`` maps the
        tuple of the step's sub-test observations to the next node, and
        ``ends`` maps the same key to the verdict fold of an audit that
        stopped right after that outcome: ``verdict.build_report``'s bounds
        and candidate set, or the message naming its inconsistency.  A step
        depends only on the observations along its path, so no provider can
        change what a later audit of another one does.  The budget is the
        loop's own stop at a pick node, so audits with any budget share the
        tree and its folds.

        Size: each outcome is the plan cut at its first unmet sub-test, so a
        step's children partition its candidates, and a path whose candidates
        are empty stops at the next node, since no entry splits them.  The
        nodes with candidates left thus form a tree whose leaves hold
        disjoint sets, at most N.  Where every step splits its candidates
        that tree has at most 2N-1 nodes; the others are the empty leaves of
        the outcomes the candidates rule out (fewer than a plan's sub-tests
        per step) and the steps that split nothing (each tests a new entry,
        at most the largest budget on a path).  After truth-probe audits
        from every source and 2,000 coin-flip audits per strategy, no tree
        exceeded 2N+1 nodes: 49 on the N=24 fixture, 501 on the N=256 grid
        and 2,036 on the N=1,024 grid, at about 230-290 bytes a node, and a
        pick node's empty ``ends`` table takes 64 more.  An ``ends`` entry
        holds the candidates as a tuple (and a set once a membership test
        asks), so it grows with them: on the N=256 grid the 70 entries three
        passes of the grid-loopback benchmark left, at some 58 candidates
        each, took about 1.1 KB apiece.
        """
        return {}

    @property
    def is_perfect(self) -> bool:
        return len(self.entries) == len(self.family)  # every entry is a family version


# ---------------------------------------------------------------------------
# Loading and validation


def load_database(document: bytes | str) -> Database:
    """Parse, validate and resolve a database document.

    Raises :class:`SchemaError`, :class:`DanglingReferralError` or
    :class:`ReferralCycleError` with the offending version label in the
    message.
    """
    try:
        doc = json.loads(document.decode("utf-8") if isinstance(document, bytes) else document)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"database document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("database document must be a JSON object")

    meta = _load_meta(doc)
    # Each distinct label string of the document is parsed once, so every
    # reference to an entry in its key's spelling is the entry key's object;
    # each distinct variable spec, keyed by its fields, is built and checked
    # once.  Both dicts live as long as this call.
    parsed: dict[str, Version] = {}
    specs: dict[tuple, VariableSpec] = {}
    service = doc.get("service")
    if not isinstance(service, dict):
        raise SchemaError("missing 'service' object")
    versions_doc = service.get("versions", {})
    if not isinstance(versions_doc, dict):
        raise SchemaError("'service.versions' must be an object")

    versions = _parse_labels(versions_doc, "'service.versions'", parsed)
    entries = {v: _load_entry(label, v, body, meta, parsed, specs)
               for v, (label, body) in zip(versions, versions_doc.items())}

    family_labels = service.get("family")
    if family_labels is None:
        family_versions = tuple(entries)
    elif not isinstance(family_labels, list):
        raise SchemaError(f"'service.family' must be a list of version labels, got {family_labels!r}")
    else:
        # The entry keys' own objects, also for a label spelled apart from its
        # key, so a lookup of a family version in a dict keyed by entry
        # versions is an identity hit.
        keys = {v: v for v in entries}
        listed = (_parse_label(lbl, "'service.family'", parsed) for lbl in family_labels)
        family_versions = tuple(keys.get(v, v) for v in listed)
    try:
        family = VersionSet(meta.service_name, family_versions)
    except ValueError as exc:
        raise SchemaError(f"'service.family': {exc}") from exc
    return Database(meta=meta, entries=entries, family=family)


# The rules for reading one field of an outside JSON document, shared with
# the simulator config's loader.  ``parsed`` maps each label string of the
# document read so far to its version; one dict serves one document.
def _parse_label(label: object, where: str, parsed: dict[str, Version]) -> Version:
    """``label`` as a version, parsed once per ``parsed``; a malformed one is a
    :class:`SchemaError` naming ``where``."""
    if not isinstance(label, str):
        raise SchemaError(f"{where}: version label {label!r} is not a string")
    v = parsed.get(label)
    if v is None:
        try:
            v = parsed[label] = parse_version(label)
        except VersionParseError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    return v


def _parse_labels(labels: Iterable[object], where: str,
                  parsed: dict[str, Version]) -> tuple[Version, ...]:
    """``labels`` as versions; two labels naming one version are a :class:`SchemaError`."""
    first: dict[Version, object] = {}
    for label in labels:
        v = _parse_label(label, where, parsed)
        if first.setdefault(v, label) != label:
            raise SchemaError(f"{where}: {first[v]!r} and {label!r} name the same version")
    return tuple(first)


def _checked(value: object, kind: type | tuple[type, ...], what: str, at: str):
    """``value`` if it is a ``kind`` (a bool is no number); else a :class:`SchemaError`
    naming ``at``."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise SchemaError(f"{at} must be {what}, got {value!r}")
    return value


def _field(doc: dict, key: str, kind: type | tuple[type, ...], what: str, at: str,
           default: object = None):
    """``doc[key]`` checked as :func:`_checked` checks it, or ``default`` if it
    is absent or null: only null is absent, so ``0``, ``false``, ``""``, ``[]``
    and ``{}`` are values."""
    value = doc.get(key)
    return default if value is None else _checked(value, kind, what, at)


def _number(doc: dict, key: str, at: str, default: float | None = None, *,
            positive: bool = False) -> float:
    """``doc[key]`` (``default`` if absent or null) as a finite float that is
    not negative, nor zero if ``positive``; else a :class:`SchemaError` naming
    ``at``.  NaN, the infinities and an int beyond float range are no numbers."""
    what = "a finite positive number" if positive else "a finite non-negative number"
    value = doc.get(key)
    try:
        number = float(_checked(default if value is None else value, (int, float), what, at))
    except OverflowError:
        number = math.inf
    if not math.isfinite(number) or number < 0 or (positive and number == 0):
        raise SchemaError(f"{at} must be {what}, got {value!r}")
    return number


def _windows(pairs: object, at: str,
             parsed: dict[str, Version]) -> tuple[tuple[Version, Version | None], ...]:
    """``pairs`` as ``[from, until]`` windows, ``until`` null for open-ended; a
    malformed or empty list, or a window that covers nothing, is a
    :class:`SchemaError` naming ``at``."""
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise SchemaError(f"{at} must be a list of [from, until] pairs, got {pairs!r}")
    if not pairs:
        raise SchemaError(f"{at}: an empty list covers nothing")
    windows = tuple((_parse_label(lo, at, parsed),
                     None if hi is None else _parse_label(hi, at, parsed)) for lo, hi in pairs)
    for (lo, hi), pair in zip(windows, pairs):
        if hi is not None and hi <= lo:
            raise SchemaError(f"{at}: window {pair!r} covers nothing: until is not above from")
    return windows


def _load_meta(doc: dict) -> DatabaseMeta:
    created = _parse_rfc3339(doc.get("creationTimestamp", ""), "creationTimestamp")
    updated = _parse_rfc3339(doc.get("lastUpdateTimestamp", created), "lastUpdateTimestamp")
    defaults = _field(doc, "defaultvalues", dict, "an object", "document 'defaultvalues'", {})
    for key in defaults:
        if key not in KNOWN_DEFAULTS:
            raise SchemaError(f"unknown default key {key!r}")
    expect_type = _field(defaults, _EXPECT_TYPE, str, "a string", f"default key '{_EXPECT_TYPE}'",
                         "string")
    if expect_type != "string":
        raise SchemaError(f"default key '{_EXPECT_TYPE}': unsupported expect type {expect_type!r}")
    settings = _field(doc, "settings", dict, "an object", "document 'settings'", {})
    strategies = tuple(_field(settings, "strategies", list, "a list of strategy names",
                              "settings 'strategies'", list(STRATEGY_ALIASES.values())))
    for name in strategies:
        if not isinstance(name, str) or (name not in STRATEGY_SHORT and name not in STRATEGY_ALIASES):
            raise SchemaError(f"unknown strategy name {name!r} in settings 'strategies'")
    service = doc.get("service", {})
    name = _field(service, "name", str, "a string", "service 'name'") if isinstance(service, dict) else None
    if not name:
        raise SchemaError("missing 'service.name'")
    meta = DatabaseMeta(
        creation_timestamp=created,
        last_update_timestamp=updated,
        default_values=dict(defaults),
        challenge_interface=_field(settings, "interface.challenges", str, "a string",
                                   "settings 'interface.challenges'", "loopback-sim"),
        response_interface=_field(settings, "interface.responses", str, "a string",
                                  "settings 'interface.responses'", "loopback-sim"),
        strategies=strategies,
        service_name=name,
    )
    meta.default_format, meta.wait_time()  # checks the default format, wait amount and unit
    return meta


def _load_entry(label: str, v: Version, body: object, meta: DatabaseMeta,
                parsed: dict[str, Version], specs: dict[tuple, VariableSpec]) -> VersionTest:
    if not isinstance(body, dict) or not isinstance(body.get("test"), dict):
        raise SchemaError(f"entry {label!r}: missing 'test' object")
    test = body["test"]
    where = f"entry {label!r}"

    default_format = meta.default_format
    variables: dict[str, VariableSpec] = {}
    for name, spec in _field(test, "variables", dict, "an object", f"{where} 'variables'", {}).items():
        at = f"{where} variable {name!r}"
        _checked(spec, dict, "an object", at)
        key = (name,
               _field(spec, "format", str, "a string", f"{at} 'format'", default_format),
               _field(spec, "min", int, "an integer", f"{at} 'min'"),
               _field(spec, "max", int, "an integer", f"{at} 'max'"),
               _field(spec, "length", int, "an integer", f"{at} 'length'"))
        built = specs.get(key)
        if built is None:
            built = specs[key] = VariableSpec(*key)
        variables[name] = built

    challenge = _field(test, "challenge", dict, "an object", f"{where} 'challenge'", {})
    expect = _field(test, "expect", dict, "an object", f"{where} 'expect'", {})
    challenge_payload = _field(challenge, "payload", str, "a string", f"{where} 'challenge.payload'")
    expect_payload = _field(expect, "payload", str, "a string", f"{where} 'expect.payload'")
    if (challenge_payload is None) != (expect_payload is None):
        raise SchemaError(f"entry {label!r}: challenge and expect payloads must come together")

    # The default type was checked at load to be "string".
    expect_type = _field(expect, "type", str, "a string", f"{where} 'expect.type'", "string")
    if expect_type != "string":
        raise SchemaError(f"entry {label!r}: unsupported expect type {expect_type!r}")

    wait = _field(test, "waittime", dict, "an object", f"{where} 'waittime'")
    wait_s = meta.wait_time() if wait is None else _deadline(wait, "amount", "type",
                                                             f"{where} 'waittime.{{}}'")

    branching = _field(test, "branching", dict, "an object", f"{where} 'branching'", {})
    refs = _parse_labels(branching, f"{where} 'branching'", parsed)
    # Keyed by the canonical label, which is how serialize_database looks them up.
    flags = {render_version(ref): _field(branching, ref_label, str, "a string",
                                         f"{where} 'branching.{ref_label}'", "1")
             for ref, ref_label in zip(refs, branching)}

    deprecated = test.get("deprecated")
    deprecated_ref = (None if deprecated is None
                      else _parse_label(deprecated, f"{where} 'deprecated'", parsed))
    if deprecated_ref is not None and deprecated_ref <= v:
        raise SchemaError(f"{where} 'deprecated': boundary {deprecated!r} is not above the entry")

    windows = test.get("windows")
    explicit = None if windows is None else _windows(windows, f"{where} 'windows'", parsed)

    tag_overrides = {f"{side}.{tag_key}": block[tag_key]
                     for side, block in (("challenge", challenge), ("expect", expect))
                     for tag_key in ("setstarttag", "setendtag") if tag_key in block}

    if challenge_payload is None and not refs:
        raise SchemaError(f"entry {label!r}: has neither a challenge payload nor referrals")
    challenge_tags, expect_tags = (
        (_side_tags(tag_overrides, "challenge", meta.default_values),
         _side_tags(tag_overrides, "expect", meta.default_values))
        if tag_overrides else meta.default_tags)

    challenge_template = expect_template = None
    if challenge_payload is not None:
        challenge_template = challenge_payload.encode("utf-8")
        expect_template = expect_payload.encode("utf-8")
        # The names _compile will split out when the entry is first rendered.
        for raw in chain(_PLACEHOLDER_RE.findall(challenge_template),
                         _PLACEHOLDER_RE.findall(expect_template)):
            name = raw.decode("ascii")
            if name not in variables:
                raise SchemaError(f"entry {label!r}: no variable binds placeholder #{name}#")

    return VersionTest(
        version=v,
        variables=variables,
        challenge_template=challenge_template,
        expect_template=expect_template,
        wait_time=wait_s,
        branching_refs=refs,
        branching_flags=flags,
        deprecated_ref=deprecated_ref,
        explicit_windows=explicit,
        tag_overrides=tag_overrides,
        challenge_tags=challenge_tags,
        expect_tags=expect_tags,
    )


def _side_tags(overrides: dict[str, object], side: str, defaults: dict[str, object]) -> Tags:
    """One side's start and end tags: a tag is set when the entry's flag says
    so, or, with no flag (or a null one), when the default flag does."""

    def tag(name: str) -> bytes:
        flag = overrides.get(f"{side}.set{name}")
        if flag is None:
            flag = defaults.get(f"version.test.{side}.set{name}", "false")
        if str(flag).lower() != "true":
            return b""
        return str(defaults.get(f"version.test.{side}.{name}", "")).encode("utf-8")

    return Tags(tag("starttag"), tag("endtag"))


def _ancestor_origins(x: Version) -> set[Version]:
    return {branch_origin(x, "minor"), branch_origin(x, "major")}


def _derive_availability(db: Database) -> dict[Version, int]:
    """Per payload entry, the mask of where its probed function is available."""
    # A non-ancestor referral from entry x to payload entry u marks u's
    # function as back-ported: absent from the start of x's branch up to x.
    holes: dict[Version, list[tuple[Version, Version]]] = {}
    for x, entry in db.entries.items():
        if not entry.branching_refs:
            continue
        ancestors = _ancestor_origins(x)
        for ref in entry.branching_refs:
            if ref >= x or ref in ancestors or not db.entries[ref].has_payload:
                continue
            hole_start = branch_origin(x, "minor" if x.patch != 0 else "major")
            if hole_start > ref:
                holes.setdefault(ref, []).append((hole_start, x))

    mask = db.family.mask
    avail: dict[Version, int] = {}
    for v, entry in db.entries.items():
        if not entry.has_payload:
            continue
        windows = (entry.explicit_windows if entry.explicit_windows is not None
                   else ((v, entry.deprecated_ref),))
        avail[v] = mask(windows) & ~mask(holes.get(v, ()))
    return avail


# ---------------------------------------------------------------------------
# Plan resolution


def _resolve_plans(entries: dict[Version, VersionTest]) -> dict[Version, TestPlan]:
    """Every entry's plan, from one walk over the referrals that also rejects a
    referral or boundary naming no entry, a referral cycle and an entry whose
    plan is empty.

    ``path`` holds the referral chain being walked, from its root, each link
    with the referrals it has yet to walk; it is an explicit stack (a dict,
    so a cycle is one lookup), so any depth resolves.  An entry is finished once all it refers to is: ``reached``
    keeps its pass steps, in order and each once, for its referrers to reuse.
    A root without referrals (most entries) is finished without a walk.
    """
    passes = {v: PlanStep(v, True) for v, entry in entries.items() if entry.has_payload}
    reached: dict[Version, TestPlan] = {}
    plans: dict[Version, TestPlan] = {}
    for root, entry in entries.items():
        if root in reached:
            continue
        if not entry.branching_refs:
            # Nothing to walk: the entry's own pass step, then its boundary's.
            _check_referrals(entries, root)
            boundary = entry.deprecated_ref
            own = reached[root] = (passes[root],) if root in passes else ()
            plans[root] = (own + (PlanStep(boundary, False),)
                           if boundary in passes and boundary != root else own)
            if not plans[root]:
                raise _tests_nothing(root)
            continue
        path = {root: _referrals(entries, root)}
        while path:
            v, refs = next(reversed(path.items()))
            ref = next(refs, None)
            if ref is None:
                del path[v]
                entry, own = entries[v], (passes[v],) if v in passes else ()
                # A self-reference places the entry's own test.  Each pass step
                # is one shared object, so its id() dedups it cheaply.
                found = [*chain(*(own if r == v else reached[r] for r in entry.branching_refs),
                                own)]
                steps = dict(zip(map(id, found), found))
                reached[v] = plans[v] = tuple(steps.values())
                boundary = passes.get(entry.deprecated_ref)
                if boundary is not None and id(boundary) not in steps:
                    plans[v] += (PlanStep(entry.deprecated_ref, False),)
                if not plans[v]:
                    raise _tests_nothing(v)
            elif ref in path:
                links = [*path]
                cycle = " -> ".join(render_version(x) for x in links[links.index(ref):] + [ref])
                raise ReferralCycleError(f"referral cycle: {cycle}")
            elif ref not in reached:
                path[ref] = _referrals(entries, ref)
    return plans


def _tests_nothing(v: Version) -> SchemaError:
    return SchemaError(f"entry {render_version(v)!r} tests nothing: "
                       "no challenge payload is reached through its referrals")


def _referrals(entries: dict[Version, VersionTest], v: Version) -> Iterator[Version]:
    """``v``'s referrals other than itself, checked by :func:`_check_referrals`."""
    _check_referrals(entries, v)
    return (ref for ref in entries[v].branching_refs if ref != v)


def _check_referrals(entries: dict[Version, VersionTest], v: Version) -> None:
    """A :class:`DanglingReferralError` if one of ``v``'s referrals other than
    itself or its boundary names no entry."""
    entry = entries[v]
    for ref in entry.branching_refs:
        if ref != v and ref not in entries:
            raise DanglingReferralError(
                f"entry {render_version(v)} refers to {render_version(ref)} which has no database entry"
            )
    if entry.deprecated_ref is not None and entry.deprecated_ref not in entries:
        raise DanglingReferralError(
            f"entry {render_version(v)} names deprecated boundary "
            f"{render_version(entry.deprecated_ref)} which has no database entry"
        )


def resolve_plan(db: Database, v: Version) -> TestPlan:
    """Ordered sub-tests deciding version ``v``, resolved when ``db`` was built.

    Referrals' tests come before the entry's own intrinsic test; a deprecated
    boundary comes after it, tagged expect-fail.  Only a family version
    without an entry yields an empty plan (vacuously true).
    """
    plan = db.plans.get(v)
    if plan is None:
        if v not in db.family:
            raise DatabaseError(f"version {render_version(v)} is not part of the family")
        return ()
    return plan


def fold_constraints(db: Database, observations: Iterable[tuple[Version, bool]],
                     members: int | None = None) -> int:
    """The ``members`` mask (default: the whole family) narrowed by ``(version, observed)``
    pairs: a passed intrinsic test keeps where its function is available, a failed one the rest."""
    mask = db.family.full if members is None else members
    for version, observed in observations:
        avail = db.avail_masks.get(version)
        if avail is None:
            raise ValueError(f"version {render_version(version)} has no intrinsic test to observe")
        mask = mask & avail if observed else mask & ~avail
    return mask


def plan_truth_set(db: Database, v: Version) -> int:
    """Mask of the family versions at which the full plan for ``v`` passes."""
    plan = resolve_plan(db, v)
    return fold_constraints(db, ((step.version, step.expect_pass) for step in plan))


# ---------------------------------------------------------------------------
# Strategy independence


@dataclass(frozen=True)
class IndependenceReport:
    problems: tuple[str, ...]  # always empty: a database that builds has none
    equivalence_classes: tuple[tuple[str, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def validate_strategy_independence(db: Database) -> IndependenceReport:
    """Report the family versions without an entry, whose plans are empty,
    each as an equivalence class with its nearest decided representative.

    Building ``db`` already resolved every entry's plan to payload entries'
    tests, so from any entry point a plan is concrete; ``problems`` is empty.
    """
    classes: list[tuple[str, ...]] = []
    rep = None
    for v in db.family.versions:
        # prev: the nearest family version before v that has an entry.
        prev, rep = rep, (v if v in db.entries else rep)
        if v not in db.entries:
            classes.append((render_version(prev), render_version(v)) if prev else (render_version(v),))
    return IndependenceReport((), tuple(classes))


# ---------------------------------------------------------------------------
# Serialization and authoring


def serialize_database(db: Database) -> bytes:
    """Canonical JSON form, in the layout of ``json.dumps(doc, indent=2,
    ensure_ascii=True)``; load(serialize(db)) == db."""
    versions_doc: dict[str, object] = {}
    for v in db.entry_versions:
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
            test["waittime"] = {"amount": _wait_ms(entry.wait_time), "type": "milliseconds"}
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
    return _emit(doc, "\n").encode("ascii")


_string = json.encoder.encode_basestring_ascii  # the C encoder json.dumps calls


def _emit(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, ensure_ascii=True)`` writes
    it, with ``newline`` (a line break and the current indent) opening each
    of its lines after the first.  The standard library runs its pure-Python
    encoder whenever an indent is set; this one encodes each string in C.
    Keys are strings, as in every loaded document; the value is not circular."""
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [_string(k) + ": " + _emit(v, inner) for k, v in value.items()]) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_emit(v, inner) for v in value]) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _wait_ms(seconds: float) -> float:
    """The shortest millisecond amount that loads back as ``seconds``: an
    authored ``1001`` ms is written as ``1001.0``, not as the product
    ``1000.9999999999999``."""
    ms = seconds * 1000.0
    short = round(ms, 6)
    return short if short / 1000.0 == seconds else ms


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
) -> Database:
    """Return a new database with one more entry, checked as the loader checks it."""
    parsed: dict[str, Version] = {}
    v = _parse_label(label, "new entry", parsed)
    if v in db.entries:
        raise DatabaseError(f"entry {label!r} already exists")
    test: dict[str, object] = {
        "variables": {name: _variable_doc(spec) for name, spec in (variables or {}).items()},
        "branching": {ref: "1" for ref in branching or []},
        "deprecated": deprecated,
    }
    for side, payload in (("challenge", challenge), ("expect", expect)):
        if payload is not None:
            test[side] = {"payload": payload}
    now = datetime.now(timezone.utc).isoformat(timespec="seconds")
    meta = replace(db.meta, last_update_timestamp=now)
    new = _load_entry(label, v, {"test": test}, meta, parsed, {})
    versions, index = db.family.versions, db.family.index

    def keyed(ref: Version) -> Version:
        # As after a load: a label naming a family version is the family's
        # own object, which is the entry key's, and one naming the new entry
        # is its key.
        return v if ref == v else versions[index[ref]] if ref in index else ref

    new = replace(new, branching_refs=tuple(map(keyed, new.branching_refs)),
                  deprecated_ref=None if deprecated is None else keyed(new.deprecated_ref))
    entries = {**db.entries, v: new}
    at = index.get(v)  # the new key replaces its equal in the family
    versions = versions + (v,) if at is None else versions[:at] + (v,) + versions[at + 1:]
    family = VersionSet(db.family.family_name, versions)
    return Database(meta=meta, entries=entries, family=family)
