"""Simulated software provider with a version-indexed function set.

The simulated family evaluates small PHP-flavored payloads of the shape
``<?php var_dump(fn(arg)); ?>``.  Each named function carries availability
windows over the family's versions, which :class:`SimFamily` turns into a
version mask once, when it is built (``VersionSet.mask``); a responder keeps
its source version's bit, so whether a function is available to it is one
bit test.  Functions flagged simulation-hard are the ones a rational
provider cannot fake, and the simulator enforces that boundary by rejecting
any configuration that tries.

Provider behaviors:

* ``honest``          evaluates with exactly the functions of its source version;
* ``claim-faker``     honest, except the version-claim output is replaced;
* ``cacher``          replays recorded (challenge -> response) pairs, failing
                      closed on every miss;
* ``proxy``           honest, with a fixed forwarding delay added to the
                      simulated latency of every exchange;
* ``function-faker``  honest, with selected non-hard functions overridden.

Every behavior but the cacher is one :class:`HonestResponder`: a proxy is
a latency offset and a function-faker a set of overridden functions.

Latency is simulated as a number attached to each response, never slept.

A config document is read by the database loader's field rules, so ``null``
is the only absent value and latencies are finite and not negative; a
malformed one is a :class:`SimConfigError` naming the key.
"""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass, field

from .database import SchemaError, _checked, _field, _number, _parse_label, _windows
from .versions import Version, VersionSet, render_version

PARSE_ERROR = b"parse error\n"
UNKNOWN_FUNCTION = b"warn:unknown-function\n"
CACHE_MISS = b"err:cache-miss\n"

# The tags, the call and its argument, unquoted when one kind of quote
# encloses it, in one pass; the argument never spans a line.
_CALL_RE = re.compile(rb"\s*(?:<\?php)?\s*(?:var_dump\()?@?([A-Za-z_][A-Za-z0-9_]*)"
                      rb"\([^\S\n]*(?:(['\"])(.*?)\2|(.*?))[^\S\n]*\)\)?;?\s*(?:\?>)?\s*\Z")

BEHAVIOR_KINDS = {"echo-ok", "strict-bool", "claim", "upper"}
PROVIDER_BEHAVIORS = ("honest", "claim-faker", "cacher", "proxy", "function-faker")


class SimConfigError(ValueError):
    pass


@dataclass(frozen=True)
class FunctionSpec:
    name: str
    windows: tuple[tuple[Version, Version | None], ...]
    hard: bool
    behavior: str
    syntax_floor: Version | None = None  # below this the payload cannot even parse


@dataclass(frozen=True)
class SimFamily:
    """Functions over a family; construction turns each function's windows
    into the mask of the family versions where it is available (see
    ``VersionSet``), so an answer reads one bit."""

    family: VersionSet
    functions: dict[str, FunctionSpec]
    masks: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "masks", {name: self.family.mask(fn.windows)
                                           for name, fn in self.functions.items()})


@dataclass(frozen=True)
class LatencyModel:
    base: float = 0.005  # seconds
    jitter: float = 0.003

    def sample(self, rng: random.Random) -> float:
        return self.base + (rng.uniform(0.0, self.jitter) if self.jitter > 0 else 0.0)


@dataclass(frozen=True)
class SimProviderConfig:
    src_version: Version
    behavior: str = "honest"
    claim_label: str | None = None
    latency: LatencyModel = field(default_factory=LatencyModel)
    proxy_floor: float = 0.5
    fake_functions: tuple[str, ...] = ()
    cache_store: dict[bytes, bytes] | None = None
    seed: int | None = None


class HonestResponder:
    """Evaluates payloads with the function set of one family version,
    except that each function named in ``faked`` answers ``faked:<name>``;
    simulation-hard functions are out of reach."""

    def __init__(self, sim: SimFamily, src_version: Version,
                 claim_label: str | None = None,
                 latency: LatencyModel = LatencyModel(),
                 faked: tuple[str, ...] = (),
                 seed: int | None = None):
        for name in faked:
            fn = sim.functions.get(name)
            if fn is None:
                raise SimConfigError(f"cannot fake unknown function {name!r}")
            if fn.hard:
                raise SimConfigError(f"cannot fake simulation-hard function {name!r}")
        if src_version not in sim.family:
            raise SimConfigError(f"source version {render_version(src_version)} is not in the family")
        self.sim = sim
        self.src_version = src_version
        self._bit = 1 << sim.family.index[src_version]
        self.claim_label = claim_label if claim_label is not None else render_version(src_version)
        self.latency = latency
        self.faked = frozenset(faked)
        self._rng = random.Random(seed)

    def respond(self, payload: bytes) -> tuple[bytes, float]:
        return self.evaluate(payload), self.latency.sample(self._rng)

    def evaluate(self, payload: bytes) -> bytes:
        m = _CALL_RE.match(payload)
        if not m:
            return PARSE_ERROR
        name = m.group(1).decode("ascii")
        if name in self.faked:
            return b"faked:" + m.group(1) + b"\n"
        arg = m.group(4) if m.group(2) is None else m.group(3)
        fn = self.sim.functions.get(name)
        if fn is None:
            return UNKNOWN_FUNCTION
        if fn.syntax_floor is not None and self.src_version < fn.syntax_floor:
            return PARSE_ERROR
        return _evaluate_behavior(fn, arg, bool(self.sim.masks[name] & self._bit), self.claim_label)


def _evaluate_behavior(fn: FunctionSpec, arg: bytes, present: bool, claim: str) -> bytes:
    if fn.behavior == "claim":
        return claim.encode("utf-8")
    if fn.behavior == "upper":
        return arg.upper() + b"\n"
    if fn.behavior == "echo-ok":
        if present:
            return fn.name.encode("ascii") + b":ok:" + arg + b"\n"
        return b"warn:undefined:" + fn.name.encode("ascii") + b"\n"
    if fn.behavior == "strict-bool":
        if present:
            return b"bool(false)\n"
        digits = re.match(rb"d:(\d+)e", arg)
        return b"float(" + (digits.group(1) if digits else b"0") + b")\n"
    raise SimConfigError(f"unknown behavior {fn.behavior!r} for function {fn.name!r}")


class CacherResponder:
    """Replays a recorded transcript and fails closed on unseen challenges."""

    def __init__(self, store: dict[bytes, bytes],
                 latency: LatencyModel = LatencyModel(), seed: int | None = None):
        self.store = dict(store)
        self.latency = latency
        self._rng = random.Random(seed)

    def respond(self, payload: bytes) -> tuple[bytes, float]:
        return self.store.get(payload, CACHE_MISS), self.latency.sample(self._rng)


class RecordingResponder:
    """Wraps a responder and records every (challenge, response) pair."""

    def __init__(self, inner):
        self.inner = inner
        self.store: dict[bytes, bytes] = {}

    def respond(self, payload: bytes) -> tuple[bytes, float]:
        body, latency = self.inner.respond(payload)
        self.store[payload] = body
        return body, latency


def produce(sim: SimFamily, cfg: SimProviderConfig):
    """Build the challenge-facing responder for a provider configuration."""
    if cfg.behavior == "cacher":
        return CacherResponder(cfg.cache_store or {}, latency=cfg.latency, seed=cfg.seed)
    if cfg.behavior not in PROVIDER_BEHAVIORS:
        raise SimConfigError(f"unknown provider behavior {cfg.behavior!r}")
    if cfg.behavior == "claim-faker" and not cfg.claim_label:
        raise SimConfigError("claim-faker needs a claim label")
    latency = cfg.latency
    if cfg.behavior == "proxy":
        latency = LatencyModel(latency.base + cfg.proxy_floor, latency.jitter)
    # Only the claim-faker alters the version-claim output.
    claim = cfg.claim_label if cfg.behavior == "claim-faker" else None
    faked = cfg.fake_functions if cfg.behavior == "function-faker" else ()
    return HonestResponder(sim, cfg.src_version, claim_label=claim, latency=latency,
                           faked=faked, seed=cfg.seed)


# ---------------------------------------------------------------------------
# Config file form


def _config_errors(load):
    """``load`` with the shared field readers' errors raised as :class:`SimConfigError`."""
    @functools.wraps(load)
    def wrapper(document):
        try:
            return load(document)
        except SchemaError as exc:
            raise SimConfigError(str(exc)) from None
    return wrapper


@_config_errors
def load_sim_config(document: bytes | str) -> tuple[SimFamily, SimProviderConfig]:
    """Simulated family and provider of a config document; a malformed one is
    a :class:`SimConfigError` naming the key."""
    try:
        doc = json.loads(document)
    except ValueError as exc:  # also undecodable bytes
        raise SimConfigError(f"simulator config is not valid JSON: {exc}") from exc
    family = doc.get("family") if isinstance(doc, dict) else None
    if not isinstance(family, dict) or not isinstance(family.get("versions"), list) \
            or not family["versions"]:
        raise SimConfigError("simulator config: missing 'family' object with a 'versions' list")
    sim = sim_family_from_doc(doc)
    provider = _field(doc, "provider", dict, "an object", "'provider'", {})
    behavior = _field(provider, "behavior", str, "a string", "'provider.behavior'", "honest")
    if behavior not in PROVIDER_BEHAVIORS:
        raise SimConfigError(f"'provider.behavior': unknown behavior {behavior!r}")
    latency = _field(provider, "latency", dict, "an object", "'provider.latency'", {})
    fake_functions = _field(provider, "fake_functions", list, "a list of names",
                            "'provider.fake_functions'", [])
    if not all(isinstance(f, str) for f in fake_functions):
        raise SimConfigError(f"'provider.fake_functions' must be a list of names, got {fake_functions!r}")
    source = _field(provider, "source", str, "a version label", "'provider.source'",
                    family["versions"][-1])
    cfg = SimProviderConfig(
        src_version=_parse_label(source, "'provider.source'", {}),
        behavior=behavior,
        claim_label=_field(provider, "claim", str, "a string", "'provider.claim'"),
        latency=LatencyModel(
            base=_number(latency, "base_ms", "'provider.latency.base_ms'", 5.0) / 1000.0,
            jitter=_number(latency, "jitter_ms", "'provider.latency.jitter_ms'", 3.0) / 1000.0),
        proxy_floor=_number(provider, "proxy_floor_ms", "'provider.proxy_floor_ms'", 500.0) / 1000.0,
        fake_functions=tuple(fake_functions),
        seed=_field(provider, "seed", int, "an integer", "'provider.seed'"),
    )
    return sim, cfg


@_config_errors
def sim_family_from_doc(doc: dict) -> SimFamily:
    """The simulated family of a config document; a malformed one is a
    :class:`SimConfigError` naming the key."""
    fam_doc = doc["family"]
    # Each distinct label string is parsed once, so a function's windows and
    # syntax floor in a family label's spelling are the family's own objects.
    parsed: dict[str, Version] = {}
    versions = tuple(_parse_label(x, "'family.versions'", parsed) for x in fam_doc["versions"])
    family_name = _field(fam_doc, "name", str, "a string", "'family.name'", "sim")
    try:
        family = VersionSet(family_name, versions)
    except ValueError as exc:
        raise SimConfigError(f"'family.versions': {exc}") from None
    functions: dict[str, FunctionSpec] = {}
    for name, fdoc in _field(doc, "functions", dict, "an object", "'functions'", {}).items():
        at = f"functions.{name}"
        _checked(fdoc, dict, "an object", f"'{at}'")
        windows, floor = fdoc.get("windows"), fdoc.get("syntax_floor")
        behavior = _field(fdoc, "behavior", str, "a string", f"'{at}.behavior'", "echo-ok")
        if behavior not in BEHAVIOR_KINDS:
            raise SimConfigError(f"function {name!r}: unknown behavior {behavior!r}")
        functions[name] = FunctionSpec(
            name=name,
            windows=() if windows is None else _windows(windows, f"'{at}.windows'", parsed),
            hard=_field(fdoc, "hard", bool, "a boolean", f"'{at}.hard'", True),
            behavior=behavior,
            syntax_floor=(None if floor is None
                          else _parse_label(floor, f"'{at}.syntax_floor'", parsed)),
        )
    return SimFamily(family=family, functions=functions)
