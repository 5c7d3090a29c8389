"""Simulated software provider with a version-indexed function set.

The simulated family evaluates small PHP-flavored payloads of the shape
``<?php var_dump(fn(arg)); ?>``.  Each named function carries availability
windows over the family's versions; functions flagged simulation-hard are
the ones a rational provider cannot fake, and the simulator enforces that
boundary by rejecting any configuration that tries.

Provider behaviors:

* ``honest``          evaluates with exactly the functions of its source version;
* ``claim-faker``     honest, except the version-claim output is replaced;
* ``cacher``          replays recorded (challenge -> response) pairs, failing
                      closed on every miss;
* ``proxy``           honest answers with a fixed extra delay on every exchange;
* ``function-faker``  honest, with selected non-hard functions overridden.

Latency is simulated as a number attached to each response, never slept.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field

from .versions import Version, VersionSet, parse_version, render_version

PARSE_ERROR = b"parse error\n"
UNKNOWN_FUNCTION = b"warn:unknown-function\n"
CACHE_MISS = b"err:cache-miss\n"

_CALL_RE = re.compile(rb"^(?:var_dump\()?@?([A-Za-z_][A-Za-z0-9_]*)\((.*?)\)\)?;?$")

BEHAVIOR_KINDS = {"echo-ok", "strict-bool", "claim", "upper"}


class SimConfigError(ValueError):
    pass


@dataclass(frozen=True)
class FunctionSpec:
    name: str
    windows: tuple[tuple[Version, Version | None], ...]
    hard: bool
    behavior: str
    syntax_floor: Version | None = None  # below this the payload cannot even parse

    def available(self, v: Version) -> bool:
        return any(lo <= v and (hi is None or v < hi) for lo, hi in self.windows)


@dataclass(frozen=True)
class SimFamily:
    family: VersionSet
    functions: dict[str, FunctionSpec]


@dataclass(frozen=True)
class LatencyModel:
    base: float = 0.005  # seconds
    jitter: float = 0.003
    floor: float = 0.0  # additive, used by the proxy behavior

    def sample(self, rng: random.Random) -> float:
        return self.base + (rng.uniform(0.0, self.jitter) if self.jitter > 0 else 0.0) + self.floor


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


def _strip_tags(payload: bytes) -> bytes:
    body = payload.strip()
    if body.startswith(b"<?php"):
        body = body[len(b"<?php"):]
    if body.endswith(b"?>"):
        body = body[: -len(b"?>")]
    return body.strip()


def _unquote(arg: bytes) -> bytes:
    arg = arg.strip()
    if len(arg) >= 2 and arg[:1] in (b"'", b'"') and arg[-1:] == arg[:1]:
        return arg[1:-1]
    return arg


class HonestResponder:
    """Evaluates payloads with the function set of one family version."""

    def __init__(self, sim: SimFamily, src_version: Version,
                 claim_label: str | None = None,
                 latency: LatencyModel = LatencyModel(),
                 seed: int | None = None):
        if src_version not in sim.family:
            raise SimConfigError(f"source version {render_version(src_version)} is not in the family")
        self.sim = sim
        self.src_version = src_version
        self.claim_label = claim_label if claim_label is not None else render_version(src_version)
        self.latency = latency
        self._rng = random.Random(seed)

    def respond(self, payload: bytes) -> tuple[bytes, float]:
        return self.evaluate(payload), self.latency.sample(self._rng)

    def evaluate(self, payload: bytes) -> bytes:
        m = _CALL_RE.match(_strip_tags(payload))
        if not m:
            return PARSE_ERROR
        name = m.group(1).decode("ascii")
        arg = _unquote(m.group(2))
        fn = self.sim.functions.get(name)
        if fn is None:
            return UNKNOWN_FUNCTION
        if fn.syntax_floor is not None and self.src_version < fn.syntax_floor:
            return PARSE_ERROR
        return _evaluate_behavior(fn, arg, self.src_version, self.claim_label)


def _evaluate_behavior(fn: FunctionSpec, arg: bytes, v: Version, claim: str) -> bytes:
    present = fn.available(v)
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


class ProxyResponder:
    """Forwards to an honest upstream; every answer pays the forwarding delay."""

    def __init__(self, upstream: HonestResponder, floor: float):
        self.upstream = upstream
        self.floor = floor

    def respond(self, payload: bytes) -> tuple[bytes, float]:
        body, latency = self.upstream.respond(payload)
        return body, latency + self.floor


class FunctionFakerResponder(HonestResponder):
    """Overrides selected functions; hard functions are out of reach."""

    def __init__(self, sim: SimFamily, src_version: Version, faked: tuple[str, ...], **kw):
        for name in faked:
            fn = sim.functions.get(name)
            if fn is None:
                raise SimConfigError(f"cannot fake unknown function {name!r}")
            if fn.hard:
                raise SimConfigError(f"cannot fake simulation-hard function {name!r}")
        super().__init__(sim, src_version, **kw)
        self.faked = set(faked)

    def evaluate(self, payload: bytes) -> bytes:
        m = _CALL_RE.match(_strip_tags(payload))
        if m and m.group(1).decode("ascii") in self.faked:
            return b"faked:" + m.group(1) + b"\n"
        return super().evaluate(payload)


def produce(sim: SimFamily, cfg: SimProviderConfig):
    """Build the challenge-facing responder for a provider configuration."""
    if cfg.behavior == "honest":
        return HonestResponder(sim, cfg.src_version, latency=cfg.latency, seed=cfg.seed)
    if cfg.behavior == "claim-faker":
        if not cfg.claim_label:
            raise SimConfigError("claim-faker needs a claim label")
        # Only the version-claim output is altered; every other function is genuine.
        return HonestResponder(sim, cfg.src_version, claim_label=cfg.claim_label,
                               latency=cfg.latency, seed=cfg.seed)
    if cfg.behavior == "cacher":
        return CacherResponder(cfg.cache_store or {}, latency=cfg.latency, seed=cfg.seed)
    if cfg.behavior == "proxy":
        upstream = HonestResponder(sim, cfg.src_version, latency=cfg.latency, seed=cfg.seed)
        return ProxyResponder(upstream, cfg.proxy_floor)
    if cfg.behavior == "function-faker":
        return FunctionFakerResponder(sim, cfg.src_version, cfg.fake_functions,
                                      latency=cfg.latency, seed=cfg.seed)
    raise SimConfigError(f"unknown provider behavior {cfg.behavior!r}")


# ---------------------------------------------------------------------------
# Config file form


def load_sim_config(document: bytes | str) -> tuple[SimFamily, SimProviderConfig]:
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    doc = json.loads(document)
    sim = sim_family_from_doc(doc)
    provider = doc.get("provider", {})
    latency_doc = provider.get("latency", {})
    latency = LatencyModel(
        base=float(latency_doc.get("base_ms", 5.0)) / 1000.0,
        jitter=float(latency_doc.get("jitter_ms", 3.0)) / 1000.0,
    )
    cfg = SimProviderConfig(
        src_version=parse_version(provider.get("source", doc["family"]["versions"][-1])),
        behavior=provider.get("behavior", "honest"),
        claim_label=provider.get("claim"),
        latency=latency,
        proxy_floor=float(provider.get("proxy_floor_ms", 500.0)) / 1000.0,
        fake_functions=tuple(provider.get("fake_functions", [])),
        seed=provider.get("seed"),
    )
    return sim, cfg


def sim_family_from_doc(doc: dict) -> SimFamily:
    fam_doc = doc["family"]
    family = VersionSet(fam_doc.get("name", "sim"), tuple(parse_version(x) for x in fam_doc["versions"]))
    functions: dict[str, FunctionSpec] = {}
    for name, fdoc in doc.get("functions", {}).items():
        windows = tuple(
            (parse_version(lo), parse_version(hi) if hi else None)
            for lo, hi in fdoc.get("windows", [])
        )
        behavior = fdoc.get("behavior", "echo-ok")
        if behavior not in BEHAVIOR_KINDS:
            raise SimConfigError(f"function {name!r}: unknown behavior {behavior!r}")
        functions[name] = FunctionSpec(
            name=name,
            windows=windows,
            hard=bool(fdoc.get("hard", True)),
            behavior=behavior,
            syntax_floor=parse_version(fdoc["syntax_floor"]) if fdoc.get("syntax_floor") else None,
        )
    return SimFamily(family=family, functions=functions)


def sim_family_to_doc(sim: SimFamily, provider: dict | None = None) -> dict:
    doc: dict = {
        "family": {"name": sim.family.family_name, "versions": sim.family.labels()},
        "functions": {
            name: {
                "windows": [[render_version(lo), render_version(hi) if hi else None]
                            for lo, hi in fn.windows],
                "hard": fn.hard,
                "behavior": fn.behavior,
                **({"syntax_floor": render_version(fn.syntax_floor)} if fn.syntax_floor else {}),
            }
            for name, fn in sim.functions.items()
        },
    }
    if provider:
        doc["provider"] = provider
    return doc
