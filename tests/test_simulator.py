import json
import re
import sys
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpaudit.simulator import (
    CACHE_MISS,
    PARSE_ERROR,
    UNKNOWN_FUNCTION,
    CacherResponder,
    HonestResponder,
    LatencyModel,
    RecordingResponder,
    SimConfigError,
    SimProviderConfig,
    load_sim_config,
    produce,
    sim_family_from_doc,
)
from fpaudit.challenge import RandomnessSource, render_test
from fpaudit.versions import parse_version as pv

from families import FIXTURES, synth_docs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import grid  # noqa: E402  (read-only: the benchmark's family generator)


def test_honest_old_version_answers_with_legacy_float(sim_family):
    responder = HonestResponder(sim_family, pv("7.1.1"))
    body = responder.evaluate(b"<?php var_dump(@unserialize('d:314159e++2;'));")
    assert body == b"float(314159)\n"


def test_honest_new_version_answers_bool_false(sim_family):
    responder = HonestResponder(sim_family, pv("7.2.14"))
    body = responder.evaluate(b"<?php var_dump(@unserialize('d:42e++2;'));")
    assert body == b"bool(false)\n"


def test_honest_deterministic(sim_family):
    responder = HonestResponder(sim_family, pv("7.2.14"))
    payload = b"<?php var_dump(api_7_0_0(123));"
    assert responder.evaluate(payload) == responder.evaluate(payload)


def test_unknown_payload_is_modeled_error_not_crash(sim_family):
    responder = HonestResponder(sim_family, pv("7.2.14"))
    assert responder.evaluate(b"<?php while(true){};") == PARSE_ERROR
    assert responder.evaluate(b"<?php nosuchfn(1);") == b"warn:unknown-function\n"


def test_syntax_floor_yields_parse_error_below_dependency(sim_family):
    old = HonestResponder(sim_family, pv("5.6.31"))
    assert old.evaluate(b"<?php var_dump(api_7_1_20(5));") == PARSE_ERROR
    mid = HonestResponder(sim_family, pv("7.0.15"))
    assert mid.evaluate(b"<?php var_dump(api_7_1_20(5));") == b"warn:undefined:api_7_1_20\n"


def test_hard_function_fidelity_over_whole_family(db, sim_family, rng):
    # For every version and every database entry, the honest answer matches
    # the expected payload exactly when the probed function is available.
    for src in sim_family.family.versions:
        responder = HonestResponder(sim_family, src)
        for tested, entry in db.entries.items():
            if not entry.has_payload:
                continue
            rt = render_test(db, tested, rng)
            matches = responder.evaluate(rt.challenge_payload) == rt.expected_payload
            assert matches == (src in db.availability[tested]), (str(src), str(tested))


def test_claim_faker_only_alters_claim(sim_family, db, rng):
    cfg = SimProviderConfig(src_version=pv("7.1.1"), behavior="claim-faker",
                            claim_label="20.9.85-car", seed=1)
    faker = produce(sim_family, cfg)
    honest = HonestResponder(sim_family, pv("7.1.1"))
    assert faker.evaluate(b"<?php phpversion();") == b"20.9.85-car"
    assert honest.evaluate(b"<?php phpversion();") == b"7.1.1"
    for tested, entry in db.entries.items():
        if not entry.has_payload:
            continue
        rt = render_test(db, tested, rng)
        assert faker.evaluate(rt.challenge_payload) == honest.evaluate(rt.challenge_payload)


def test_produce_rejects_faking_hard_function(sim_family):
    cfg = SimProviderConfig(src_version=pv("7.1.1"), behavior="function-faker",
                            fake_functions=("unserialize",))
    with pytest.raises(SimConfigError, match="unserialize"):
        produce(sim_family, cfg)


def test_function_faker_overrides_non_hard_only(sim_family):
    cfg = SimProviderConfig(src_version=pv("7.1.1"), behavior="function-faker",
                            fake_functions=("strtoupper",), seed=1)
    faker = produce(sim_family, cfg)
    assert faker.evaluate(b"<?php strtoupper('abc');") == b"faked:strtoupper\n"
    honest = HonestResponder(sim_family, pv("7.1.1"))
    payload = b"<?php var_dump(api_7_1_1(7));"
    assert faker.evaluate(payload) == honest.evaluate(payload)


def test_proxy_adds_delay_floor(sim_family):
    cfg = SimProviderConfig(src_version=pv("7.2.14"), behavior="proxy",
                            latency=LatencyModel(0.005, 0.0), proxy_floor=0.5, seed=1)
    proxy = produce(sim_family, cfg)
    body, latency = proxy.respond(b"<?php var_dump(api_7_0_0(3));")
    assert body == b"api_7_0_0:ok:3\n"
    assert latency >= 0.5


def test_cacher_replays_and_fails_closed(sim_family):
    recorder = RecordingResponder(HonestResponder(sim_family, pv("7.2.14"), seed=1))
    payload = b"<?php var_dump(api_7_0_0(3));"
    recorded, _ = recorder.respond(payload)
    cacher = CacherResponder(recorder.store, seed=2)
    assert cacher.respond(payload)[0] == recorded
    assert cacher.respond(b"<?php var_dump(api_7_0_0(4));")[0] == CACHE_MISS


def test_latency_model_sampling(sim_family):
    cfg = SimProviderConfig(src_version=pv("7.2.14"),
                            latency=LatencyModel(0.005, 0.003), seed=9)
    responder = produce(sim_family, cfg)
    for _ in range(50):
        _, latency = responder.respond(b"<?php phpversion();")
        assert 0.005 <= latency <= 0.008 + 1e-9


def test_source_must_belong_to_family(sim_family):
    with pytest.raises(SimConfigError):
        HonestResponder(sim_family, pv("9.9.9"))


SIM_BASE = {"family": {"versions": ["7.0.0", "7.2.0", "7.2.14"]},
            "functions": {"f": {"windows": [["7.2.0", None]]}}}


@pytest.mark.parametrize("section, key, value", [
    *(("functions.f", "syntax_floor", value) for value in (0, False, "", [], {})),
    *(("family", "name", value) for value in (0, False, [], {}, ["x"])),  # "" is a name
])
def test_a_falsy_value_is_a_config_error_not_an_absent_one(section, key, value):
    # Only null means absent: a falsy syntax floor used to load as none.
    doc = json.loads(json.dumps(SIM_BASE))
    node = doc
    for part in section.split("."):
        node = node[part]
    node[key] = value
    with pytest.raises(SimConfigError, match=re.escape(f"'{section}.{key}'")):
        load_sim_config(json.dumps(doc))


@pytest.mark.parametrize("seed", [None, *range(20)], ids=lambda s: "fixture" if s is None else s)
def test_function_windows_and_floors_are_the_familys_own_objects(seed):
    # Each label string is parsed once per document.
    doc = json.loads((FIXTURES / "php_like_sim_honest.json").read_text()) if seed is None \
        else synth_docs(seed)[1]
    sim = sim_family_from_doc(doc)
    family = sim.family
    ends = [end for fn in sim.functions.values() for end in (*chain(*fn.windows), fn.syntax_floor)
            if end is not None]
    assert ends and all(end is family.versions[family.index[end]] for end in ends)


def test_zero_durations_load():
    provider = {"latency": {"base_ms": 0, "jitter_ms": 0}, "proxy_floor_ms": 0}
    _, cfg = load_sim_config(json.dumps({**SIM_BASE, "provider": provider}))
    assert (cfg.latency, cfg.proxy_floor) == (LatencyModel(0.0, 0.0), 0.0)


@pytest.mark.parametrize("until", [0, False, ""], ids=["zero", "false", "empty-string"])
def test_a_falsy_window_until_is_a_config_error_not_an_open_end(until):
    # Only null leaves a window open-ended.
    doc = {"family": {"versions": ["7.2.0", "7.2.14"]},
           "functions": {"f": {"windows": [["7.2.0", until]]}}}
    with pytest.raises(SimConfigError, match="'functions.f.windows'"):
        sim_family_from_doc(doc)


# -- Availability masks --------------------------------------------------------


# The simulated seed-0 grid family of the benchmark's generator (257 versions).
GRID_SIM = sim_family_from_doc(grid.grid_docs(0).sim_doc)


def every_sim_family():
    fixture, _ = load_sim_config((FIXTURES / "php_like_sim_honest.json").read_bytes())
    return [fixture, GRID_SIM, *(sim_family_from_doc(synth_docs(seed)[1]) for seed in range(20))]


def in_windows(v, windows) -> bool:
    """The windows rule a function's availability followed before it was a mask."""
    return any(lo <= v and (hi is None or v < hi) for lo, hi in windows)


@pytest.mark.parametrize("which", ["fixture", "grid"])
@given(data=st.data())
def test_mask_inverts_windows_on_a_simulated_family(which, data):
    family = (load_sim_config((FIXTURES / "php_like_sim_honest.json").read_bytes())[0]
              if which == "fixture" else GRID_SIM).family
    mask = data.draw(st.integers(0, family.full))
    assert family.mask(family.windows(mask)) == mask


def test_every_function_mask_bit_follows_the_windows_rule():
    checked = 0
    for sim in every_sim_family():
        for name, fn in sim.functions.items():
            mask = sim.masks[name]
            assert 0 <= mask <= sim.family.full
            for i, v in enumerate(sim.family.versions):
                assert bool(mask >> i & 1) == in_windows(v, fn.windows), (name, str(v))
                checked += 1
    assert checked > 60_000


# -- HonestResponder.evaluate as it was before it read a mask bit, kept as the reference --

_CALL_RE = re.compile(rb"^(?:var_dump\()?@?([A-Za-z_][A-Za-z0-9_]*)\((.*?)\)\)?;?$")


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


def reference_evaluate(sim, src_version, claim_label, faked, payload: bytes) -> bytes:
    m = _CALL_RE.match(_strip_tags(payload))
    if not m:
        return PARSE_ERROR
    name = m.group(1).decode("ascii")
    if name in faked:
        return b"faked:" + m.group(1) + b"\n"
    arg = _unquote(m.group(2))
    fn = sim.functions.get(name)
    if fn is None:
        return UNKNOWN_FUNCTION
    if fn.syntax_floor is not None and src_version < fn.syntax_floor:
        return PARSE_ERROR
    present = in_windows(src_version, fn.windows)
    if fn.behavior == "claim":
        return claim_label.encode("utf-8")
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


def probe_payloads(sim, db, rng) -> list[bytes]:
    """Calls of every function with plain, quoted and ``d:Ne`` arguments, in
    and out of tags, every rendered test of ``db`` and a few that parse to no
    known function."""
    payloads = [b"<?php while(true){};", b"<?php nosuchfn(1);", b"", b"<?php ?>"]
    for name in sim.functions:
        fn = name.encode("ascii")
        payloads += [b"<?php var_dump(" + fn + b"(123456)); ?>", b"<?php " + fn + b"('abc');",
                     b"var_dump(@" + fn + b"('d:314159e++2;'))", b"  " + fn + b'("d:e")  ',
                     b"<?php var_dump(" + fn + b"());"]
    payloads += [render_test(db, v, rng).challenge_payload
                 for v in db.entry_versions if db.entries[v].has_payload]
    return payloads


def test_evaluate_matches_the_reference_on_every_function_and_version(db, sim_family):
    payloads = probe_payloads(sim_family, db, RandomnessSource(seed=5))
    fakeable = tuple(sorted(n for n, fn in sim_family.functions.items() if not fn.hard))
    assert fakeable
    compared = 0
    for src in sim_family.family.versions:
        for faked, claim in (((), None), (fakeable, None), ((), "99.0.0")):
            responder = HonestResponder(sim_family, src, claim_label=claim, faked=faked)
            for payload in payloads:
                want = reference_evaluate(sim_family, src, responder.claim_label, frozenset(faked),
                                          payload)
                assert responder.evaluate(payload) == want, (str(src), faked, payload)
                compared += 1
    assert compared > 5_000


_SPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
_PIECES = _SPACE | st.sampled_from([b"<?php", b"?>", b"'", b'"', b"(", b")", b"@", b"var_dump(",
                                    b";", b"x", b"aB", b"d:12e", b"strtoupper", b"?", b">"])


def _optional(token: bytes):
    return st.sampled_from([token, b""])


def _run(pieces, max_size: int):
    return st.lists(pieces, max_size=max_size).map(b"".join)


# Payloads shaped like a call, with an argument that may be quoted, and free-form ones.
_ARGUMENT = _run(_SPACE | st.sampled_from([b"'", b'"', b"x", b"aB", b")", b";"]), 3)
_CALL_LIKE = st.tuples(
    _run(_SPACE, 2), _optional(b"<?php"), _run(_SPACE, 2), _optional(b"var_dump("), _optional(b"@"),
    st.sampled_from([b"strtoupper", b"api_7_1_1", b"phpversion", b"unserialize", b"nosuchfn"]),
    _optional(b"("), _run(_SPACE, 2), st.sampled_from([b"'", b'"', b""]), _ARGUMENT,
    st.sampled_from([b"'", b'"', b""]), _run(_SPACE, 2), _optional(b")"), _optional(b")"),
    _optional(b";"), _run(_SPACE, 2), _optional(b"?>"), _run(_SPACE, 2)).map(b"".join)


@settings(max_examples=300)
@given(payload=_CALL_LIKE | _run(_PIECES, 12))
def test_evaluate_parses_each_payload_as_the_reference_does(sim_family, payload):
    for faked in ((), ("strtoupper",)):
        responder = HonestResponder(sim_family, pv("7.2.14"), faked=faked)
        want = reference_evaluate(sim_family, responder.src_version, responder.claim_label,
                                  frozenset(faked), payload)
        assert responder.evaluate(payload) == want, payload
