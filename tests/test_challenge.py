import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpaudit.challenge import (
    RandomnessSource,
    RenderError,
    draw,
    judge,
    render,
    render_test,
)
from fpaudit.database import (Tags, VariableSpec, VersionTest, add_entry, load_database,
                              new_database, serialize_database)
from fpaudit.versions import parse_version as pv


def render_one(template: bytes, values: dict[str, bytes], tags: Tags = Tags()) -> bytes:
    """``template`` rendered through an entry that uses it on both sides."""
    entry = VersionTest(pv("1.0.0"), challenge_template=template, expect_template=template,
                        challenge_tags=tags, expect_tags=tags)
    challenge, expected = render(entry, values)
    assert challenge == expected
    return challenge


def test_draw_integer_within_range(rng):
    spec = VariableSpec("ax", "integer", min=1, max=999999999)
    for _ in range(200):
        value = draw(spec, rng)
        assert value == b"%d" % int(value) and 1 <= int(value) <= 999999999


def test_draw_degenerate_range(rng):
    spec = VariableSpec("ax", "integer", min=5, max=5)
    assert draw(spec, rng) == b"5"


def test_draw_collision_rate_matches_range():
    # Monte-Carlo: over 10^4 paired draws from a ~1e9 range, collisions
    # should be rare (expected count well below one).
    spec = VariableSpec("ax", "integer", min=1, max=999999999)
    rng = RandomnessSource(seed=7)
    collisions = sum(draw(spec, rng) == draw(spec, rng) for _ in range(10_000))
    assert collisions <= 2


@pytest.mark.parametrize("lo,hi", [(5, 5), (-7, 3), (-2**40, -2**40 + 9), (0, 1), (1, 999999999)])
def test_seeded_randint_draws_what_random_randint_draws(lo, hi):
    for seed in (0, 1, 1234, 2**31 - 1):
        ours, theirs = RandomnessSource(seed), random.Random(seed)
        assert [ours.randint(lo, hi) for _ in range(50)] == \
            [theirs.randint(lo, hi) for _ in range(50)], (seed, lo, hi)


def test_seeded_choice_and_bytes_draw_what_random_randrange_draws():
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    for seed in (0, 1, 1234):
        ours, theirs = RandomnessSource(seed), random.Random(seed)
        assert [ours.choice(alphabet) for _ in range(50)] == \
            [alphabet[theirs.randrange(len(alphabet))] for _ in range(50)]
        assert ours.randbytes(40) == bytes(theirs.randrange(256) for _ in range(40))
        assert ours.choice("x") == "x" and theirs.randrange(1) == 0  # both still draw a bit
        assert ours.randint(1, 999999999) == theirs.randint(1, 999999999)


@pytest.mark.parametrize("lo,hi", [(1, 0), (5, -5)])
def test_an_empty_randint_range_is_an_error(lo, hi):
    with pytest.raises(ValueError, match="empty range"):
        RandomnessSource(1).randint(lo, hi)


# What render_test gives the entry of every variable format for seeds 0-4.
_EVERY_FORMAT_RENDERS = [
    (b"<?php f(1,0cq65z,9bf4b76f,1.0.0,sigq8jtg/ev49gw1u.txt);",
     b"sigq8jtg/ev49gw1u.txt|1.0.0|9bf4b76f|0cq65z|1\n"),
    (b"<?php f(-3,eqh524,c26b30f9,1.0.0,y1a2rogu/bbb8ayn1.txt);",
     b"y1a2rogu/bbb8ayn1.txt|1.0.0|c26b30f9|eqh524|-3\n"),
    (b"<?php f(-5,ffxktq,6c1251dc,1.0.0,6x826rcb/x3uy17k9.txt);",
     b"6x826rcb/x3uy17k9.txt|1.0.0|6c1251dc|ffxktq|-5\n"),
    (b"<?php f(-2,8ix4ea,f0847762,1.0.0,894zjoj7/yaekctbr.txt);",
     b"894zjoj7/yaekctbr.txt|1.0.0|f0847762|8ix4ea|-2\n"),
    (b"<?php f(-2,tgz4jf,220acd94,1.0.0,o78xrlgq/nbqrmkts.txt);",
     b"o78xrlgq/nbqrmkts.txt|1.0.0|220acd94|tgz4jf|-2\n"),
]


@pytest.mark.parametrize("seed", range(5))
def test_render_test_of_every_format_renders_pinned_bytes(seed):
    db = add_entry(
        new_database("svc"), "1.0.0", challenge="f(#ix#,#sx#,#bx#,#vx#,#dx#);",
        expect="#dx#|#vx#|#bx#|#sx#|#ix#\n",
        variables={"ix": VariableSpec("ix", "integer", min=-5, max=5),
                   "sx": VariableSpec("sx", "string", length=6),
                   "bx": VariableSpec("bx", "binary", length=4),
                   "vx": VariableSpec("vx", "version"),
                   "dx": VariableSpec("dx", "dir-file")})
    challenge, expected = _EVERY_FORMAT_RENDERS[seed]
    assert render_test(db, pv("1.0.0"), RandomnessSource(seed)) == (challenge, expected, 0.2)


def test_draw_string_and_binary_lengths(rng):
    s = draw(VariableSpec("sx", "string", length=12), rng)
    assert len(s) == 12 and all(c in b"abcdefghijklmnopqrstuvwxyz0123456789" for c in s)
    b = draw(VariableSpec("bx", "binary", length=8), rng)
    assert len(b) == 16 and bytes.fromhex(b.decode()).hex().encode() == b


def test_draw_version_from_family(db, rng):
    spec = VariableSpec("vx", "version")
    assert pv(draw(spec, rng, db.family).decode()) in db.family


def test_draw_dir_file_relative_path(rng):
    path = draw(VariableSpec("dx", "dir-file"), rng)
    assert b"/" in path and not path.startswith(b"/")


def test_render_listing_style_substitution():
    # Oracle: plain string replacement.
    out = render_one(b"d:#ax#e++2;", {"ax": b"314159"})
    assert out == b"d:314159e++2;"


def test_render_without_placeholders_unchanged():
    assert render_one(b"no placeholders here", {}) == b"no placeholders here"


def test_render_adjacent_placeholders():
    # Oracle: sequential scan-replace.
    assert render_one(b"#a##b#", {"a": b"x", "b": b"y"}) == b"xy"


def test_render_unbound_placeholder_named():
    with pytest.raises(RenderError, match="#ax#"):
        render_one(b"d:#ax#;", {})


def test_render_literal_hash_passes_through():
    assert render_one(b"a # b #NOT-AN-IDENT# c", {}) == b"a # b #NOT-AN-IDENT# c"


def test_render_applies_tags():
    tags = Tags(b"<?php ", b" ?>")
    assert render_one(b"f(#ax#);", {"ax": b"1"}, tags) == b"<?php f(1); ?>"


@given(st.integers(1, 10**9), st.integers(1, 10**9))
def test_render_deterministic(a, b):
    values = {"ax": b"%d" % a, "bx": b"%d" % b}
    t = b"x=#ax#,y=#bx#,x=#ax#"
    assert render_one(t, values) == render_one(t, values)


# Reference for the compiled render: regex substitution over the raw
# template, then the tags around it.
_REFERENCE_RE = re.compile(rb"#([a-z0-9_]+)#")


def reference_render(template: bytes, values: dict[str, bytes], tags: Tags) -> bytes:
    def sub(match: re.Match) -> bytes:
        name = match.group(1).decode("ascii")
        if name not in values:
            raise RenderError(f"unbound placeholder #{name}#")
        return values[name]

    return tags.start + _REFERENCE_RE.sub(sub, template) + tags.end


_NAMES = ("a", "b", "ax", "x_1")
_CHUNKS = st.sampled_from([b"#", b"##", b"a", b"ax", b"A", b"AX", b"_", b" ", b"%s", b"\\1",
                           b"#a#", b"#b#", b"#ax#", b"#x_1#", b"#A#", b"#AX#", b"#zz#",
                           b"#a##b#", b"#a#b#", b"#ax#a#"]) | st.binary(max_size=3)
_TAGS = st.builds(Tags, st.binary(max_size=4) | st.just(b"#a#"), st.binary(max_size=4))
_VALUES = (st.integers().map(b"%d".__mod__) | st.text(max_size=4).map(str.encode)
           | st.binary(max_size=3) | st.just(b"#b#") | st.just(b"%s"))


@given(st.lists(_CHUNKS, max_size=8).map(b"".join), _TAGS,
       st.dictionaries(st.sampled_from(_NAMES), _VALUES))
def test_compiled_render_matches_regex_substitution(template, tags, values):
    try:
        expected = reference_render(template, values, tags)
    except RenderError as exc:
        # A name the values lack is named, as the reference names it.
        with pytest.raises(RenderError, match=re.escape(str(exc))):
            render_one(template, values, tags)
    else:
        assert render_one(template, values, tags) == expected


def test_authored_and_reloaded_entries_render_identically():
    db = add_entry(new_database("svc"), "1.0.0", challenge="f(#ax#, '#sx#');# #AX#",
                   expect="#ax##sx#\n",
                   variables={"ax": VariableSpec("ax", "integer", min=1, max=10**9),
                              "sx": VariableSpec("sx", "string", length=6)})
    again = load_database(serialize_database(db))
    assert again == db
    for seed in range(5):
        authored = render_test(db, pv("1.0.0"), RandomnessSource(seed=seed))
        reloaded = render_test(again, pv("1.0.0"), RandomnessSource(seed=seed))
        assert authored == reloaded
        assert authored.challenge_payload.startswith(b"<?php f(")


def test_render_test_no_residual_placeholders(db, rng):
    rt = render_test(db, pv("7.2.0"), rng)
    assert b"#ax#" not in rt.challenge_payload
    assert rt.challenge_payload.startswith(b"<?php ")
    assert rt.expected_payload == b"bool(false)\n"
    assert rt.deadline == pytest.approx(0.2)


def test_judge_pass_within_deadline():
    assert judge(b"bool(false)\n", b"bool(false)\n", 0.120, 0.200).delta is True


def test_judge_deadline_is_inclusive():
    assert judge(b"x", b"x", 0.200, 0.200).delta is True


def test_judge_late_response_is_timeout():
    result = judge(b"x", b"x", 0.201, 0.200)
    assert result.delta is False and result.reason == "timeout"


def test_judge_absent_response_always_false():
    for elapsed in (0.0, 0.1, 5.0):
        result = judge(None, b"x", elapsed, 0.2)
        assert result.delta is False and result.reason == "timeout"


def test_judge_mismatch_reason():
    result = judge(b"y", b"x", 0.1, 0.2)
    assert result.delta is False and result.reason == "mismatch"


def test_judge_transport_error_reason():
    result = judge(None, b"x", 0.0, 0.2, transport_error="auth")
    assert result.delta is False and result.reason == "transport-error"


def test_rendered_challenges_rarely_collide(db):
    # Two independent renders of the same entry are distinct with
    # overwhelming probability over a ~1e9 randomness range.
    rng = RandomnessSource(seed=21)
    payloads = {render_test(db, pv("7.2.0"), rng).challenge_payload for _ in range(500)}
    assert len(payloads) >= 499
