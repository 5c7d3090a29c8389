import copy
import pickle
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpaudit.versions import (
    PreRelease,
    Version,
    VersionParseError,
    VersionSet,
    branch_origin,
    parse_version,
    render_version,
)


def test_parse_plain_triple():
    v = parse_version("7.1.1")
    assert (v.major, v.minor, v.patch, v.pre) == (7, 1, 1, None)


def test_parse_release_candidate():
    v = parse_version("7.3.0rc5")
    assert (v.major, v.minor, v.patch) == (7, 3, 0)
    assert v.pre.stage == "rc" and v.pre.ordinal == 5


def test_parse_zero():
    assert parse_version("0.0.0") == Version(0, 0, 0)


def test_parse_defaults_missing_components():
    assert parse_version("5") == Version(5, 0, 0)
    assert parse_version("7.2") == Version(7, 2, 0)


def test_parse_beta_without_patch():
    v = parse_version("4.0b1")
    assert (v.major, v.minor, v.patch) == (4, 0, 0)
    assert v.pre.stage == "b" and v.pre.ordinal == 1
    assert render_version(v) == "4.0.0b1"


def test_parse_extra_suffix_kept_raw_ignored_for_order():
    v = parse_version("20.9.85-car")
    assert (v.major, v.minor, v.patch) == (20, 9, 85)
    assert v.raw == "20.9.85-car"
    assert v == parse_version("20.9.85")


def test_parse_malformed_label_names_it():
    with pytest.raises(VersionParseError, match="garbage"):
        parse_version("garbage")
    with pytest.raises(VersionParseError):
        parse_version("")


_REFERENCE_LABEL_RE = re.compile(
    r"""^
    (?P<major>\d+)
    (?:\.(?P<minor>\d+))?
    (?:\.(?P<patch>\d+))?
    (?P<pre>(?:b|rc)\d+)?
    (?P<suffix>-[0-9A-Za-z.\-]+)?
    $""",
    re.VERBOSE,
)


def reference_parse_version(label: str) -> Version:
    """The parser as it read each field with its own ``m.group`` call."""
    if not label:
        raise VersionParseError("empty version label")
    m = _REFERENCE_LABEL_RE.match(label.strip())
    if not m:
        raise VersionParseError(f"malformed version label: {label!r}")
    pre = None
    if m.group("pre"):
        stage = "rc" if m.group("pre").startswith("rc") else "b"
        pre = PreRelease(stage, int(m.group("pre")[len(stage):]))
    return Version(
        major=int(m.group("major")),
        minor=int(m.group("minor") or 0),
        patch=int(m.group("patch") or 0),
        pre=pre,
        raw=label.strip(),
    )


_NUMBER = st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(["007", "00", "\u0663"]))
_WELL_FORMED = st.tuples(
    _NUMBER,
    st.just("") | _NUMBER.map(".{}".format),
    st.just("") | _NUMBER.map(".{}".format),
    st.just("") | st.tuples(st.sampled_from(["b", "rc"]), _NUMBER).map("".join),
    st.just("") | st.from_regex(r"-[0-9A-Za-z.\-]{1,6}", fullmatch=True),
).map("".join)
_SPACE = st.sampled_from(["", " ", "\t", "\n", " \r\n "])


def _with_stray(label_at_char: tuple[str, int, str]) -> str:
    label, at, char = label_at_char
    return label[:at] + char + label[at:]


_LABELS = st.one_of(
    st.tuples(_SPACE, _WELL_FORMED, _SPACE).map("".join),
    # one stray character, anywhere: mostly malformed labels
    st.tuples(_WELL_FORMED, st.integers(0, 30),
              st.sampled_from("x.-_+ rcb0\n\x00é")).map(_with_stray),
    st.text(max_size=12),
)


@given(_LABELS)
def test_parse_version_agrees_with_the_reference_parser(label):
    try:
        want = reference_parse_version(label)
    except VersionParseError as exc:
        with pytest.raises(VersionParseError) as got:
            parse_version(label)
        assert str(got.value) == str(exc)
        return
    got = parse_version(label)
    assert (got.major, got.minor, got.patch, got.pre, got.raw, got.key) == \
        (want.major, want.minor, want.patch, want.pre, want.raw, want.key)


def test_render_round_trip_canonical():
    for label in ("7.1.1", "7.3.0rc5", "4.0.0b1", "0.0.0"):
        assert render_version(parse_version(label)) == label


def test_prerelease_orders_below_release():
    # Oracle: sorting the fixture labels must follow release chronology.
    labels = ["7.2.14", "7.3.0rc4", "7.2.0", "4.0.0b1", "5.0.0b1", "4.4.9"]
    ordered = sorted(parse_version(x) for x in labels)
    assert [render_version(v) for v in ordered] == [
        "4.0.0b1", "4.4.9", "5.0.0b1", "7.2.0", "7.2.14", "7.3.0rc4",
    ]
    assert parse_version("7.3.0rc4") < parse_version("7.3.0")
    assert parse_version("7.3.0b2") < parse_version("7.3.0rc1")
    assert parse_version("7.3.0rc1") < parse_version("7.3.0rc4")


def test_branch_origin_minor():
    assert branch_origin(Version(7, 2, 9), "minor") == Version(7, 2, 0)


def test_branch_origin_fixed_point():
    assert branch_origin(Version(7, 0, 0), "minor") == Version(7, 0, 0)


def test_branch_origin_major_substitutes_fields():
    # Oracle: plain field substitution.
    v = Version(5, 6, 31)
    assert branch_origin(v, "major") == Version(5, 0, 0)
    assert branch_origin(v, "minor") == Version(5, 6, 0)


def test_branch_origin_drops_prerelease():
    origin = branch_origin(parse_version("7.3.2rc4"), "minor")
    assert origin == parse_version("7.3.0") and origin.pre is None


def test_branch_origin_of_prerelease_at_branch_start_is_itself():
    # Dropping the tag would land above the input, breaking monotonicity.
    v = parse_version("7.3.0rc4")
    assert branch_origin(v, "minor") == v


versions_st = st.builds(
    Version,
    major=st.integers(0, 40),
    minor=st.integers(0, 40),
    patch=st.integers(0, 40),
    pre=st.one_of(
        st.none(),
        st.builds(lambda s, o: parse_version(f"0.0.0{s}{o}").pre,
                  st.sampled_from(["b", "rc"]), st.integers(1, 9)),
    ),
)


@given(versions_st, versions_st, versions_st)
def test_total_order_transitivity(a, b, c):
    trio = sorted([a, b, c])
    assert trio[0] <= trio[1] <= trio[2]
    assert trio[0] <= trio[2]


@given(versions_st)
def test_parse_render_identity(v):
    assert parse_version(render_version(v)) == v


@given(versions_st)
def test_branch_origin_idempotent_and_never_increases(v):
    for level in ("minor", "major"):
        origin = branch_origin(v, level)
        assert branch_origin(origin, level) == origin
        assert origin <= v


def test_order_laws_bulk():
    rnd = random.Random(99)
    versions = [Version(rnd.randint(0, 30), rnd.randint(0, 30), rnd.randint(0, 30))
                for _ in range(300)]
    for _ in range(2000):
        a, b, c = rnd.choice(versions), rnd.choice(versions), rnd.choice(versions)
        assert (a < b) + (a == b) + (a > b) == 1
        if a <= b and b <= c:
            assert a <= c


def test_equal_keys_are_equal_and_hash_equal():
    short, full = parse_version("7.2"), parse_version("7.2.0")
    assert short == full and hash(short) == hash(full)
    assert len({short, full}) == 1


def test_a_version_is_not_its_key():
    v = parse_version("7.2.0")
    assert v != v.key and v.key != v
    assert v not in {v.key}


@given(versions_st)
def test_copy_and_pickle_keep_equality_and_hash(v):
    for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert twin == v and hash(twin) == hash(v)
        assert not twin < v and not v < twin


def test_version_set_rejects_duplicates():
    with pytest.raises(ValueError):
        VersionSet("x", (parse_version("1.0.0"), parse_version("1.0.0")))


def test_version_set_iterates_ascending():
    vs = VersionSet("x", tuple(parse_version(s) for s in ("2.0.0", "1.0.0", "1.5.0")))
    assert vs.labels() == ["1.0.0", "1.5.0", "2.0.0"]


def naive_runs(mask: int, n: int) -> list[tuple[int, int]]:
    """``(first, past_last)`` index pairs of the runs of set bits, read one version at a time."""
    runs: list[tuple[int, int]] = []
    for i in range(n):
        if mask >> i & 1:
            if runs and runs[-1][1] == i:
                runs[-1] = (runs[-1][0], i + 1)
            else:
                runs.append((i, i + 1))
    return runs


@given(st.integers(0, 70).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_windows_are_the_maximal_runs_of_a_mask(n_mask):
    n, mask = n_mask
    vs = VersionSet("x", tuple(Version(1, i // 5, i % 5) for i in range(n)))
    windows = vs.windows(mask)
    runs = naive_runs(mask, n)
    # Ascending, disjoint and maximal: exactly the runs of set bits.
    assert [(vs.index[lo], n if hi is None else vs.index[hi]) for lo, hi in windows] == runs
    # Only a run that reaches the newest version is open-ended.
    assert [hi is None for _, hi in windows] == [end == n for _, end in runs]
    spanned = sum(1 << i for i, v in enumerate(vs.versions)
                  if any(lo <= v and (hi is None or v < hi) for lo, hi in windows))
    assert spanned == mask


@given(st.integers(0, 70).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_mask_inverts_windows(n_mask):
    n, mask = n_mask
    vs = VersionSet("x", tuple(Version(1, i // 5, i % 5) for i in range(n)))
    assert vs.mask(vs.windows(mask)) == mask


_ENDS = st.builds(Version, st.integers(0, 3), st.integers(0, 6), st.integers(0, 6))


@given(st.lists(_ENDS, unique=True, max_size=30),
       st.lists(st.tuples(_ENDS, st.none() | _ENDS), max_size=4))
def test_mask_holds_the_versions_inside_any_window(versions, windows):
    # Window ends need not be family versions, and a window may cover nothing.
    vs = VersionSet("x", tuple(versions))
    inside = sum(1 << i for i, v in enumerate(vs.versions)
                 if any(lo <= v and (hi is None or v < hi) for lo, hi in windows))
    assert vs.mask(windows) == inside
