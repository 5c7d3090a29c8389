"""Semantic version labels with a total order.

Canonical label grammar: ``MAJOR[.MINOR[.PATCH]][PRE]`` with ``PRE`` one of
``bN`` (beta) or ``rcN`` (release candidate).  Missing minor/patch default
to zero.  A trailing ``-suffix`` (e.g. ``20.9.85-car``) is preserved in the
raw label but carries no ordering weight.

Ordering is lexicographic on (major, minor, patch); a pre-release orders
strictly below the plain release of the same triple, and pre-release tags
order by stage (b < rc) then ordinal.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress

_PRE_STAGES = {"b": 0, "rc": 1}
_BITS = bytes.maketrans(b"01", b"\x00\x01")  # a binary numeral's digits as selector bytes

_LABEL_RE = re.compile(
    r"""^
    (?P<major>\d+)
    (?:\.(?P<minor>\d+))?
    (?:\.(?P<patch>\d+))?
    (?P<pre>(?:b|rc)\d+)?
    (?P<suffix>-[0-9A-Za-z.\-]+)?
    $""",
    re.VERBOSE,
)


class VersionParseError(ValueError):
    """Raised when a label cannot be parsed; the message names the label."""


@dataclass(frozen=True)
class PreRelease:
    stage: str  # "b" or "rc"
    ordinal: int

    def __str__(self) -> str:
        return f"{self.stage}{self.ordinal}"


@dataclass(frozen=True, order=True)
class Version:
    major: int = field(compare=False)
    minor: int = field(default=0, compare=False)
    patch: int = field(default=0, compare=False)
    pre: PreRelease | None = field(default=None, compare=False)
    raw: str = field(default="", compare=False)
    # The only compared field, so equality, order and hash all use it.
    key: tuple = field(init=False, repr=False)
    # hash(key), computed once: versions key every dict and set in the package.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.major < 0 or self.minor < 0 or self.patch < 0:
            raise VersionParseError(f"negative component in version {self.raw or self!s}")
        # Plain releases rank above any pre-release of the same triple.
        pre_key = (_PRE_STAGES[self.pre.stage], self.pre.ordinal) if self.pre \
            else (len(_PRE_STAGES), 0)
        object.__setattr__(self, "key", (self.major, self.minor, self.patch, *pre_key))
        object.__setattr__(self, "_hash", hash(self.key))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Version):
            return self.key == other.key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return render_version(self)


def parse_version(label: str) -> Version:
    """Parse a version label; missing minor/patch default to 0."""
    if not label:
        raise VersionParseError("empty version label")
    raw = label.strip()
    m = _LABEL_RE.match(raw)
    if not m:
        raise VersionParseError(f"malformed version label: {label!r}")
    major, minor, patch, tag, _ = m.groups()
    pre = None
    if tag:
        stage = "rc" if tag[0] == "r" else "b"
        pre = PreRelease(stage, int(tag[len(stage):]))
    return Version(int(major), int(minor or 0), int(patch or 0), pre, raw)


def render_version(v: Version) -> str:
    """Canonical label: always three numeric parts plus any pre-release tag."""
    s = f"{v.major}.{v.minor}.{v.patch}"
    if v.pre:
        s += str(v.pre)
    return s


def branch_origin(v: Version, level: str = "minor") -> Version:
    """First version of the branch ``v`` lives on.

    ``minor`` zeroes the patch, ``major`` zeroes minor and patch; any
    pre-release tag is dropped.  A pre-release of the branch start itself
    (e.g. 7.3.0rc4) is already its own origin: dropping the tag would move
    the result above the input.
    """
    if level == "minor":
        origin = Version(v.major, v.minor, 0)
    elif level == "major":
        origin = Version(v.major, 0, 0)
    else:
        raise ValueError(f"unknown branch level: {level!r}")
    return v if origin > v else origin


@dataclass(frozen=True)
class VersionSet:
    """All versions of one software family, in ascending order.

    ``index`` gives each version its position, which is also its bit in a
    version mask: an int whose bit ``i`` stands for ``versions[i]``.
    """

    family_name: str
    versions: tuple[Version, ...]
    index: dict[Version, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.versions))
        # Equal versions render to the same label, and distinct ones do not.
        index = {v: i for i, v in enumerate(ordered)}
        if len(index) != len(ordered):
            raise ValueError(f"duplicate version labels in family {self.family_name!r}")
        object.__setattr__(self, "versions", ordered)
        object.__setattr__(self, "index", index)

    def __iter__(self):
        return iter(self.versions)

    def __len__(self) -> int:
        return len(self.versions)

    def __contains__(self, v: Version) -> bool:
        return v in self.index

    @property
    def full(self) -> int:
        """The mask of every version."""
        return (1 << len(self.versions)) - 1

    def select(self, mask: int) -> tuple[Version, ...]:
        """The versions whose bits are set in ``mask``, ascending."""
        # bit 0 first, as the bytes 0 and 1
        return tuple(compress(self.versions, bin(mask)[:1:-1].encode().translate(_BITS)))

    def windows(self, mask: int) -> tuple[tuple[Version, Version | None], ...]:
        """``mask`` as half-open windows ``(from, until)``, ascending, one per
        run of set bits; ``until`` is None for a run that reaches the newest version."""
        spans = []
        while mask:
            start = (mask & -mask).bit_length() - 1
            run = mask >> start
            end = start + (run ^ (run + 1)).bit_length() - 1  # past the run's last bit
            spans.append((self.versions[start], self.versions[end] if end < len(self.versions) else None))
            mask ^= (1 << end) - (1 << start)
        return tuple(spans)

    def mask(self, windows) -> int:
        """The mask of the versions inside any of the half-open ``windows``
        ``(from, until)``, ``until`` None for no upper end: the inverse of
        :meth:`windows`.  A window's ends need not be family versions."""
        keys, mask = self._keys, 0
        for lo, hi in windows:
            i = bisect_left(keys, lo.key)
            j = len(keys) if hi is None else bisect_left(keys, hi.key)
            if j > i:
                mask |= (1 << j) - (1 << i)
        return mask

    @functools.cached_property
    def _keys(self) -> list[tuple]:
        return [v.key for v in self.versions]

    def labels(self) -> list[str]:
        return [render_version(v) for v in self.versions]
