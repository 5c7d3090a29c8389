"""Randomized challenge rendering and response judging.

Placeholders in templates are ``#name#`` with names over ``[a-z0-9_]+``;
every other ``#`` is literal.  Each entry's templates are compiled once,
the first time an audit renders them, tags included, into a bytes format
with one ``%s`` per placeholder (see ``database.Template``); the loader
rejects a placeholder that no variable of the entry binds.  Each variable
is drawn straight into the bytes its placeholders take, and rendering
fills each template with one ``%`` over those values; a name the values
lack raises :class:`RenderError`.  Direct and outsourced audits draw and
render the same way: the outsourced user signs the drawn values as ``phi``.
A seeded :class:`RandomnessSource` draws what ``random.Random`` of the same
seed draws.  Random string and dir-file values draw from the ``[a-z0-9]``
alphabet; binary values render as lowercase hex.
"""

from __future__ import annotations

import random
import secrets
from typing import NamedTuple

from .database import Database, Template, VariableSpec, VersionTest
from .versions import Version, VersionSet, render_version

_STRING_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


class RenderError(ValueError):
    """Raised for an unbound placeholder; the message names it."""


class RandomnessSource:
    """Uniform draws for challenge variables.

    Unseeded instances use a cryptographically secure generator; a seed
    switches to a reproducible PRNG for tests.  An instance must be owned
    by a single audit run.
    """

    def __init__(self, seed: int | None = None):
        self._rng = random.Random(seed) if seed is not None else secrets.SystemRandom()

    def randint(self, lo: int, hi: int) -> int:
        # What ``random.Random.randint`` draws: ``randrange``'s rejection loop
        # over ``getrandbits``, without its argument checks.
        n = hi - lo + 1
        if n <= 0:
            raise ValueError(f"empty range for randint({lo}, {hi})")
        getrandbits, k = self._rng.getrandbits, n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return lo + r

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def token(self, length: int, alphabet: str = _STRING_ALPHABET) -> str:
        return "".join(self.choice(alphabet) for _ in range(length))

    def randbytes(self, length: int) -> bytes:
        return bytes(self.randint(0, 255) for _ in range(length))


def draw(spec: VariableSpec, rng: RandomnessSource, family: VersionSet | None = None) -> bytes:
    """Draw one value for a variable according to its spec, as the bytes
    its placeholders take."""
    if spec.format == "integer":
        return b"%d" % rng.randint(spec.min, spec.max)
    if spec.format == "string":
        return rng.token(spec.length).encode()
    if spec.format == "binary":
        return rng.randbytes(spec.length).hex().encode()
    if spec.format == "version":
        if family is None or not len(family):
            raise RenderError(f"variable {spec.name!r}: version format needs a family to draw from")
        return render_version(rng.choice(family.versions)).encode()
    if spec.format == "dir-file":
        return f"{rng.token(8)}/{rng.token(8)}.txt".encode()
    raise RenderError(f"variable {spec.name!r}: unknown format {spec.format!r}")


def draw_values(entry: VersionTest, rng: RandomnessSource, family: VersionSet) -> dict[str, bytes]:
    """A fresh value for each of the entry's variables, in variable order."""
    return {name: draw(spec, rng, family) for name, spec in entry.variables.items()}


def render(entry: VersionTest, values: dict[str, bytes]) -> tuple[bytes, bytes]:
    """A payload entry's challenge and expected response under ``values``;
    deterministic."""
    challenge, expect = entry.compiled or entry.compile()
    return _fill(challenge, values), _fill(expect, values)


def _fill(template: Template, values: dict[str, bytes]) -> bytes:
    try:
        return template.format % template.pick(values)
    except KeyError as exc:
        raise RenderError(f"unbound placeholder #{exc.args[0]}#") from None


class RenderedTest(NamedTuple):
    challenge_payload: bytes
    expected_payload: bytes
    deadline: float  # seconds


def render_test(db: Database, version: Version, rng: RandomnessSource) -> RenderedTest:
    """Draw fresh randomness and render one entry's challenge and expectation."""
    entry = db.entries[version]
    if not entry.has_payload:
        raise RenderError(f"entry {render_version(version)} has no intrinsic test payload")
    return RenderedTest(*render(entry, draw_values(entry, rng, db.family)), entry.wait_time)


class JudgeResult(NamedTuple):
    delta: bool
    reason: str | None  # None when delta, else mismatch | timeout | transport-error


# Every judgement is one of these; tuples are immutable, so they are shared.
_PASSED = JudgeResult(True, None)
_MISMATCH = JudgeResult(False, "mismatch")
_TIMEOUT = JudgeResult(False, "timeout")
_TRANSPORT_ERROR = JudgeResult(False, "transport-error")


def judge(actual: bytes | None, expected: bytes, elapsed: float, deadline: float,
          transport_error: str | None = None) -> JudgeResult:
    """Decide one test: response must match exactly and arrive in time.

    The deadline is inclusive; a missing response is a timeout.
    """
    if transport_error is not None:
        return _TRANSPORT_ERROR
    if actual is None or elapsed > deadline:
        return _TIMEOUT
    if actual != expected:
        return _MISMATCH
    return _PASSED
