"""Machine-speed calibration for the end-to-end times.

The benchmark runs on shared hosts whose speed drifts by ±20% over tens of
seconds and minutes, far more than the changes it has to detect.  A run
therefore times a fixed calibration op between audits, every ``EVERY_S``
seconds, and scales each audit's wall time by ``NOMINAL_S`` over the
median duration of the ``2 * HALF_WINDOW`` calibration samples nearest to
it.  The reported times are what the audits would take on a machine that
runs the op in ``NOMINAL_S``.

The op uses only the standard library and ``cryptography`` (the Python
work, JSON encoding, hashing and Ed25519 signing that an audit does), never
fpaudit, so a change to the program cannot change its speed.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import statistics
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

NOMINAL_S = 0.0018  # about the op's median between audits on the seed baseline's machine
EVERY_S = 0.05
HALF_WINDOW = 10

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_DOC = {"entries": [{"version": f"7.{i}.{j}", "functions": ["strlen", "sha1", i * j],
                     "deprecated": bool(i % 2)} for i in range(8) for j in range(8)]}


def op() -> int:
    """The calibration op: about 2 ms of mixed interpreter and library work."""
    rng = random.Random(7)
    table = {}
    for i in range(600):
        x = rng.random()
        table[(i % 97, round(x, 3))] = str(x)
    rows = sorted(table.items())
    blob = json.dumps(_DOC, sort_keys=True).encode()
    json.loads(blob)
    digest = hashlib.sha256(blob).digest()
    return len(rows) + len(_KEY.sign(blob[:256] + digest))


class Calibrator:
    """Calibration samples of one run and the scale factor they give."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter at the start of each sample
        self.durations: list[float] = []
        self.due = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        op()
        self.times.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self.due = t0 + EVERY_S

    def tick(self) -> None:
        """Sample if ``EVERY_S`` has passed since the last sample."""
        if time.perf_counter() >= self.due:
            self.sample()

    def scale(self, t: float) -> float:
        """``NOMINAL_S`` over the median of the samples nearest to time ``t``."""
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - HALF_WINDOW, len(self.times) - 2 * HALF_WINDOW))
        return NOMINAL_S / statistics.median(self.durations[lo:lo + 2 * HALF_WINDOW])
