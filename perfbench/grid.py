"""Seeded synthetic grid families: majors x minors x patches.

``grid_docs`` returns a database document and a matching simulator
document built from one blueprint, following the authoring rules of the
shipped fixture family:

* every version gets a plain cumulative echo test of its own function;
* a deprecated window removes a patch release's function at a later plain
  entry (the boundary), and the entry names that boundary;
* a back-port pairs a lower-branch patch release with a patch release of a
  higher branch: the higher entry becomes a referral to its branch origin
  plus the lower partner, and the partner's function is absent from the
  higher branch's origin up to the higher release;
* one technical dependency: a patch release's challenge only parses from
  its major's first release on, so its entry lists that release first;
* some patch releases are left without entries (indistinguishable from
  their decided neighbours).

The simulator family has one more version than the database: a new
top-of-family release that the benchmark authors into the database with
``add_entry`` during set-up, as an operator would.

The same seed always yields byte-identical documents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

CREATED = "2025-06-02T10:00:00+00:00"

_DEFAULTS = {
    "version.test.challenge.setstarttag": "true",
    "version.test.challenge.setendtag": "false",
    "version.test.expect.setstarttag": "false",
    "version.test.expect.setendtag": "false",
    "version.test.challenge.starttag": "<?php ",
    "version.test.challenge.endtag": " ?>",
    "version.test.expect.type": "string",
    "version.test.waittime.amount": 200,
    "version.test.waittime.type": "milliseconds",
}

_STRATEGIES = ["BinarySearch", "CascadingBinarySearch", "HighToLow", "LowToHigh",
               "MajorHighestStepUp"]

AX = {"format": "integer", "min": 1, "max": 999999999}


@dataclass(frozen=True)
class GridShape:
    majors: int = 4
    minors: int = 8
    patches: int = 8
    backports: int = 6
    deprecations: int = 3
    dropped: int = 8


@dataclass(frozen=True)
class GridFamily:
    db_doc: dict
    sim_doc: dict
    new_label: str  # in the simulator family, authored into the database at set-up

    def db_bytes(self) -> bytes:
        return json.dumps(self.db_doc, indent=2, sort_keys=True).encode("utf-8")

    def sim_bytes(self) -> bytes:
        return json.dumps(self.sim_doc, indent=2, sort_keys=True).encode("utf-8")


def fn_name(label: str) -> str:
    return "api_" + label.replace(".", "_")


def echo_test(label: str) -> dict:
    fn = fn_name(label)
    return {
        "variables": {"ax": dict(AX)},
        "challenge": {"payload": f"var_dump({fn}(#ax#));"},
        "expect": {"payload": f"{fn}:ok:#ax#\n"},
    }


def _key(label: str) -> tuple[int, ...]:
    return tuple(int(p) for p in label.split("."))


def grid_docs(seed: int, shape: GridShape = GridShape()) -> GridFamily:
    rng = random.Random(seed)
    labels = [f"{M}.{m}.{p}"
              for M in range(1, shape.majors + 1)
              for m in range(shape.minors)
              for p in range(shape.patches)]
    new_label = f"{shape.majors}.{shape.minors - 1}.{shape.patches}"
    functions = {fn_name(x): {"windows": [[x, None]], "hard": True, "behavior": "echo-ok"}
                 for x in labels + [new_label]}
    tests = {x: echo_test(x) for x in labels}
    # Labels whose entry must stay a plain cumulative test: branch origins,
    # deprecation boundaries, back-port partners and dependency anchors.
    pinned = {x for x in labels if x.endswith(".0")}

    def free_patches() -> list[str]:
        return [x for x in labels if x not in pinned and x in tests
                and "branching" not in tests[x] and "deprecated" not in tests[x]]

    # Deprecated windows: the function vanishes at a later plain entry.
    for label in rng.sample(free_patches()[:-1], shape.deprecations):
        later = [x for x in labels if _key(x) > _key(label)
                 and "branching" not in tests[x] and "deprecated" not in tests[x]]
        boundary = rng.choice(later[: max(1, len(later) // 4)])
        functions[fn_name(label)]["windows"] = [[label, boundary]]
        tests[label]["deprecated"] = boundary
        pinned.update({label, boundary})

    # Back-ports: the fix lands on a lower and a higher branch at once.
    branches = sorted({x.rsplit(".", 1)[0] for x in labels}, key=_key)
    made = 0
    while made < shape.backports:
        low = rng.choice(free_patches())
        low_branch = low.rsplit(".", 1)[0]
        higher = [b for b in branches if _key(b) > _key(low_branch)]
        if not higher:
            continue
        branch = rng.choice(higher)
        high = f"{branch}.{rng.randrange(1, shape.patches)}"
        if high in pinned or "branching" in tests[high] or "deprecated" in tests[high]:
            continue
        origin = f"{branch}.0"
        functions[fn_name(low)]["windows"] = [[low, origin], [high, None]]
        tests[high] = {"branching": {origin: "1", low: "1"}}
        del functions[fn_name(high)]
        pinned.update({low, high})
        made += 1

    # One technical dependency on the major's first release.
    label = rng.choice(free_patches())
    anchor = f"{label.split('.')[0]}.0.0"
    tests[label]["branching"] = {anchor: "1"}
    functions[fn_name(label)]["syntax_floor"] = anchor
    pinned.add(label)

    for label in rng.sample(free_patches(), shape.dropped):
        del tests[label]
        del functions[fn_name(label)]

    functions["phpversion"] = {"windows": [[labels[0], None]], "hard": False, "behavior": "claim"}
    functions["strtoupper"] = {"windows": [[labels[0], None]], "hard": False, "behavior": "upper"}

    name = f"grid-{seed}"
    db_doc = {
        "creationTimestamp": CREATED,
        "lastUpdateTimestamp": CREATED,
        "defaultvalues": dict(_DEFAULTS),
        "settings": {
            "interface.challenges": "loopback-sim",
            "interface.responses": "loopback-sim",
            "strategies": list(_STRATEGIES),
        },
        "service": {
            "name": name,
            "family": labels,
            "versions": {x: {"test": tests[x]} for x in labels if x in tests},
        },
    }
    sim_doc = {"family": {"name": name, "versions": labels + [new_label]},
               "functions": functions}
    return GridFamily(db_doc, sim_doc, new_label)


def check_family(family: GridFamily) -> None:
    """Raise ValueError unless the database loads and resolves from any entry."""
    from fpaudit.database import load_database, validate_strategy_independence

    report = validate_strategy_independence(load_database(family.db_bytes()))
    if not report.ok:
        raise ValueError("grid family fails strategy independence: "
                         + "; ".join(report.problems))
