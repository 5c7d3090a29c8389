"""Generated version families: the shipped fixture and randomized mini-families.

Both follow one authoring style.  Every payload entry probes a function
named after its version (``api_7_1_1``) with an echo challenge; branch
origins and deprecated boundaries are plain cumulative entries; a back-port
pairs a lower-branch test with an origin check at the higher branch.  One
blueprint emits both the database document and the simulator config, so the
two sides agree by construction while staying separate artifacts.

The fixture family has 24 versions over three majors, built to exercise
every hierarchy case:

* a branch fork: fixes land on 7.1.x and 7.2.x at the same time, so the
  7.2.x entries pair a branch-origin check (7.2.0) with the shared test
  stored at the 7.1.x partner (e.g. 7.2.9 -> 7.2.0 + 7.1.21);
* a deprecated function: introduced at 7.0.22, removed at 7.1.0;
* a technical dependency: the 7.1.20 challenge only parses from 7.0.0 on,
  so its entry lists 7.0.0 as a prerequisite.

``synth_docs(seed)`` builds a random family of up to 50 versions for
property trials; it may leave some versions without entries to exercise
equivalence classes.  ``chain_db_doc(length)`` builds a database whose
referrals form one chain ``length`` entries deep.  ``authored_grid(shape)``
loads the seed-0 grid family of the benchmark's generator
(``perfbench/grid.py``, imported read-only) with its new version authored
as the grid workload authors it.

To rewrite ``fixtures/*.json`` from the blueprint::

    PYTHONPATH=src python tests/families.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from fpaudit.database import (DEFAULT_VALUES, STRATEGY_ALIASES, Database, VariableSpec, add_entry,
                              load_database)
from fpaudit.simulator import SimFamily, sim_family_from_doc

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import grid  # noqa: E402

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
TIMESTAMP = "2025-06-02T10:00:00+00:00"
MAX_SYNTH_VERSIONS = 50


def fn_name(label: str) -> str:
    return "api_" + label.replace(".", "_").replace("-", "_")


def echo_entry(label: str) -> dict:
    fn = fn_name(label)
    return {
        "variables": {"ax": {"format": "integer", "min": 1, "max": 999999999}},
        "challenge": {"payload": f"var_dump({fn}(#ax#));"},
        "expect": {"payload": f"{fn}:ok:#ax#\n"},
    }


def fn_spec(windows: list, behavior: str = "echo-ok", hard: bool = True) -> dict:
    return {"windows": windows, "hard": hard, "behavior": behavior}


def db_doc(name: str, family: list[str], versions: dict) -> dict:
    return {
        "creationTimestamp": TIMESTAMP,
        "lastUpdateTimestamp": TIMESTAMP,
        "defaultvalues": dict(DEFAULT_VALUES),
        "settings": {
            "interface.challenges": "loopback-sim",
            "interface.responses": "loopback-sim",
            "strategies": list(STRATEGY_ALIASES.values()),
        },
        "service": {"name": name, "family": list(family), "versions": versions},
    }


def sim_doc(name: str, family: list[str], functions: dict, provider: dict | None = None) -> dict:
    doc = {"family": {"name": name, "versions": list(family)}, "functions": functions}
    if provider:
        doc["provider"] = provider
    return doc


def _branch_start(label: str) -> str:
    major, minor = label.split(".")[:2]
    return f"{major}.{minor}.0"


# ---------------------------------------------------------------------------
# The fixture family

FIXTURE_NAME = "php-like"

FIXTURE_VERSIONS = [
    "4.0.0b1", "4.4.9",
    "5.0.0b1", "5.2.0", "5.6.31",
    "7.0.0", "7.0.15", "7.0.22", "7.0.26",
    "7.1.0", "7.1.1", "7.1.2", "7.1.13", "7.1.14", "7.1.20", "7.1.21",
    "7.2.0", "7.2.1", "7.2.2", "7.2.8", "7.2.9", "7.2.11", "7.2.14",
    "7.3.0rc4",
]

# Entries whose function is available from their own version onward.
_PLAIN = [
    "4.0.0b1", "4.4.9", "5.0.0b1", "5.2.0", "5.6.31",
    "7.0.0", "7.0.15", "7.1.0", "7.1.1",
    "7.2.11", "7.2.14", "7.3.0rc4",
]

# back-ported fixes: (lower branch version, higher branch version)
_BACKPORTS = [
    ("7.0.26", "7.1.2"),
    ("7.1.13", "7.2.1"),
    ("7.1.14", "7.2.2"),
    ("7.1.20", "7.2.8"),
    ("7.1.21", "7.2.9"),
]

DEPRECATED_AT = "7.0.22"
DEPRECATED_BOUNDARY = "7.1.0"

HONEST_PROVIDER = {
    "source": "7.2.14",
    "behavior": "honest",
    "latency": {"base_ms": 5, "jitter_ms": 3},
    "seed": 1,
}

FAKER_PROVIDER = {
    "source": "7.1.1",
    "behavior": "claim-faker",
    "claim": "20.9.85-car",
    "latency": {"base_ms": 5, "jitter_ms": 3},
    "seed": 1,
}


def fixture_functions() -> dict:
    functions = {fn_name(label): fn_spec([[label, None]]) for label in _PLAIN}
    functions["unserialize"] = fn_spec([["7.2.0", None]], "strict-bool")
    functions[fn_name(DEPRECATED_AT)] = fn_spec([[DEPRECATED_AT, DEPRECATED_BOUNDARY]])
    for low, high in _BACKPORTS:
        functions[fn_name(low)] = fn_spec([[low, _branch_start(high)], [high, None]])
    functions[fn_name("7.1.20")]["syntax_floor"] = "7.0.0"
    functions["phpversion"] = fn_spec([[FIXTURE_VERSIONS[0], None]], "claim", hard=False)
    functions["strtoupper"] = fn_spec([[FIXTURE_VERSIONS[0], None]], "upper", hard=False)
    return functions


def fixture_db_doc() -> dict:
    versions = {label: {"test": echo_entry(label)} for label in _PLAIN}
    versions["7.2.0"] = {"test": {
        "variables": {"ax": {"format": "integer", "min": 1, "max": 999999999}},
        "challenge": {"payload": "var_dump(@unserialize('d:#ax#e++2;'));"},
        "expect": {"payload": "bool(false)\n"},
    }}
    deprecated = echo_entry(DEPRECATED_AT)
    deprecated["deprecated"] = DEPRECATED_BOUNDARY
    versions[DEPRECATED_AT] = {"test": deprecated}
    for low, high in _BACKPORTS:
        versions[low] = {"test": echo_entry(low)}
        versions[high] = {"test": {"branching": {_branch_start(high): "1", low: "1"}}}
    # 7.1.20's challenge syntax needs 7.0.0; the prerequisite is tested first.
    versions["7.1.20"]["test"]["branching"] = {"7.0.0": "1"}
    return db_doc(FIXTURE_NAME, FIXTURE_VERSIONS,
                  {label: versions[label] for label in FIXTURE_VERSIONS})


def fixture_files() -> dict[str, str]:
    """File name under ``fixtures/`` -> its text."""
    docs = {
        "php_like_db.json": fixture_db_doc(),
        "php_like_sim_honest.json": sim_doc(FIXTURE_NAME, FIXTURE_VERSIONS, fixture_functions(),
                                            HONEST_PROVIDER),
        "php_like_sim_faker.json": sim_doc(FIXTURE_NAME, FIXTURE_VERSIONS, fixture_functions(),
                                           FAKER_PROVIDER),
    }
    return {name: json.dumps(doc, indent=2) + "\n" for name, doc in docs.items()}


# ---------------------------------------------------------------------------
# Randomized mini-families


def synth_docs(seed: int) -> tuple[dict, dict]:
    """Return (db_doc, sim_doc) for one randomized family."""
    rng = random.Random(seed)

    majors = sorted(rng.sample(range(1, 12), rng.randint(1, 3)))
    labels: list[str] = []
    branch_patches: dict[tuple[int, int], list[int]] = {}
    for major in majors:
        minors = sorted(rng.sample(range(0, 6), rng.randint(1, 3)))
        if 0 not in minors:
            minors = [0] + minors[:-1] if len(minors) > 1 else [0]
        for minor in minors:
            count = rng.randint(1, 5)
            patches = sorted(rng.sample(range(1, 30), count - 1)) if count > 1 else []
            patches = [0] + patches
            branch_patches[(major, minor)] = patches
            for patch in patches:
                labels.append(f"{major}.{minor}.{patch}")
                if len(labels) >= MAX_SYNTH_VERSIONS:
                    break
            if len(labels) >= MAX_SYNTH_VERSIONS:
                break
        if len(labels) >= MAX_SYNTH_VERSIONS:
            break

    functions = {fn_name(label): fn_spec([[label, None]]) for label in labels}
    entries = {label: {"test": echo_entry(label)} for label in labels}
    ordered = sorted(labels, key=_label_key)

    # Deprecated windows: function vanishes at a strictly later entry version.
    # Branch starts stay plainly cumulative so they can serve as origins.
    used_boundaries: set[str] = set()
    dep_candidates = [x for x in ordered[:-1] if not x.endswith(".0")]
    for label in rng.sample(dep_candidates, k=min(len(dep_candidates), rng.randint(0, 2))):
        later = [x for x in ordered if _label_key(x) > _label_key(label)]
        if not later:
            continue
        boundary = rng.choice(later[: max(1, len(later) // 2)])
        functions[fn_name(label)]["windows"] = [[label, boundary]]
        entries[label]["test"]["deprecated"] = boundary
        used_boundaries.add(boundary)

    # Back-ports: a lower-branch patch entry paired with a higher branch.
    lower_pool = [x for x in ordered if not x.endswith(".0") and x not in used_boundaries]
    rng.shuffle(lower_pool)
    forks = 0
    for low in lower_pool:
        if forks >= 2:
            break
        lm, ln, lp = (int(p) for p in low.split("."))
        higher_branches = [bk for bk in branch_patches
                           if (bk[0], bk[1]) > (lm, ln) and f"{bk[0]}.{bk[1]}.0" in entries]
        if not higher_branches:
            continue
        bk = rng.choice(higher_branches)
        highs = [p for p in branch_patches[bk] if p != 0]
        if not highs:
            continue
        high = f"{bk[0]}.{bk[1]}.{rng.choice(highs)}"
        if high not in entries or "branching" in entries[high]["test"] or high in used_boundaries:
            continue
        if low not in entries or fn_name(low) not in functions:
            continue
        if "branching" in entries[low]["test"]:
            continue
        if entries[low]["test"].get("deprecated") or len(functions[fn_name(low)]["windows"]) != 1:
            continue
        origin = f"{bk[0]}.{bk[1]}.0"
        if entries[origin]["test"].get("deprecated"):
            continue
        if _label_key(high) <= _label_key(low) or _label_key(origin) <= _label_key(low):
            continue
        # The fix lands on both branches at once: carve the gap.
        win_lo, win_hi = functions[fn_name(low)]["windows"][0]
        functions[fn_name(low)]["windows"] = [[win_lo, origin], [high, win_hi]]
        entries[high] = {"test": {"branching": {origin: "1", low: "1"}}}
        functions.pop(fn_name(high), None)
        forks += 1

    # A technical dependency: one patch entry requires its major's start.
    dep_pool = [x for x in ordered
                if not x.endswith(".0") and "branching" not in entries[x]["test"]
                and "deprecated" not in entries[x]["test"]]
    if dep_pool and rng.random() < 0.7:
        label = rng.choice(dep_pool)
        anchor = f"{label.split('.')[0]}.0.0"
        if anchor in entries and anchor != label and "deprecated" not in entries[anchor]["test"]:
            if len(functions[fn_name(label)]["windows"]) == 1:
                entries[label]["test"]["branching"] = {anchor: "1"}
                functions[fn_name(label)]["syntax_floor"] = anchor

    # Drop a few non-structural entries to create equivalence classes.
    droppable = [
        x for x in ordered
        if not x.endswith(".0")
        and x in entries
        and x not in used_boundaries
        and "branching" not in entries[x]["test"]
        and "deprecated" not in entries[x]["test"]
        and len(functions.get(fn_name(x), {}).get("windows", [[None]])) == 1
        and not any(x in e["test"].get("branching", {}) for e in entries.values())
    ]
    for label in rng.sample(droppable, k=min(len(droppable), rng.randint(0, 2))):
        entries.pop(label)
        functions.pop(fn_name(label), None)

    functions["phpversion"] = fn_spec([[ordered[0], None]], "claim", hard=False)

    name = f"synth-{seed}"
    versions = {label: entries[label] for label in ordered if label in entries}
    return db_doc(name, ordered, versions), sim_doc(name, ordered, functions)


def chain_db_doc(length: int) -> dict:
    """A database of ``length`` versions 1.0.0, 1.0.1, ... whose every entry
    refers to the one before it, listed from the top down, so the referral
    chain is as deep as the family is long."""
    labels = [f"1.0.{i}" for i in range(length)]
    versions = {labels[0]: {"test": echo_entry(labels[0])}}
    for prev, label in zip(labels, labels[1:]):
        versions[label] = {"test": {**echo_entry(label), "branching": {prev: "1"}}}
    return db_doc("chain", labels, dict(reversed(versions.items())))


def _label_key(label: str):
    return tuple(int(p) for p in label.split("."))


def authored_grid(shape: grid.GridShape = grid.GridShape()) -> tuple[Database, SimFamily]:
    """The seed-0 grid database of the benchmark's generator with its new
    version authored by ``add_entry`` (257 versions at the default shape),
    and the simulated family, which holds that version too."""
    family = grid.grid_docs(0, shape)
    test = grid.echo_test(family.new_label)
    db = add_entry(load_database(family.db_bytes()), family.new_label,
                   challenge=test["challenge"]["payload"], expect=test["expect"]["payload"],
                   variables={"ax": VariableSpec("ax", **grid.AX)})
    return db, sim_family_from_doc(family.sim_doc)


if __name__ == "__main__":
    for file_name, text in fixture_files().items():
        (FIXTURES / file_name).write_text(text, encoding="utf-8")
    print(f"wrote fixtures to {FIXTURES}")
