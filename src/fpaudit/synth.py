"""Randomized mini-families for property trials.

Generates a random version family (up to a size cap) together with a
matching simulator config and database document.  The structures follow the
same authoring rules as the shipped fixture: branch origins and deprecated
boundaries are plain cumulative entries, back-ports pair a lower-branch
test with an origin check at the higher branch, and some versions may be
left without entries to exercise equivalence classes.
"""

from __future__ import annotations

import random

from .database import DEFAULT_VALUES
from .fixtures import CREATED, UPDATED


def synth_docs(seed: int, max_versions: int = 50) -> tuple[dict, dict]:
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
                if len(labels) >= max_versions:
                    break
            if len(labels) >= max_versions:
                break
        if len(labels) >= max_versions:
            break

    def fn_name(label: str) -> str:
        return "api_" + label.replace(".", "_")

    functions: dict[str, dict] = {}
    entries: dict[str, dict] = {}

    def echo_entry(label: str) -> dict:
        return {
            "variables": {"ax": {"format": "integer", "min": 1, "max": 999999999}},
            "challenge": {"payload": f"var_dump({fn_name(label)}(#ax#));"},
            "expect": {"payload": f"{fn_name(label)}:ok:#ax#\n"},
        }

    for label in labels:
        functions[fn_name(label)] = {"windows": [[label, None]], "hard": True, "behavior": "echo-ok"}
        entries[label] = {"test": echo_entry(label)}

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
        gap_start = origin
        functions[fn_name(low)]["windows"] = [[win_lo, gap_start], [high, win_hi]]
        entries[high] = {"test": {"branching": {origin: "1", low: "1"}}}
        functions.pop(fn_name(high), None)
        forks += 1

    # A technical dependency: one patch entry requires its major's start.
    dep_pool = [x for x in ordered
                if not x.endswith(".0") and "branching" not in entries[x]["test"]
                and "deprecated" not in entries[x]["test"]]
    if dep_pool and rng.random() < 0.7:
        label = rng.choice(dep_pool)
        major = label.split(".")[0]
        anchor = f"{major}.0.0"
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

    functions["phpversion"] = {"windows": [[ordered[0], None]], "hard": False, "behavior": "claim"}

    db_doc = {
        "creationTimestamp": CREATED,
        "lastUpdateTimestamp": UPDATED,
        "defaultvalues": dict(DEFAULT_VALUES),
        "settings": {
            "interface.challenges": "loopback-sim",
            "interface.responses": "loopback-sim",
            "strategies": [
                "BinarySearch", "CascadingBinarySearch", "HighToLow",
                "LowToHigh", "MajorHighestStepUp",
            ],
        },
        "service": {
            "name": f"synth-{seed}",
            "family": ordered,
            "versions": {label: entries[label] for label in ordered if label in entries},
        },
    }
    sim_doc = {
        "family": {"name": f"synth-{seed}", "versions": ordered},
        "functions": functions,
    }
    return db_doc, sim_doc


def _label_key(label: str):
    return tuple(int(p) for p in label.split("."))
