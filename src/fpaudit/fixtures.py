"""Desk-scale PHP-flavored fixture family and its fingerprint database.

24 versions over three majors, built to exercise every hierarchy case:

* a branch fork: fixes land on 7.1.x and 7.2.x at the same time, so the
  7.2.x entries pair a branch-origin check (7.2.0) with the shared test
  stored at the 7.1.x partner (e.g. 7.2.9 -> 7.2.0 + 7.1.21);
* a deprecated function: introduced at 7.0.22, removed at 7.1.0;
* a technical dependency: the 7.1.20 challenge only parses from 7.0.0 on,
  so its entry lists 7.0.0 as a prerequisite.

The same blueprint emits both the database document and the simulator
config, so the two sides agree by construction while staying separate
artifacts.
"""

from __future__ import annotations

from .database import DEFAULT_VALUES

FAMILY_NAME = "php-like"

FAMILY_VERSIONS = [
    "4.0.0b1", "4.4.9",
    "5.0.0b1", "5.2.0", "5.6.31",
    "7.0.0", "7.0.15", "7.0.22", "7.0.26",
    "7.1.0", "7.1.1", "7.1.2", "7.1.13", "7.1.14", "7.1.20", "7.1.21",
    "7.2.0", "7.2.1", "7.2.2", "7.2.8", "7.2.9", "7.2.11", "7.2.14",
    "7.3.0rc4",
]

# version -> (function name, availability windows, syntax floor)
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

CREATED = "2025-06-02T10:00:00+00:00"
UPDATED = "2025-06-02T10:00:00+00:00"


def _fn_name(label: str) -> str:
    return "api_" + label.replace(".", "_").replace("-", "_")


def _echo_entry(fn: str) -> dict:
    return {
        "variables": {"ax": {"format": "integer", "min": 1, "max": 999999999}},
        "challenge": {"payload": f"var_dump({fn}(#ax#));"},
        "expect": {"payload": f"{fn}:ok:#ax#\n"},
    }


def build_sim_doc(provider: dict | None = None) -> dict:
    functions: dict[str, dict] = {}
    for label in _PLAIN:
        functions[_fn_name(label)] = {
            "windows": [[label, None]],
            "hard": True,
            "behavior": "echo-ok",
        }
    functions["unserialize"] = {
        "windows": [["7.2.0", None]],
        "hard": True,
        "behavior": "strict-bool",
    }
    functions[_fn_name(DEPRECATED_AT)] = {
        "windows": [[DEPRECATED_AT, DEPRECATED_BOUNDARY]],
        "hard": True,
        "behavior": "echo-ok",
    }
    for low, high in _BACKPORTS:
        gap_start = f"{high.split('.')[0]}.{high.split('.')[1]}.0"
        functions[_fn_name(low)] = {
            "windows": [[low, gap_start], [high, None]],
            "hard": True,
            "behavior": "echo-ok",
        }
    functions[_fn_name("7.1.20")]["syntax_floor"] = "7.0.0"
    functions["phpversion"] = {
        "windows": [[FAMILY_VERSIONS[0], None]],
        "hard": False,
        "behavior": "claim",
    }
    functions["strtoupper"] = {
        "windows": [[FAMILY_VERSIONS[0], None]],
        "hard": False,
        "behavior": "upper",
    }
    doc = {
        "family": {"name": FAMILY_NAME, "versions": list(FAMILY_VERSIONS)},
        "functions": functions,
    }
    if provider:
        doc["provider"] = provider
    return doc


def build_db_doc() -> dict:
    versions: dict[str, dict] = {}
    for label in _PLAIN:
        versions[label] = {"test": _echo_entry(_fn_name(label))}

    versions["7.2.0"] = {"test": {
        "variables": {"ax": {"format": "integer", "min": 1, "max": 999999999}},
        "challenge": {"payload": "var_dump(@unserialize('d:#ax#e++2;'));"},
        "expect": {"payload": "bool(false)\n"},
    }}

    deprecated = _echo_entry(_fn_name(DEPRECATED_AT))
    deprecated["deprecated"] = DEPRECATED_BOUNDARY
    versions[DEPRECATED_AT] = {"test": deprecated}

    for low, high in _BACKPORTS:
        versions[low] = {"test": _echo_entry(_fn_name(low))}
        origin = f"{high.split('.')[0]}.{high.split('.')[1]}.0"
        versions[high] = {"test": {"branching": {origin: "1", low: "1"}}}

    # 7.1.20's challenge syntax needs 7.0.0; the prerequisite is tested first.
    versions["7.1.20"]["test"]["branching"] = {"7.0.0": "1"}

    ordered = {label: versions[label] for label in FAMILY_VERSIONS}
    return {
        "creationTimestamp": CREATED,
        "lastUpdateTimestamp": UPDATED,
        "defaultvalues": dict(DEFAULT_VALUES),
        "settings": {
            "interface.challenges": "loopback-sim",
            "interface.responses": "loopback-sim",
            "strategies": [
                "BinarySearch",
                "CascadingBinarySearch",
                "HighToLow",
                "LowToHigh",
                "MajorHighestStepUp",
            ],
        },
        "service": {
            "name": FAMILY_NAME,
            "family": list(FAMILY_VERSIONS),
            "versions": ordered,
        },
    }


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

