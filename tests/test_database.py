import json

import pytest

from fpaudit.database import (
    DanglingReferralError,
    ReferralCycleError,
    SchemaError,
    VariableSpec,
    add_entry,
    fold_constraints,
    load_database,
    new_database,
    plan_truth_set,
    resolve_plan,
    serialize_database,
    validate_strategy_independence,
)
from fpaudit.versions import parse_version as pv


def minimal_doc(versions=None, family=None):
    doc = {
        "creationTimestamp": "2025-01-01T00:00:00+00:00",
        "lastUpdateTimestamp": "2025-01-01T00:00:00+00:00",
        "defaultvalues": {
            "version.test.waittime.amount": 200,
            "version.test.waittime.type": "milliseconds",
        },
        "settings": {
            "interface.challenges": "loopback-sim",
            "interface.responses": "loopback-sim",
            "strategies": ["BinarySearch"],
        },
        "service": {"name": "toy", "versions": versions or {}},
    }
    if family is not None:
        doc["service"]["family"] = family
    return doc


def entry(payload="var_dump(f(#ax#));", expect="f:ok:#ax#\n", **extra):
    test = {
        "variables": {"ax": {"format": "integer", "min": 1, "max": 9}},
        "challenge": {"payload": payload},
        "expect": {"payload": expect},
    }
    test.update(extra)
    return {"test": test}


def test_load_empty_database():
    db = load_database(json.dumps(minimal_doc()).encode())
    assert len(db.entries) == 0
    assert db.is_perfect


def test_load_referral_fragment_resolves_in_order():
    versions = {
        "7.1.24": entry(),
        "7.2.0": entry(),
        "7.2.12": {"test": {"branching": {"7.2.0": "1", "7.1.24": "1"}}},
    }
    db = load_database(json.dumps(minimal_doc(versions)).encode())
    plan = resolve_plan(db, pv("7.2.12"))
    assert [(str(s.version), s.expect_pass) for s in plan] == [
        ("7.2.0", True), ("7.1.24", True),
    ]


def test_dangling_referral_names_version():
    versions = {"1.0.0": entry(branching={"9.9.9": "1"})}
    with pytest.raises(DanglingReferralError, match="9.9.9"):
        load_database(json.dumps(minimal_doc(versions)).encode())


def test_referral_cycle_detected():
    versions = {
        "1.0.0": {"test": {"branching": {"2.0.0": "1"}}},
        "2.0.0": {"test": {"branching": {"1.0.0": "1"}}},
    }
    with pytest.raises(ReferralCycleError):
        load_database(json.dumps(minimal_doc(versions)).encode())


def test_self_reference_is_not_a_cycle():
    versions = {"1.0.0": entry(branching={"1.0.0": "1"})}
    db = load_database(json.dumps(minimal_doc(versions)).encode())
    plan = resolve_plan(db, pv("1.0.0"))
    assert [str(s.version) for s in plan] == ["1.0.0"]


def test_schema_rejects_unknown_variable_format():
    versions = {"1.0.0": entry()}
    versions["1.0.0"]["test"]["variables"]["ax"]["format"] = "complex"
    with pytest.raises(SchemaError, match="complex"):
        load_database(json.dumps(minimal_doc(versions)).encode())


def test_schema_rejects_non_string_expect_type():
    versions = {"1.0.0": entry()}
    versions["1.0.0"]["test"]["expect"]["type"] = "regex"
    with pytest.raises(SchemaError, match="regex"):
        load_database(json.dumps(minimal_doc(versions)).encode())


def test_branching_flag_values_kept_verbatim():
    versions = {
        "1.0.0": entry(),
        "1.0.1": entry(branching={"1.0.0": "yes"}),
    }
    db = load_database(json.dumps(minimal_doc(versions)).encode())
    assert db.entries[pv("1.0.1")].branching_flags["1.0.0"] == "yes"


def test_resolve_plan_prerequisite_before_intrinsic(db):
    plan = resolve_plan(db, pv("7.1.20"))
    assert [(str(s.version), s.expect_pass) for s in plan] == [
        ("7.0.0", True), ("7.1.20", True),
    ]


def test_resolve_plan_deprecated_boundary_last_expect_fail(db):
    plan = resolve_plan(db, pv("7.0.22"))
    assert [(str(s.version), s.expect_pass) for s in plan] == [
        ("7.0.22", True), ("7.1.0", False),
    ]


def test_resolve_plan_self_contained(db):
    plan = resolve_plan(db, pv("7.2.0"))
    assert [(str(s.version), s.expect_pass) for s in plan] == [("7.2.0", True)]


def test_resolve_plan_empty_for_entry_less_family_member():
    versions = {"1.0.0": entry()}
    doc = minimal_doc(versions, family=["1.0.0", "1.0.1"])
    db = load_database(json.dumps(doc).encode())
    assert resolve_plan(db, pv("1.0.1")) == ()


def test_resolve_plan_never_duplicates_subtests(db):
    for v in db.entries:
        plan = resolve_plan(db, v)
        seen = [s.version for s in plan]
        assert len(seen) == len(set(seen))
        for step in plan:
            assert db.entries[step.version].has_payload


def test_backport_gap_derived_from_referrals(db):
    avail = db.availability[pv("7.1.21")]
    assert pv("7.1.21") in avail
    assert pv("7.2.0") not in avail
    assert pv("7.2.8") not in avail
    assert pv("7.2.9") in avail
    assert pv("7.3.0rc4") in avail


def test_plan_truth_set_matches_referral_conjunction(db):
    truth = plan_truth_set(db, pv("7.2.9"))
    expected = {v for v in db.family.versions if v >= pv("7.2.9")}
    assert truth == expected


def test_fold_constraints_keeps_availability_or_its_complement(db):
    avail = db.availability[pv("7.0.22")]
    assert fold_constraints(db, [(pv("7.0.22"), True)]) == avail
    assert fold_constraints(db, [(pv("7.0.22"), False)]) == set(db.family.versions) - avail
    narrowed = fold_constraints(db, [(pv("7.1.0"), False)], avail)
    assert narrowed == {v for v in avail if v < pv("7.1.0")}
    with pytest.raises(ValueError, match="7.2.9"):
        fold_constraints(db, [(pv("7.2.9"), True)])


def test_strategy_independence_clean_fixture(db):
    report = validate_strategy_independence(db)
    assert report.ok
    assert report.equivalence_classes == ()


def test_strategy_independence_reports_equivalence_class():
    versions = {"7.2.12": entry(), "7.2.14": entry()}
    doc = minimal_doc(versions, family=["7.2.12", "7.2.13", "7.2.14"])
    db = load_database(json.dumps(doc).encode())
    report = validate_strategy_independence(db)
    assert report.ok
    assert ("7.2.12", "7.2.13") in report.equivalence_classes


def test_strategy_independence_single_entry():
    versions = {"1.0.0": entry()}
    db = load_database(json.dumps(minimal_doc(versions)).encode())
    assert validate_strategy_independence(db).ok


def test_round_trip_fixture(db):
    blob = serialize_database(db)
    again = load_database(blob)
    assert again == db
    assert serialize_database(again) == blob


def test_defaults_fold_into_entries(db):
    assert db.entries[pv("7.2.0")].wait_time == pytest.approx(0.2)


def test_per_entry_waittime_override():
    versions = {"1.0.0": entry(waittime={"amount": 500, "type": "milliseconds"})}
    db = load_database(json.dumps(minimal_doc(versions)).encode())
    assert db.entries[pv("1.0.0")].wait_time == pytest.approx(0.5)


def test_new_database_and_add_entry_round_trip(tmp_path):
    db = new_database("toy")
    assert db.meta.creation_timestamp
    db = add_entry(db, "1.0.0", challenge="var_dump(f(#ax#));", expect="f:ok:#ax#\n",
                   variables={"ax": VariableSpec("ax", "integer", min=1, max=9)})
    db = add_entry(db, "1.1.0", challenge="var_dump(g(#ax#));", expect="g:ok:#ax#\n",
                   variables={"ax": VariableSpec("ax", "integer", min=1, max=9)},
                   branching=["1.0.0"])
    blob = serialize_database(db)
    assert load_database(blob) == db
    plan = resolve_plan(db, pv("1.1.0"))
    assert [str(s.version) for s in plan] == ["1.0.0", "1.1.0"]


def test_add_entry_rejects_dangling_branch():
    db = new_database("toy")
    with pytest.raises(DanglingReferralError):
        add_entry(db, "1.1.0", challenge="x", expect="y", branching=["9.0.0"])


def test_variable_spec_validation():
    with pytest.raises(SchemaError):
        VariableSpec("ax", "integer", min=9, max=1)
    with pytest.raises(SchemaError):
        VariableSpec("ax", "string")
    with pytest.raises(SchemaError):
        VariableSpec("Bad Name", "integer", min=1, max=2)
