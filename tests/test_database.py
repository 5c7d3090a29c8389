import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpaudit.database import (
    MAX_VARIABLE_LENGTH,
    DanglingReferralError,
    DatabaseError,
    PlanStep,
    ReferralCycleError,
    SchemaError,
    Tags,
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
from fpaudit.simulator import SimConfigError, load_sim_config
from fpaudit.versions import parse_version as pv

from families import chain_db_doc, synth_docs


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


def test_referral_cycle_names_only_its_links():
    versions = {
        "1.0.0": {"test": {"branching": {"2.0.0": "1"}}},
        "2.0.0": {"test": {"branching": {"3.0.0": "1"}}},
        "3.0.0": {"test": {"branching": {"2.0.0": "1"}}},
    }
    with pytest.raises(ReferralCycleError) as cycle:
        load_database(json.dumps(minimal_doc(versions)).encode())
    assert str(cycle.value) == "referral cycle: 2.0.0 -> 3.0.0 -> 2.0.0"


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


def test_branching_flags_survive_a_round_trip():
    versions = {"7.2.0": entry(), "7.2.9": entry(branching={"7.2": "0"})}
    db = load_database(json.dumps(minimal_doc(versions)).encode())
    text = serialize_database(db)
    assert json.loads(text)["service"]["versions"]["7.2.9"]["test"]["branching"] == {"7.2.0": "0"}
    assert load_database(text).entries == db.entries


@pytest.mark.parametrize("where, mutate", [
    ("'service.family'", lambda doc: doc["service"].update(family=["1.0.0", "1.x"])),
    ("'service.versions'", lambda doc: doc["service"]["versions"].update({"1.x": entry()})),
    ("entry '1.0.1' 'branching'",
     lambda doc: doc["service"]["versions"]["1.0.1"]["test"].update(branching={"1.x": "1"})),
    ("entry '1.0.1' 'deprecated'",
     lambda doc: doc["service"]["versions"]["1.0.1"]["test"].update(deprecated="1.x")),
], ids=["family", "version-key", "branching", "deprecated"])
def test_malformed_version_label_is_a_schema_error(where, mutate):
    doc = minimal_doc({"1.0.0": entry(), "1.0.1": entry()})
    mutate(doc)
    with pytest.raises(SchemaError, match=f"{where}: malformed version label: '1.x'"):
        load_database(json.dumps(doc).encode())


@pytest.mark.parametrize("value", [0, False, ""], ids=["zero", "false", "empty-string"])
@pytest.mark.parametrize("key, test", [
    ("deprecated", lambda value: {"deprecated": value}),
    ("windows", lambda value: {"windows": [["1.0.1", value]]}),
], ids=["deprecated", "window-until"])
def test_a_falsy_label_is_a_schema_error_not_an_absent_one(key, test, value):
    # Only null means "no boundary" or "open-ended".
    versions = {"1.0.0": entry(), "1.0.1": entry(**test(value)), "1.0.2": entry()}
    with pytest.raises(SchemaError, match=f"entry '1.0.1' '{key}'"):
        load_database(json.dumps(minimal_doc(versions)).encode())


@pytest.mark.parametrize("value", [0, False, "", []], ids=["zero", "false", "empty-string", "empty-list"])
@pytest.mark.parametrize("key", ["challenge", "expect"])
def test_a_falsy_object_is_a_schema_error_not_an_absent_one(db_doc, key, value):
    # 7.1.20 refers to 7.0.0 and has its own test: read as absent, one side
    # left without a payload would make it a referral-only entry that drops
    # that test.
    test = db_doc["service"]["versions"]["7.1.20"]["test"]
    test.update(challenge={}, expect={})
    test[key] = value
    with pytest.raises(SchemaError, match=re.escape(f"entry '7.1.20' '{key}' must be an object")):
        load_database(json.dumps(db_doc))


def test_null_fields_are_absent(db_doc):
    # null is the one absent value: each optional field left null loads as
    # if it were left out.
    db_doc["defaultvalues"]["version.test.waittime.amount"] = None
    db_doc["settings"]["strategies"] = None
    test = db_doc["service"]["versions"]["7.2.0"]["test"]
    test.update(waittime=None, windows=None, deprecated=None)
    test["variables"]["ax"]["format"] = None
    db = load_database(json.dumps(db_doc))
    assert db.meta.wait_time() == 0.2 and db.entries[pv("7.2.0")].wait_time == 0.2
    assert len(db.meta.strategies) == 5


def test_branching_naming_one_version_twice_is_a_schema_error():
    versions = {"1.0.0": entry(), "1.0.1": entry(branching={"1.0": "0", "1.0.0": "1"})}
    with pytest.raises(SchemaError, match="entry '1.0.1' 'branching': '1.0' and '1.0.0' name the same"):
        load_database(json.dumps(minimal_doc(versions)).encode())


def test_one_element_windows_pair_is_a_schema_error():
    versions = {"1.0.0": entry(windows=[["1.0.0"]]), "1.0.1": entry()}
    with pytest.raises(SchemaError, match="entry '1.0.0' 'windows'"):
        load_database(json.dumps(minimal_doc(versions)).encode())


@pytest.mark.parametrize("where, test", [
    ("entry '1.0.1' 'deprecated'", {"deprecated": "1.0.1"}),
    ("entry '1.0.1' 'deprecated'", {"deprecated": "1.0.0"}),
    ("entry '1.0.1' 'windows'", {"windows": []}),
    ("entry '1.0.1' 'windows'", {"windows": [["1.0.1", "1.0.1"]]}),
    ("entry '1.0.1' 'windows'", {"windows": [["1.0.0", None], ["1.0.1", "1.0.0"]]}),
], ids=["deprecated-at-entry", "deprecated-below-entry", "windows-empty", "window-until-at-from",
        "window-until-below-from"])
def test_windows_that_cover_nothing_are_a_schema_error(where, test):
    versions = {"1.0.0": entry(), "1.0.1": entry(**test), "1.0.2": entry()}
    with pytest.raises(SchemaError, match=re.escape(where)):
        load_database(json.dumps(minimal_doc(versions)).encode())


@pytest.mark.parametrize("versions", [
    {"1.0.0": entry(), "1.1.0": {"test": {"branching": {"1.1.0": "1"}}}},
    {"1.0.0": entry(), "1.2.0": {"test": {"branching": {"1.1.0": "1"}}},
     "1.1.0": {"test": {"branching": {"1.1.0": "1"}}}},
], ids=["self-only-referral", "referral-to-a-self-only-referral"])
def test_an_entry_that_tests_nothing_is_a_schema_error(versions):
    with pytest.raises(SchemaError, match=re.escape("entry '1.1.0' tests nothing")):
        load_database(json.dumps(minimal_doc(versions)).encode())


def test_non_list_family_is_a_schema_error():
    doc = minimal_doc({"1.0.0": entry()})
    doc["service"]["family"] = 5
    with pytest.raises(SchemaError, match="'service.family'"):
        load_database(json.dumps(doc).encode())


def test_two_version_keys_naming_one_version_are_a_schema_error(db_doc):
    versions = db_doc["service"]["versions"]
    versions["5.2"] = versions["5.2.0"]
    with pytest.raises(SchemaError, match="'service.versions': '5.2.0' and '5.2' name the same"):
        load_database(json.dumps(db_doc))


def _entry_test(doc):
    return doc["service"]["versions"]["7.2.0"]["test"]


@pytest.mark.parametrize("where, mutate", [
    ("entry '7.2.0' 'variables'", lambda doc: _entry_test(doc).update(variables=["ax"])),
    ("entry '7.2.0' 'challenge.payload'", lambda doc: _entry_test(doc)["challenge"].update(payload=5)),
    ("entry '7.2.0' 'challenge'", lambda doc: _entry_test(doc).update(challenge=["x"])),
    ("entry '7.2.0' 'waittime'", lambda doc: _entry_test(doc).update(waittime="200ms")),
    ("entry '7.2.0' 'waittime.amount'",
     lambda doc: _entry_test(doc).update(waittime={"amount": "x"})),
    ("entry '7.2.0' 'waittime.type'",
     lambda doc: _entry_test(doc).update(waittime={"amount": 200, "type": 5})),
    ("'settings'", lambda doc: doc.update(settings=["BinarySearch"])),
    ("entry '7.2.0' variable 'ax' 'min'",
     lambda doc: _entry_test(doc)["variables"]["ax"].update(min="1")),
    ("settings 'strategies'", lambda doc: doc["settings"].update(strategies="CBS")),
    ("service 'name'", lambda doc: doc["service"].update(name=["x"])),
    ("entry '7.2.0' 'waittime.amount'",
     lambda doc: _entry_test(doc).update(waittime={"amount": float("nan")})),
    ("entry '7.2.0' 'waittime.amount'",
     lambda doc: _entry_test(doc).update(waittime={"amount": float("inf")})),
    ("entry '7.2.0' 'waittime.amount'",
     lambda doc: _entry_test(doc).update(waittime={"amount": 10**400})),
    ("default key 'version.test.waittime.amount'",
     lambda doc: doc["defaultvalues"].update({"version.test.waittime.amount": float("nan")})),
    ("default key 'version.test.waittime.amount'",
     lambda doc: doc["defaultvalues"].update({"version.test.waittime.amount": float("inf")})),
    ("default key 'version.test.waittime.amount'",
     lambda doc: doc["defaultvalues"].update({"version.test.waittime.amount": 10**400})),
    # A positive amount of milliseconds whose deadline underflows to 0 s.
    ("entry '7.2.0' 'waittime.amount'",
     lambda doc: _entry_test(doc).update(waittime={"amount": 5e-324})),
    ("default key 'version.test.waittime.amount'",
     lambda doc: doc["defaultvalues"].update({"version.test.waittime.amount": 5e-324})),
    ("settings 'interface.challenges'",
     lambda doc: doc["settings"].update({"interface.challenges": ["x", 1]})),
    ("settings 'interface.responses'",
     lambda doc: doc["settings"].update({"interface.responses": 5})),
    ("entry '7.2.0' 'expect.type'", lambda doc: _entry_test(doc)["expect"].update(type=["string"])),
    ("default key 'version.test.expect.type'",
     lambda doc: doc["defaultvalues"].update({"version.test.expect.type": 5})),
    ("entry '7.2.9' 'branching.7.2.0'",
     lambda doc: doc["service"]["versions"]["7.2.9"]["test"]["branching"].update({"7.2.0": [1]})),
], ids=["variables-list", "payload-int", "challenge-list", "waittime-string",
        "waittime-amount-not-a-number", "waittime-type-not-a-string", "settings-list",
        "variable-min-string",
        "strategies-string", "service-name-list", "waittime-amount-nan", "waittime-amount-inf",
        "waittime-amount-beyond-float", "default-amount-nan", "default-amount-inf",
        "default-amount-beyond-float", "waittime-amount-underflows", "default-amount-underflows",
        "interface-challenges-list", "interface-responses-int", "expect-type-list",
        "default-expect-type-int", "branching-flag-list"])
def test_malformed_field_type_is_a_schema_error_naming_entry_and_key(db_doc, where, mutate):
    mutate(db_doc)
    with pytest.raises(SchemaError, match=re.escape(f"{where} must be")):
        load_database(json.dumps(db_doc))


@pytest.mark.parametrize("named, mutate", [
    ("in settings 'strategies'", lambda doc: doc["settings"].update(strategies=[["CBS"]])),
    ("'version.test.variables.format'",
     lambda doc: doc["defaultvalues"].update({"version.test.variables.format": ["integer"]})),
], ids=["strategy-list", "default-format-list"])
def test_unhashable_setting_is_a_schema_error_naming_the_key(db_doc, named, mutate):
    mutate(db_doc)
    with pytest.raises(SchemaError, match=re.escape(named)):
        load_database(json.dumps(db_doc))


FIXTURE_TEXT = (Path(__file__).resolve().parents[1] / "fixtures" / "php_like_db.json").read_text()
SIM_TEXT = (Path(__file__).resolve().parents[1] / "fixtures" / "php_like_sim_honest.json").read_text()


def _paths(node, prefix=()):
    """The path to every value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _replaced(text, path, value):
    """The JSON document ``text`` with the value at ``path`` replaced by ``value``."""
    doc = json.loads(text)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


# Any JSON value, and the numbers Python's json also reads: NaN, the
# infinities and integers beyond float range.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4)


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(list(_paths(json.loads(FIXTURE_TEXT)))), value=JSON_VALUES)
def test_one_replaced_value_loads_or_is_a_database_error(path, value):
    try:
        db = load_database(_replaced(FIXTURE_TEXT, path, value))
    except DatabaseError:
        return
    assert all(math.isfinite(entry.wait_time) for entry in db.entries.values())
    assert math.isfinite(db.meta.wait_time())


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(list(_paths(json.loads(SIM_TEXT)))), value=JSON_VALUES)
def test_one_replaced_value_loads_or_is_a_sim_config_error(path, value):
    # The simulator config reads its fields through this module's rules.
    try:
        _, cfg = load_sim_config(_replaced(SIM_TEXT, path, value))
    except SimConfigError:
        return
    assert all(0 <= d < math.inf for d in (cfg.latency.base, cfg.latency.jitter, cfg.proxy_floor))


@pytest.mark.parametrize("name, load, error", [
    ("php_like_db.json", load_database, DatabaseError),
    ("php_like_sim_honest.json", load_sim_config, SimConfigError),
    ("php_like_sim_faker.json", load_sim_config, SimConfigError),
])
def test_a_document_cut_short_is_its_loaders_error(name, load, error):
    document = (Path(__file__).resolve().parents[1] / "fixtures" / name).read_bytes()
    # Every cut before the trailing whitespace, including inside a UTF-8 sequence.
    for end in range(len(document.rstrip())):
        try:
            load(document[:end])
        except error:
            continue
        pytest.fail(f"{name} cut at byte {end} loaded")


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


def reference_plan(db, v):
    """The recursive expansion ``resolve_plan`` once ran on every call: referrals
    depth-first, the entry's own test, then an expect-fail boundary."""
    if v not in db.entries:
        return ()
    steps, seen = [], set()

    def add(version):
        if version not in seen:
            seen.add(version)
            steps.append(PlanStep(version, True))

    def expand(version):
        entry = db.entries[version]
        for ref in entry.branching_refs:
            if ref != version:
                expand(ref)
            elif entry.has_payload:
                add(version)
        if entry.has_payload:
            add(version)

    expand(v)
    boundary = db.entries[v].deprecated_ref
    if boundary is not None and db.entries[boundary].has_payload and boundary not in seen:
        steps.append(PlanStep(boundary, False))
    return tuple(steps)


def test_resolved_plans_equal_the_recursive_expansion(db):
    synthetic = [load_database(json.dumps(synth_docs(seed)[0])) for seed in range(100)]
    for each in [db, *synthetic]:
        for v in each.family.versions:
            assert resolve_plan(each, v) == reference_plan(each, v), (each.meta.service_name, str(v))


def test_a_plan_is_resolved_once_and_shares_its_steps(db):
    for v in db.entry_versions:
        assert resolve_plan(db, v) is resolve_plan(db, v)
    steps: dict[PlanStep, set[int]] = {}
    for plan in db.plans.values():
        for step in plan:
            steps.setdefault(step, set()).add(id(step))
    assert all(len(ids) == 1 for step, ids in steps.items() if step.expect_pass)


def test_deep_referral_chain_resolves_in_version_order():
    db = load_database(json.dumps(chain_db_doc(2000)))
    plan = resolve_plan(db, pv("1.0.1999"))
    assert [s.version for s in plan] == list(db.family.versions)
    assert len(plan) == 2000 and all(s.expect_pass for s in plan)


def test_criterion_12_faults_are_named_exactly(db_doc):
    tests = db_doc["service"]["versions"]
    tests["7.2.9"]["test"]["branching"]["9.9.9"] = "1"
    with pytest.raises(DanglingReferralError) as dangling:
        load_database(json.dumps(db_doc))
    assert str(dangling.value) == "entry 7.2.9 refers to 9.9.9 which has no database entry"

    del tests["7.2.9"]["test"]["branching"]["9.9.9"]
    tests["7.0.22"]["test"]["deprecated"] = "7.1.99"
    with pytest.raises(DanglingReferralError) as boundary:
        load_database(json.dumps(db_doc))
    assert str(boundary.value) == ("entry 7.0.22 names deprecated boundary 7.1.99 "
                                   "which has no database entry")

    tests["7.0.22"]["test"]["deprecated"] = "7.1.0"
    tests["7.2.0"]["test"]["branching"] = {"7.2.9": "1"}
    with pytest.raises(ReferralCycleError) as cycle:
        load_database(json.dumps(db_doc))
    assert str(cycle.value) == "referral cycle: 7.2.0 -> 7.2.9 -> 7.2.0"


def test_backport_gap_derived_from_referrals(db):
    avail = db.availability[pv("7.1.21")]
    assert pv("7.1.21") in avail
    assert pv("7.2.0") not in avail
    assert pv("7.2.8") not in avail
    assert pv("7.2.9") in avail
    assert pv("7.3.0rc4") in avail


def test_plan_truth_set_matches_referral_conjunction(db):
    truth = db.family.select(plan_truth_set(db, pv("7.2.9")))
    expected = {v for v in db.family.versions if v >= pv("7.2.9")}
    assert set(truth) == expected


def test_fold_constraints_keeps_availability_or_its_complement(db):
    def fold(*args):
        return set(db.family.select(fold_constraints(db, *args)))

    avail = db.availability[pv("7.0.22")]
    assert fold([(pv("7.0.22"), True)]) == avail
    assert fold([(pv("7.0.22"), False)]) == set(db.family.versions) - avail
    narrowed = fold([(pv("7.1.0"), False)], db.avail_masks[pv("7.0.22")])
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


@pytest.mark.parametrize("seed", range(100))
def test_round_trip_synthetic_family(seed):
    db = load_database(json.dumps(synth_docs(seed)[0]).encode())
    blob = serialize_database(db)
    again = load_database(blob)
    assert again == db
    assert serialize_database(again) == blob


def test_defaults_fold_into_entries(db):
    assert db.entries[pv("7.2.0")].wait_time == pytest.approx(0.2)


def reference_tags(db, entry, side: str) -> Tags:
    """The tags a render once derived from the defaults and the entry's overrides."""
    defaults = db.meta.default_values

    def flag(name: str) -> bool:
        override = entry.tag_overrides.get(f"{side}.{name}")
        raw = override if override is not None else defaults.get(f"version.test.{side}.{name}", "false")
        return str(raw).lower() == "true"

    start = str(defaults.get(f"version.test.{side}.starttag", "")) if flag("setstarttag") else ""
    end = str(defaults.get(f"version.test.{side}.endtag", "")) if flag("setendtag") else ""
    return Tags(start.encode("utf-8"), end.encode("utf-8"))


def test_entry_tags_fold_the_defaults_and_the_overrides(db_doc):
    db_doc["defaultvalues"].update({"version.test.expect.starttag": "<<",
                                    "version.test.expect.endtag": ">>"})
    flags = [None, True, False, "true", "FALSE", "yes"]  # None: no override
    payload_entries = [body["test"] for body in db_doc["service"]["versions"].values()
                       if "challenge" in body["test"]]
    for i, test in enumerate(payload_entries):
        for j, (side, tag) in enumerate((("challenge", "setstarttag"), ("challenge", "setendtag"),
                                         ("expect", "setstarttag"), ("expect", "setendtag"))):
            value = flags[(i + j * 2) % len(flags)]
            if value is not None:
                test[side][tag] = value
    db = load_database(json.dumps(db_doc))
    seen = set()
    for entry in db.entries.values():
        assert entry.challenge_tags == reference_tags(db, entry, "challenge")
        assert entry.expect_tags == reference_tags(db, entry, "expect")
        seen.add((entry.challenge_tags, entry.expect_tags))
    assert len(seen) >= 4
    again = load_database(serialize_database(db))
    assert again == db
    assert [e.tag_overrides for e in again.entries.values()] == \
        [e.tag_overrides for e in db.entries.values()]


def test_per_entry_waittime_override():
    versions = {"1.0.0": entry(waittime={"amount": 500, "type": "milliseconds"})}
    db = load_database(json.dumps(minimal_doc(versions)).encode())
    assert db.entries[pv("1.0.0")].wait_time == pytest.approx(0.5)


@pytest.mark.parametrize("where, mutate", [
    ("entry '7.2.0' 'waittime.type'",
     lambda doc: _entry_test(doc).update(waittime={"amount": 200, "type": "hours"})),
    ("default key 'version.test.waittime.type'",
     lambda doc: doc["defaultvalues"].update({"version.test.waittime.type": "hours"})),
], ids=["entry", "default"])
def test_unknown_waittime_unit_is_a_schema_error_naming_the_key(db_doc, where, mutate):
    mutate(db_doc)
    with pytest.raises(SchemaError, match=re.escape(f"{where}: unknown waittime unit 'hours'")):
        load_database(json.dumps(db_doc))


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


def test_variable_without_format_takes_the_integer_default(db_doc):
    del db_doc["service"]["versions"]["7.2.0"]["test"]["variables"]["ax"]["format"]
    db = load_database(json.dumps(db_doc))
    assert db.entries[pv("7.2.0")].variables["ax"].format == "integer"


def test_unknown_default_variable_format_fails_at_load(db_doc):
    db_doc["defaultvalues"]["version.test.variables.format"] = "value"
    with pytest.raises(SchemaError, match="version.test.variables.format"):
        load_database(json.dumps(db_doc))


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


@pytest.mark.parametrize("fmt", ["string", "binary"])
def test_a_variable_length_above_the_bound_is_a_schema_error(db_doc, fmt):
    variables = _entry_test(db_doc)["variables"]
    variables["ax"] = {"format": fmt, "length": MAX_VARIABLE_LENGTH}
    assert load_database(json.dumps(db_doc)).entries[pv("7.2.0")].variables["ax"].length \
        == MAX_VARIABLE_LENGTH
    variables["ax"]["length"] = 10**7
    with pytest.raises(SchemaError, match=re.escape(f"variable 'ax': length {10**7} is above")):
        load_database(json.dumps(db_doc))


def _named_entries(db) -> list:
    """Each referral, boundary and window end of ``db`` that names an entry,
    with the entry's key; every label in the fixture and ``synth_docs`` is
    spelled as its entry key is."""
    keys = {v: v for v in db.entries}
    named = [ref for entry in db.entries.values()
             for ref in (*entry.branching_refs, entry.deprecated_ref,
                         *(end for window in entry.explicit_windows or () for end in window))
             if ref is not None and ref in keys]
    assert all(ref.raw == keys[ref].raw for ref in named)
    return [(ref, keys[ref]) for ref in named]


@pytest.mark.parametrize("seed", [None, *range(20)], ids=lambda s: "fixture" if s is None else s)
def test_every_label_naming_an_entry_is_the_entry_keys_object(db, seed):
    # Each label string is parsed once per document.
    if seed is not None:
        db = load_database(json.dumps(synth_docs(seed)[0]))
    named = _named_entries(db)
    assert named or seed is not None  # some synthetic families have no referral
    assert all(ref is key for ref, key in named)


def test_a_label_spelled_two_ways_behaves_as_its_canonical_spelling():
    canonical = {"7.2.0": entry(), "7.2.9": entry(branching={"7.2.0": "0"}),
                 "7.3.0": entry(), "7.3.1": entry(deprecated="7.4.0"), "7.4.0": entry(),
                 "7.4.1": entry(windows=[["7.2.0", "7.3.0"], ["7.4.0", None]])}
    mixed = {"7.2": entry(), "7.2.9": entry(branching={"7.2.0": "0"}),
             "7.3.0": entry(), "7.3.1": entry(deprecated="7.4"), "7.4.0": entry(),
             "7.4.1": entry(windows=[["7.2.0", "7.3"], ["7.4", None]])}
    family = ["7.2.0", "7.2.9", "7.3", "7.3.1", "7.4.0", "7.4.1"]
    want = load_database(json.dumps(minimal_doc(canonical, family=family)))
    got = load_database(json.dumps(minimal_doc(mixed, family=family)))
    assert got == want
    assert (got.plans, got.avail_masks) == (want.plans, want.avail_masks)
    assert serialize_database(got) == serialize_database(want)
    assert _family_holds_the_entry_keys(got)


def _family_holds_the_entry_keys(db) -> bool:
    return all(db.family.versions[db.family.index[k]] is k for k in db.entries)


def test_family_versions_are_the_entry_keys_own_objects(db):
    # A lookup of a family version in a dict keyed by entry versions is then
    # an identity hit, with no call to Version.__eq__.
    assert _family_holds_the_entry_keys(db)
    grown = add_entry(db, "7.2.15", challenge="var_dump(f(#ax#));", expect="f:ok:#ax#\n",
                      variables={"ax": VariableSpec("ax", "integer", min=1, max=9)})
    assert _family_holds_the_entry_keys(grown)
    assert _family_holds_the_entry_keys(load_database(serialize_database(grown)))
    # An entry added at a family version that had none takes its place.
    toy = load_database(json.dumps(minimal_doc({"1.0.0": entry()}, family=["1.0.0", "1.1.0"])))
    toy = add_entry(toy, "1.1.0", branching=["1.0.0"])
    assert len(toy.family) == 2
    assert _family_holds_the_entry_keys(toy)
    assert _family_holds_the_entry_keys(load_database(serialize_database(toy)))
