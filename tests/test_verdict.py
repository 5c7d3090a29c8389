import json

import pytest

from fpaudit.challenge import RandomnessSource
from fpaudit.database import load_database
from fpaudit.protocol import SubOutcome
from fpaudit.protocol import TestOutcome as PlanOutcome
from fpaudit.simulator import LatencyModel, SimProviderConfig, produce
from fpaudit.strategies import DecisionLog, run_audit
from fpaudit.transport import make_loopback
from fpaudit.verdict import (
    InconsistentLogError,
    build_report,
    candidates,
    compliance,
    compute_bounds,
    oracle_candidates,
)
from fpaudit.versions import parse_version as pv


def synthetic_log(observations):
    """Build a log from (version, delta) plan results with single sub-tests."""
    log = DecisionLog(strategy="manual")
    for label, delta in observations:
        v = pv(label)
        sub = SubOutcome(v, True, delta, None if delta else "mismatch", "exchanged")
        log.append_outcome(PlanOutcome(v, delta, (sub,), ()))
    return log


def test_bounds_simple_pair(db):
    log = synthetic_log([("7.2.0", True), ("7.3.0rc4", False)])
    bounds = compute_bounds(log, db)
    assert str(bounds.lower) == "7.2.0"
    assert str(bounds.upper) == "7.3.0rc4"
    cands = candidates(bounds, db)
    assert cands.labels() == ["7.2.0", "7.2.1", "7.2.2", "7.2.8", "7.2.9", "7.2.11", "7.2.14"]


def test_empty_log_whole_family(db):
    log = DecisionLog(strategy="manual")
    bounds = compute_bounds(log, db)
    assert bounds.lower is None and bounds.upper is None
    assert candidates(bounds, db).labels() == db.family.labels()


def test_branched_pair_restricts_to_lower_branch(db):
    # Shared test passes but the branch origin fails: the provider sits on
    # the lower branch at or above the back-port version.
    log = synthetic_log([("7.1.21", True), ("7.2.0", False)])
    bounds = compute_bounds(log, db)
    cands = candidates(bounds, db)
    assert cands.labels() == ["7.1.21"]


def test_branched_test_alone_keeps_both_windows(db):
    log = synthetic_log([("7.1.21", True)])
    cands = candidates(compute_bounds(log, db), db)
    assert cands.labels() == ["7.1.21", "7.2.9", "7.2.11", "7.2.14", "7.3.0rc4"]


def test_deprecated_window_constrains_candidates(db):
    log = synthetic_log([("7.0.22", True)])
    bounds = compute_bounds(log, db)
    assert bounds.deprecated_windows
    cands = candidates(bounds, db)
    assert cands.labels() == ["7.0.22", "7.0.26"]


def test_inconsistent_log_names_conflicting_pair(db):
    log = synthetic_log([("7.2.14", True), ("7.1.0", False)])
    with pytest.raises(InconsistentLogError) as err:
        compute_bounds(log, db)
    assert err.value.conflict is not None


def test_entry_less_versions_collapse_into_class():
    versions = {
        "7.2.12": {"test": {
            "variables": {"ax": {"format": "integer", "min": 1, "max": 9}},
            "challenge": {"payload": "var_dump(a(#ax#));"},
            "expect": {"payload": "a:ok:#ax#\n"},
        }},
        "7.2.14": {"test": {
            "variables": {"ax": {"format": "integer", "min": 1, "max": 9}},
            "challenge": {"payload": "var_dump(b(#ax#));"},
            "expect": {"payload": "b:ok:#ax#\n"},
        }},
    }
    doc = {
        "creationTimestamp": "2025-01-01T00:00:00+00:00",
        "lastUpdateTimestamp": "2025-01-01T00:00:00+00:00",
        "defaultvalues": {"version.test.waittime.amount": 200,
                          "version.test.waittime.type": "milliseconds"},
        "settings": {"strategies": ["BinarySearch"]},
        "service": {"name": "toy", "family": ["7.2.12", "7.2.13", "7.2.14"],
                    "versions": versions},
    }
    db = load_database(json.dumps(doc).encode())
    log = synthetic_log([("7.2.12", True), ("7.2.14", False)])
    cands = candidates(compute_bounds(log, db), db)
    assert cands.labels() == ["7.2.12", "7.2.13"]
    assert compliance(cands, pv("7.2.13")) is True


def test_compliance_membership(db):
    log = synthetic_log([("7.1.1", True), ("7.1.13", False), ("7.0.26", False)])
    cands = candidates(compute_bounds(log, db), db)
    assert cands.labels() == ["7.1.1"]
    assert compliance(cands, pv("7.3.0")) is False
    assert compliance(cands, pv("7.1.1")) is True


def test_oracle_empty_log_whole_family(db, sim_family):
    log = DecisionLog(strategy="manual")
    assert oracle_candidates(log, db, sim_family).labels() == db.family.labels()


def test_oracle_rejects_inconsistent_log(db, sim_family):
    log = synthetic_log([("7.2.14", True), ("7.1.0", False)])
    assert len(oracle_candidates(log, db, sim_family)) == 0


def test_oracle_matches_candidates_for_real_audits(db, sim_family):
    for source in ("7.2.14", "7.1.1", "7.0.22", "4.0.0b1", "7.3.0rc4"):
        cfg = SimProviderConfig(src_version=pv(source),
                                latency=LatencyModel(0.001, 0.0), seed=4)
        endpoints = make_loopback(produce(sim_family, cfg))
        log = run_audit(db, "BS", endpoints, RandomnessSource(seed=8),
                        budget=len(db.family) + 8)
        report = build_report(log, db)
        oracle = oracle_candidates(log, db, sim_family)
        assert oracle.members == report.candidate_set.members
        assert pv(source) in report.candidate_set


def test_monotone_consistency_within_branch(db, sim_family):
    # A passed test never forces a lower same-chain test to read false.
    for source in ("7.2.14", "7.1.13"):
        cfg = SimProviderConfig(src_version=pv(source),
                                latency=LatencyModel(0.001, 0.0), seed=4)
        endpoints = make_loopback(produce(sim_family, cfg))
        log = run_audit(db, "LTH", endpoints, RandomnessSource(seed=8),
                        budget=len(db.family) + 8)
        obs = log.intrinsic_observations()
        for v, seen in obs.items():
            if not seen:
                continue
            for u, seen_u in obs.items():
                if u < v and db.availability[u] >= db.availability[v]:
                    assert seen_u, (source, str(v), str(u))


def test_report_table_shape(db, honest_endpoints, rng):
    log = run_audit(db, "CBS", honest_endpoints("7.2.14"), rng)
    report = build_report(log, db, target=pv("7.2.14"), claimed_version="7.2.14")
    doc = report.to_doc()
    assert doc["compliance"] is True
    assert [row["Testorder"] for row in doc["tests"]] == list(range(1, len(doc["tests"]) + 1))
    assert {"Version", "Result", "Testorder", "origin"} <= set(doc["tests"][0])
    assert doc["candidates"] == ["7.2.14"]


def test_report_inconsistency_path(db):
    log = synthetic_log([("7.2.14", True), ("7.1.0", False)])
    report = build_report(log, db, target=pv("7.2.14"))
    assert report.inconsistency is not None
    assert report.candidate_set is None
    assert report.compliant is None


def test_budget_stopped_audit_leaves_compliance_undecided(db, honest_endpoints, rng):
    log = run_audit(db, "HTL", honest_endpoints("7.2.14"), rng, budget=1)
    report = build_report(log, db, target=pv("7.2.14"))
    assert pv("7.2.14") in report.candidate_set
    assert len(report.candidate_set) > 1
    assert report.compliant is None
