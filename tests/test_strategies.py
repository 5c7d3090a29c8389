import json

import pytest

from fpaudit.challenge import RandomnessSource
from fpaudit.database import load_database
from fpaudit.simulator import LatencyModel, SimProviderConfig, produce, sim_family_from_doc
from fpaudit.strategies import STRATEGIES, AuditError, AuditContext, run_audit
from fpaudit.synth import synth_docs
from fpaudit.transport import make_loopback
from fpaudit.verdict import build_report


def trace(log):
    return [(str(r.version), r.delta) for r in log.rows]


def test_budget_zero_stops_immediately(db, honest_endpoints, rng):
    log = run_audit(db, "CBS", honest_endpoints("7.2.14"), rng, budget=0)
    assert log.rows == []


def test_stop_reason_tells_budget_from_convergence(db, honest_endpoints, rng):
    assert run_audit(db, "HTL", honest_endpoints("7.2.14"), rng, budget=1).stop_reason == "budget"
    assert run_audit(db, "HTL", honest_endpoints("7.2.14"), rng).stop_reason == "converged"


def test_unknown_strategy_rejected(db, honest_endpoints, rng):
    with pytest.raises(AuditError, match="nope"):
        run_audit(db, "nope", honest_endpoints("7.2.14"), rng)


def test_disabled_strategy_rejected(honest_endpoints, rng, db_doc):
    doc = db_doc
    doc["settings"]["strategies"] = ["HighToLow"]
    db = load_database(json.dumps(doc).encode())
    with pytest.raises(AuditError, match="not enabled"):
        run_audit(db, "CBS", honest_endpoints("7.2.14"), rng)


def test_bisection_starts_at_middle_of_seven():
    # Seven plain chained versions: the first pick is the middle element.
    labels = [f"1.0.{i}" for i in range(7)]
    versions = {
        lbl: {"test": {
            "variables": {"ax": {"format": "integer", "min": 1, "max": 999}},
            "challenge": {"payload": f"var_dump(api_1_0_{i}(#ax#));"},
            "expect": {"payload": f"api_1_0_{i}:ok:#ax#\n"},
        }}
        for i, lbl in enumerate(labels)
    }
    doc = {
        "creationTimestamp": "2025-01-01T00:00:00+00:00",
        "lastUpdateTimestamp": "2025-01-01T00:00:00+00:00",
        "defaultvalues": {"version.test.waittime.amount": 200,
                          "version.test.waittime.type": "milliseconds"},
        "settings": {"strategies": ["BinarySearch"]},
        "service": {"name": "chain", "versions": versions},
    }
    db = load_database(json.dumps(doc).encode())
    ctx = AuditContext(db)
    pick = STRATEGIES["BS"]().pick(ctx)
    assert str(pick) == "1.0.3"


def test_no_repeats_and_termination_all_strategies(db, honest_endpoints):
    for name in STRATEGIES:
        for source in ("7.2.14", "7.1.1", "4.4.9", "7.3.0rc4", "5.6.31"):
            log = run_audit(db, name, honest_endpoints(source),
                            RandomnessSource(seed=5), budget=len(db.family) + 8)
            versions = [r.version for r in log.rows]
            assert len(versions) == len(set(versions)), (name, source)
            assert len(log.plan_outcomes()) <= len(db.family)


def test_htl_two_step_against_newest_honest(db, honest_endpoints, rng):
    log = run_audit(db, "HTL", honest_endpoints("7.2.14"), rng)
    assert trace(log) == [("7.3.0rc4", False), ("7.2.14", True)]
    assert log.exchange_count() == 2


def test_htl_backport_caveat_ordering(db, honest_endpoints, rng):
    # Provider sits below the fork: after the 7.2 branch origin fails, the
    # strategy must fall through the shared 7.1.x tests in order.
    log = run_audit(db, "HTL", honest_endpoints("7.1.20"), rng, budget=40)
    seen = [str(r.version) for r in log.rows]
    assert "7.2.8" not in seen[: seen.index("7.1.21")]  # skipped implied-false 7.2.x
    rep = build_report(log, db)
    assert rep.candidate_set.labels() == ["7.1.20"]


def test_cbs_walkthrough_structure(db, honest_endpoints, rng):
    log = run_audit(db, "CBS", honest_endpoints("7.2.14"), rng)
    assert trace(log) == [
        ("5.0.0b1", True), ("7.0.0", True), ("7.2.0", True), ("7.3.0rc4", False),
        ("7.1.21", True), ("7.2.9", True), ("7.2.14", True),
    ]


def test_hmsu_walkthrough_against_faker(db, faker_endpoints, rng):
    log = run_audit(db, "HMSU", faker_endpoints, rng, budget=40)
    rep = build_report(log, db)
    assert rep.candidate_set.labels() == ["7.1.1"]
    assert trace(log)[:3] == [("7.0.0", True), ("7.1.0", True), ("7.2.0", False)]
    assert len(log.rows) <= len(db.family)


def test_implied_subtests_do_not_exchange(db, honest_endpoints, rng):
    log = run_audit(db, "HMSU", honest_endpoints("7.2.14"), rng, budget=40)
    implied = [
        sub
        for outcome in log.plan_outcomes()
        for sub in outcome.sub_outcomes
        if sub.provenance == "implied"
    ]
    assert implied, "referral reuse should occur in the walkthrough"
    assert log.exchange_count() < sum(len(o.sub_outcomes) for o in log.plan_outcomes())


def test_bisection_test_count_logarithmic_on_chain():
    # Perfect chain database: BS and CBS need at most ceil(log2 n) tests
    # plus constant level overhead.
    import math

    labels = [f"1.0.{i}" for i in range(16)]
    versions = {
        lbl: {"test": {
            "variables": {"ax": {"format": "integer", "min": 1, "max": 999}},
            "challenge": {"payload": f"var_dump(api_1_0_{i}(#ax#));"},
            "expect": {"payload": f"api_1_0_{i}:ok:#ax#\n"},
        }}
        for i, lbl in enumerate(labels)
    }
    doc = {
        "creationTimestamp": "2025-01-01T00:00:00+00:00",
        "lastUpdateTimestamp": "2025-01-01T00:00:00+00:00",
        "defaultvalues": {"version.test.waittime.amount": 200,
                          "version.test.waittime.type": "milliseconds"},
        "settings": {"strategies": ["BinarySearch", "CascadingBinarySearch"]},
        "service": {"name": "chain", "versions": versions},
    }
    db = load_database(json.dumps(doc).encode())
    sim = sim_family_from_doc({
        "family": {"name": "chain", "versions": labels},
        "functions": {
            f"api_1_0_{i}": {"windows": [[lbl, None]], "hard": True, "behavior": "echo-ok"}
            for i, lbl in enumerate(labels)
        },
    })
    bound = math.ceil(math.log2(len(labels))) + 2
    for src in sim.family.versions:
        cfg = SimProviderConfig(src_version=src, latency=LatencyModel(0.001, 0.0), seed=2)
        endpoints = make_loopback(produce(sim, cfg))
        for name in ("BS", "CBS"):
            log = run_audit(db, name, endpoints, RandomnessSource(seed=3), budget=64)
            count = len(log.plan_outcomes())
            assert count <= bound, (name, str(src), count, bound)
            assert build_report(log, db).candidate_set.members == (src,)


def test_agreement_on_randomized_families():
    import random

    for trial in range(25):
        db_doc, sim_doc = synth_docs(seed=31000 + trial)
        db = load_database(json.dumps(db_doc).encode())
        sim = sim_family_from_doc(sim_doc)
        src = random.Random(trial).choice(sim.family.versions)
        cfg = SimProviderConfig(src_version=src, latency=LatencyModel(0.001, 0.0), seed=2)
        endpoints = make_loopback(produce(sim, cfg))
        outcomes = set()
        for name in STRATEGIES:
            log = run_audit(db, name, endpoints, RandomnessSource(seed=trial),
                            budget=len(db.family) + 8)
            report = build_report(log, db)
            assert src in report.candidate_set
            outcomes.add(report.candidate_set.members)
        assert len(outcomes) == 1, (trial, str(src))
