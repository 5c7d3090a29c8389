import json

import pytest

from fpaudit import database, verdict
from fpaudit.challenge import RandomnessSource
from fpaudit.database import load_database, resolve_plan
from fpaudit.protocol import SubOutcome, run_test, transport_probe
from fpaudit.protocol import TestOutcome as PlanOutcome
from fpaudit.simulator import LatencyModel, SimProviderConfig, produce, sim_family_from_doc
from fpaudit.strategies import STRATEGIES, AuditContext, AuditError, DecisionLog, run_audit
from families import synth_docs
from fpaudit.transport import make_loopback
from fpaudit.verdict import build_report
from fpaudit.versions import parse_version as pv


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
    pick = STRATEGIES["BS"]().pick(ctx, ctx.informative())
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


def test_truth_sets_are_derived_once_per_database(db_doc, sim_family, monkeypatch):
    fresh = load_database(json.dumps(db_doc))
    calls = []
    real = database.plan_truth_set
    monkeypatch.setattr(database, "plan_truth_set", lambda db, v: calls.append(v) or real(db, v))
    per_audit = []
    for source in ("7.2.14", "7.1.1"):
        cfg = SimProviderConfig(src_version=pv(source), latency=LatencyModel(0.001, 0.0), seed=2)
        before = len(calls)
        log = run_audit(fresh, "CBS", make_loopback(produce(sim_family, cfg)),
                        RandomnessSource(seed=3))
        build_report(log, fresh)
        per_audit.append(len(calls) - before)
    assert per_audit == [len(fresh.entries), 0]


def test_log_rejects_a_contradicting_observation():
    v, w = pv("7.2.0"), pv("7.2.1")
    log = DecisionLog()
    log.append_outcome(PlanOutcome(v, True, (SubOutcome(v, True, True, None, "exchanged"),), ()))
    contradiction = SubOutcome(v, True, False, "mismatch", "implied")
    with pytest.raises(AuditError, match="observed both"):
        log.append_outcome(PlanOutcome(w, False, (contradiction,), ()))
    assert log.deltas == {pv("7.2.0"): True}
    assert log.observations == {pv("7.2.0"): True}


def test_report_folds_a_consistent_log_once(db, honest_endpoints, rng, monkeypatch):
    log = run_audit(db, "CBS", honest_endpoints("7.2.14"), rng)
    calls = []
    real = verdict.fold_constraints
    monkeypatch.setattr(verdict, "fold_constraints", lambda *a: calls.append(a) or real(*a))
    report = build_report(log, db)
    assert report.candidate_set.labels() == ["7.2.14"]
    assert len(calls) == 1


def _status_checks(db, sim, src, behavior: str) -> int:
    """Audit step by step with every strategy; after each step, while any
    candidate is left, a tested entry's status must be its logged result."""
    fakeable = tuple(sorted(n for n, fn in sim.functions.items() if not fn.hard))
    checked = 0
    for strategy in STRATEGIES.values():
        cfg = SimProviderConfig(src_version=src, behavior=behavior, claim_label="99.0.0-fake",
                                latency=LatencyModel(0.001, 0.0), fake_functions=fakeable, seed=2)
        probe = transport_probe(make_loopback(produce(sim, cfg)), RandomnessSource(seed=7), db)
        ctx = AuditContext(db)
        while informative := ctx.informative():
            pick = strategy().pick(ctx, informative) or informative[0]
            ctx.apply(run_test(resolve_plan(db, pick), pick, probe, prior=ctx.log.observations))
            if not ctx.candidates:
                break
            for outcome in ctx.log.plan_outcomes():
                assert ctx.status(outcome.version) == outcome.delta, \
                    (strategy.name, str(src), behavior, str(outcome.version))
                checked += 1
    return checked


def test_status_of_a_tested_entry_is_its_result_on_the_fixture(db, sim_family):
    checked = sum(_status_checks(db, sim_family, src, behavior)
                  for src in sim_family.family.versions
                  for behavior in ("honest", "function-faker", "proxy"))
    assert checked > 1000


def test_status_of_a_tested_entry_is_its_result_on_synthetic_families():
    import random

    checked = 0
    for seed in range(12):
        db_doc, sim_doc = synth_docs(seed=32000 + seed)
        db = load_database(json.dumps(db_doc))
        sim = sim_family_from_doc(sim_doc)
        versions = sim.family.versions
        for src in random.Random(seed).sample(versions, min(3, len(versions))):
            checked += _status_checks(db, sim, src, "honest")
    assert checked > 500
