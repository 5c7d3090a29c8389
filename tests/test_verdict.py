import json
import random

import pytest

from fpaudit.challenge import RandomnessSource, render_test
from fpaudit.database import fold_constraints, load_database, resolve_plan
from fpaudit.protocol import SubOutcome
from fpaudit.protocol import TestOutcome as PlanOutcome
from fpaudit.simulator import (HonestResponder, LatencyModel, RecordingResponder, SimProviderConfig,
                               produce, sim_family_from_doc)
from fpaudit.strategies import STRATEGIES, DecisionLog, run_audit
from fpaudit.transport import ExchangeRecord, make_loopback
from fpaudit.verdict import (
    Bounds,
    CandidateSet,
    InconsistentLogError,
    _name_conflict,
    build_report,
    compute_bounds,
    oracle_candidates,
)
from fpaudit.versions import parse_version as pv
from fpaudit.versions import render_version
from families import synth_docs


def synthetic_log(observations):
    """Build a log from (version, delta) plan results with single sub-tests."""
    log = DecisionLog(strategy="manual")
    for label, delta in observations:
        v = pv(label)
        sub = SubOutcome(v, True, delta, None if delta else "mismatch", "exchanged")
        log.append_outcome(PlanOutcome(v, delta, (sub,), ()))
    return log


def labels(bounds) -> list[str]:
    return [render_version(v) for v in bounds.members]


def test_bounds_simple_pair(db):
    log = synthetic_log([("7.2.0", True), ("7.3.0rc4", False)])
    bounds = compute_bounds(log, db)
    assert str(bounds.lower) == "7.2.0"
    assert str(bounds.upper) == "7.3.0rc4"
    assert labels(bounds) == ["7.2.0", "7.2.1", "7.2.2", "7.2.8", "7.2.9", "7.2.11", "7.2.14"]


def test_empty_log_whole_family(db):
    log = DecisionLog(strategy="manual")
    bounds = compute_bounds(log, db)
    assert bounds.lower is None and bounds.upper is None
    assert labels(bounds) == db.family.labels()


def test_branched_pair_restricts_to_lower_branch(db):
    # Shared test passes but the branch origin fails: the provider sits on
    # the lower branch at or above the back-port version.
    log = synthetic_log([("7.1.21", True), ("7.2.0", False)])
    assert labels(compute_bounds(log, db)) == ["7.1.21"]


def test_branched_test_alone_keeps_both_windows(db):
    log = synthetic_log([("7.1.21", True)])
    assert labels(compute_bounds(log, db)) == ["7.1.21", "7.2.9", "7.2.11", "7.2.14", "7.3.0rc4"]


def test_deprecated_window_constrains_candidates(db):
    log = synthetic_log([("7.0.22", True)])
    bounds = compute_bounds(log, db)
    assert bounds.deprecated_windows
    assert labels(bounds) == ["7.0.22", "7.0.26"]


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
    assert labels(compute_bounds(log, db)) == ["7.2.12", "7.2.13"]
    assert build_report(log, db, target=pv("7.2.13")).compliant is True


def test_compliance_membership(db):
    log = synthetic_log([("7.1.1", True), ("7.1.13", False), ("7.0.26", False)])
    assert labels(compute_bounds(log, db)) == ["7.1.1"]
    assert build_report(log, db, target=pv("7.3.0")).compliant is False
    assert build_report(log, db, target=pv("7.1.1")).compliant is True


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
        members = report.candidate_set.members
        if report.bounds.lower is not None:
            assert report.bounds.lower <= members[0]
        if report.bounds.upper is not None:
            assert report.bounds.upper > members[-1]


def test_a_pass_whose_window_starts_below_its_entry_sets_no_lower_bound(db_doc, sim_family):
    # A hand-written back-port: 4.4.9's function is declared available from
    # 4.0.0b1, so passing it does not place the provider at or above 4.4.9.
    db_doc["service"]["versions"]["4.4.9"]["test"]["windows"] = [["4.0.0b1", None]]
    db = load_database(json.dumps(db_doc))
    cfg = SimProviderConfig(src_version=pv("4.4.9"), latency=LatencyModel(0.001, 0.0), seed=4)
    log = run_audit(db, "BS", make_loopback(produce(sim_family, cfg)), RandomnessSource(seed=8))
    bounds = build_report(log, db).bounds
    assert log.observations[pv("4.4.9")] is True
    assert labels(bounds) == ["4.0.0b1", "4.4.9"]
    assert bounds.lower is None


def test_monotone_consistency_within_branch(db, sim_family):
    # A passed test never forces a lower same-chain test to read false.
    for source in ("7.2.14", "7.1.13"):
        cfg = SimProviderConfig(src_version=pv(source),
                                latency=LatencyModel(0.001, 0.0), seed=4)
        endpoints = make_loopback(produce(sim_family, cfg))
        log = run_audit(db, "LTH", endpoints, RandomnessSource(seed=8),
                        budget=len(db.family) + 8)
        obs = log.observations
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


def test_an_exchange_failed_in_transport_leaves_compliance_undecided(db):
    failed = pv("7.3.0rc4")
    sub = SubOutcome(failed, True, False, "transport-error", "exchanged")
    record = ExchangeRecord(b"challenge", None, 0.0, 0.0, 0.0, "connection refused")
    log = synthetic_log([("7.2.0", True)])
    log.append_outcome(PlanOutcome(failed, False, (sub,), (record,)))
    assert log.transport_error() == "connection refused"
    report = build_report(log, db, target=pv("7.2.14"))
    assert pv("7.2.14") in report.candidate_set
    assert report.compliant is None
    # The same observations reached over a working transport decide it.
    decided = build_report(synthetic_log([("7.2.0", True), ("7.3.0rc4", False)]), db,
                           target=pv("7.2.14"))
    assert decided.candidate_set.members == report.candidate_set.members
    assert decided.compliant is True


def test_budget_stopped_audit_leaves_compliance_undecided(db, honest_endpoints, rng):
    log = run_audit(db, "HTL", honest_endpoints("7.2.14"), rng, budget=1)
    report = build_report(log, db, target=pv("7.2.14"))
    assert pv("7.2.14") in report.candidate_set
    assert len(report.candidate_set) > 1
    assert report.compliant is None


# -- compute_bounds as it was before its one-pass form, kept as the reference --


def reference_bounds(log, db) -> Bounds:
    index = db.family.index
    observations = sorted(log.observations.items(), key=lambda item: index[item[0]])
    members = fold_constraints(db, observations)
    if not members and observations:
        raise InconsistentLogError(*_name_conflict(db, observations))
    compound = {o.version: o.delta for o in log.plan_outcomes()}
    full = db.family.full
    upward = {v: full & ~((1 << index[v]) - 1) for v in compound}
    true_versions = [v for v, d in compound.items() if d]
    truth = db.truth
    lower = max([v for v in true_versions if not truth[v] & ~upward[v]], default=None)
    upper = min([v for v, d in compound.items() if not d and truth[v] == upward[v]], default=None)
    avail = db.avail_masks
    return Bounds(
        lower=lower,
        upper=upper,
        family=db.family,
        deprecated_masks=tuple(avail[v] for v in true_versions
                               if avail.get(v) and avail[v] != upward[v]),
        exclusion_masks=tuple(avail[v] for v, observed in observations if not observed and avail[v]),
        members=db.family.select(members),
    )


BEHAVIORS = ("honest", "claim-faker", "function-faker", "proxy", "cacher")


def audit_logs(db, sim, sources):
    """Logs of every strategy against a provider at each source with each
    behaviour; the cacher replays one honest CBS audit of the middle version."""
    recorder = RecordingResponder(HonestResponder(sim, sim.family.versions[len(sim.family) // 2]))
    run_audit(db, "CBS", make_loopback(recorder), RandomnessSource(seed=1))
    fakeable = tuple(sorted(n for n, fn in sim.functions.items() if not fn.hard))
    for name in STRATEGIES:
        for src in sources:
            for behavior in BEHAVIORS:
                cfg = SimProviderConfig(src_version=src, behavior=behavior, claim_label="99.0.0",
                                        latency=LatencyModel(0.001, 0.0), fake_functions=fakeable,
                                        cache_store=recorder.store, seed=3)
                yield run_audit(db, name, make_loopback(produce(sim, cfg)), RandomnessSource(seed=9))


def assert_bounds_match_reference(db, logs) -> tuple[int, int]:
    """Every field of ``compute_bounds`` equals the reference's, and so does
    the message of a contradiction; returns (consistent, inconsistent) counts."""
    counts = [0, 0]
    for log in logs:
        try:
            want = reference_bounds(log, db)
        except InconsistentLogError as exc:
            with pytest.raises(InconsistentLogError) as got:
                compute_bounds(log, db)
            assert (str(got.value), got.value.conflict) == (str(exc), exc.conflict)
            counts[1] += 1
            continue
        got = compute_bounds(log, db)
        fields = ("lower", "upper", "deprecated_masks", "exclusion_masks", "members")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields], \
            [str(r.version) for r in log.rows]
        counts[0] += 1
    return counts[0], counts[1]


def test_bounds_match_the_reference_on_fixture_audits(db, sim_family):
    consistent, inconsistent = assert_bounds_match_reference(
        db, audit_logs(db, sim_family, sim_family.family.versions))
    assert consistent > 300 and inconsistent > 20


def test_bounds_match_the_reference_on_synthetic_families():
    consistent = inconsistent = 0
    for seed in range(20):
        db_doc, sim_doc = synth_docs(seed)
        db, sim = load_database(json.dumps(db_doc)), sim_family_from_doc(sim_doc)
        c, i = assert_bounds_match_reference(db, audit_logs(db, sim, sim.family.versions))
        consistent, inconsistent = consistent + c, inconsistent + i
    assert consistent > 1000 and inconsistent > 0


# -- oracle_candidates as it was before it rendered each entry once, kept as the reference --


def reference_oracle_candidates(log, db, sim_family) -> CandidateSet:
    logged = []
    for outcome in log.plan_outcomes():
        plan = resolve_plan(db, outcome.version)
        logged.append((outcome, plan))

    observe_cache = {}

    def observe(tested, src) -> bool:
        key = (tested, src)
        if key not in observe_cache:
            rendered = render_test(db, tested, RandomnessSource(seed=0xA11D17))
            responder = HonestResponder(sim_family, src, latency=LatencyModel(0.0, 0.0))
            observe_cache[key] = responder.evaluate(rendered.challenge_payload) == rendered.expected_payload
        return observe_cache[key]

    survivors = []
    for src in sim_family.family.versions:
        prior = {}
        consistent = True
        for outcome, plan in logged:
            delta = True
            replayed = []
            for step in plan:
                observed = prior[step.version] if step.version in prior else observe(step.version, src)
                prior.setdefault(step.version, observed)
                replayed.append((step.version, observed))
                if observed != step.expect_pass:
                    delta = False
                    break
            logged_subs = [(s.version, s.observed) for s in outcome.sub_outcomes]
            if delta != outcome.delta or replayed != logged_subs:
                consistent = False
                break
        if consistent:
            survivors.append(src)
    return CandidateSet(tuple(sorted(survivors)))


def assert_oracle_matches_reference(db, sim, logs) -> tuple[int, int]:
    """``oracle_candidates`` equals the reference on every log; returns the
    number of logs and how many of them left no candidate."""
    counts = [0, 0]
    for log in logs:
        got, want = oracle_candidates(log, db, sim), reference_oracle_candidates(log, db, sim)
        assert got == want, [str(r.version) for r in log.rows]
        counts[0] += 1
        counts[1] += not got.members
    return counts[0], counts[1]


def test_oracle_matches_the_reference_on_fixture_audits(db, sim_family):
    logs, empty = assert_oracle_matches_reference(
        db, sim_family, audit_logs(db, sim_family, sim_family.family.versions))
    assert logs == 600 and 0 < empty < logs


def test_oracle_matches_the_reference_on_synthetic_families():
    logs = empty = 0
    for seed in range(20):
        db_doc, sim_doc = synth_docs(seed)
        db, sim = load_database(json.dumps(db_doc)), sim_family_from_doc(sim_doc)
        versions = sim.family.versions
        sources = random.Random(seed).sample(versions, min(3, len(versions)))
        n, e = assert_oracle_matches_reference(db, sim, audit_logs(db, sim, sources))
        logs, empty = logs + n, empty + e
    assert logs > 1000 and 0 < empty < logs


def toy_db():
    """Entries at 7.2.12 and 7.2.14 of a family that also lists 7.2.13."""
    test = {"variables": {"ax": {"format": "integer", "min": 1, "max": 9}},
            "challenge": {"payload": "var_dump(a(#ax#));"}, "expect": {"payload": "a:ok:#ax#\n"}}
    return load_database(json.dumps({
        "creationTimestamp": "2025-01-01T00:00:00+00:00",
        "service": {"name": "toy", "family": ["7.2.12", "7.2.13", "7.2.14"],
                    "versions": {"7.2.12": {"test": test}, "7.2.14": {"test": test}}}}))


def test_candidate_membership_is_a_lookup_built_on_first_use(db):
    members = db.family.versions[3:9]
    c = CandidateSet(members)
    assert "_lookup" not in vars(c)  # a set nobody queries builds none
    twin = pv(render_version(members[2]))  # parsed apart from the database
    assert twin == members[2] and twin is not members[2]
    assert twin in c
    assert db.family.versions[0] not in c and db.family.versions[-1] not in c
    assert pv("99.0.0") not in db.family and pv("99.0.0") not in c
    # Members, labels and equality are unchanged by the lookup.
    assert c.members == members and len(c) == 6
    assert c.labels() == [render_version(v) for v in members]
    assert c == CandidateSet(members) and hash(c) == hash(CandidateSet(members))
    assert CandidateSet(()) != c and pv("7.2.14") not in CandidateSet(())


def test_an_entry_less_family_version_is_a_member():
    db = toy_db()
    report = build_report(synthetic_log([("7.2.12", True), ("7.2.14", False)]), db,
                          target=pv("7.2.13"))
    assert pv("7.2.13") not in db.entries
    assert pv("7.2.13") in report.candidate_set and pv("7.2.12") in report.candidate_set
    assert pv("7.2.14") not in report.candidate_set
    assert report.candidate_set.labels() == ["7.2.12", "7.2.13"] and report.compliant is True
