"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Every criterion prints a PASS line so a full run reads as a checklist.
Run with ``pytest tests/test_acceptance.py -s``.

Analytical soundness parameters: the scheme's correctness and soundness
error terms (response-collision probability over the randomness range, and
the security parameter they scale with) are design-time quantities; they
are documented here and never computed at runtime.  The candidate-set
guarantees below are exact given honest timing.
"""

import copy
import json
import random
import sys
import time
from pathlib import Path

import pytest

from fpaudit.challenge import RandomnessSource
from fpaudit.database import (
    DanglingReferralError,
    ReferralCycleError,
    load_database,
    resolve_plan,
    serialize_database,
)
from fpaudit.outsourced import (
    AuditorParty,
    ProviderParty,
    OutsourcedSession,
    UserParty,
    PartyIdentity,
    verify_liability,
)
from fpaudit.protocol import run_test, transport_probe
from fpaudit.simulator import (
    CacherResponder,
    HonestResponder,
    LatencyModel,
    RecordingResponder,
    SimProviderConfig,
    produce,
    sim_family_from_doc,
)
from fpaudit.strategies import STRATEGIES, run_audit
from families import authored_grid, synth_docs
from fpaudit.transport import make_loopback, probe_version_claim
from fpaudit.verdict import build_report, oracle_candidates
from fpaudit.versions import Version, parse_version as pv

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import grid  # noqa: E402

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
TRIAL_COUNT = 200
TRIAL_SEED_BASE = 52000


@pytest.fixture(scope="module")
def agreement_trials():
    """Shared randomized trials for the agreement and oracle criteria."""
    started = time.monotonic()
    trials = []
    for i in range(TRIAL_COUNT):
        db_doc, sim_doc = synth_docs(seed=TRIAL_SEED_BASE + i)
        db = load_database(json.dumps(db_doc).encode())
        sim = sim_family_from_doc(sim_doc)
        src = random.Random(i).choice(sim.family.versions)
        cfg = SimProviderConfig(src_version=src, latency=LatencyModel(0.001, 0.0), seed=3)
        endpoints = make_loopback(produce(sim, cfg))
        per_strategy = {}
        for name in STRATEGIES:
            log = run_audit(db, name, endpoints, RandomnessSource(seed=i),
                            budget=len(db.family) + 8)
            report = build_report(log, db)
            oracle = oracle_candidates(log, db, sim)
            per_strategy[name] = (report, oracle)
        trials.append({"src": src, "results": per_strategy, "family": len(db.family)})
    return {"trials": trials, "elapsed": time.monotonic() - started}


def test_criterion_1_faker_defeat(db, faker_endpoints):
    started = time.monotonic()
    claim = probe_version_claim(faker_endpoints)
    assert claim == "20.9.85-car"
    target = pv("7.3.0")
    rows = {}
    for name in ("CBS", "HMSU"):
        for attempt in range(2):  # identical reruns under the same seed
            log = run_audit(db, name, faker_endpoints, RandomnessSource(seed=9))
            report = build_report(log, db, target=target, claimed_version=claim)
            assert report.candidate_set.labels() == ["7.1.1"], name
            assert report.compliant is False
            trace = [(str(r.version), r.delta) for r in log.rows]
            rows.setdefault(name, trace)
            assert rows[name] == trace, f"{name} not deterministic under seed"
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"faker defeat took {elapsed:.2f}s"
    print(f"\nPASS criterion 1: claim probe fooled ({claim}), CBS and HMSU both "
          f"determined 7.1.1, non-compliant vs 7.3.0, in {elapsed:.2f}s")


def test_criterion_2_cbs_walkthrough(db, honest_endpoints):
    log = run_audit(db, "CBS", honest_endpoints("7.2.14"), RandomnessSource(seed=9))
    trace = [(str(r.version), r.delta) for r in log.rows]
    assert trace[:4] == [
        ("5.0.0b1", True), ("7.0.0", True), ("7.2.0", True), ("7.3.0rc4", False),
    ]
    assert len(trace) == 7, trace
    report = build_report(log, db)
    assert report.candidate_set.labels() == ["7.2.14"]
    assert str(report.bounds.lower) == "7.2.14"
    assert str(report.bounds.upper) == "7.3.0rc4"
    print("\nPASS criterion 2: CBS walkthrough reproduced "
          f"({' -> '.join(v for v, _ in trace)}), answer 7.2.14 in 7 tests")


def test_criterion_3_htl_two_step(db, honest_endpoints):
    log = run_audit(db, "HTL", honest_endpoints("7.2.14"), RandomnessSource(seed=9))
    trace = [(str(r.version), r.delta) for r in log.rows]
    assert trace == [("7.3.0rc4", False), ("7.2.14", True)]
    assert log.exchange_count() == 2
    print("\nPASS criterion 3: HTL stopped after 7.3.0rc4 fail, 7.2.14 pass "
          "(exactly 2 exchanges)")


def test_criterion_4_strategy_agreement(agreement_trials):
    failures = []
    for i, trial in enumerate(agreement_trials["trials"]):
        sets = {name: result[0].candidate_set.members
                for name, result in trial["results"].items()}
        if len(set(sets.values())) != 1:
            failures.append((i, "disagreement"))
        for name, members in sets.items():
            if trial["src"] not in members:
                failures.append((i, f"{name} lost the true version"))
    assert not failures, failures[:5]
    assert agreement_trials["elapsed"] < 60.0, agreement_trials["elapsed"]
    print(f"\nPASS criterion 4: {TRIAL_COUNT} randomized trials, all five "
          f"strategies agree and contain the true version "
          f"({agreement_trials['elapsed']:.1f}s)")


def test_criterion_5_oracle_equivalence(agreement_trials):
    mismatches = 0
    for trial in agreement_trials["trials"]:
        for name, (report, oracle) in trial["results"].items():
            if report.candidate_set.members != oracle.members:
                mismatches += 1
    assert mismatches == 0
    print(f"\nPASS criterion 5: candidate sets equal the brute-force replay "
          f"oracle on all {TRIAL_COUNT} trials x {len(STRATEGIES)} strategies")


@pytest.mark.slow
@pytest.mark.parametrize("shape, sources", [(grid.GridShape(), 20),
                                            (grid.GridShape(4, 16, 16), 5)],
                         ids=["grid-256", "grid-1024"])
def test_criteria_4_and_5_on_large_grids(shape, sources):
    """Criteria 4 and 5 on a seed-0 grid, its new version authored as the
    benchmark does: honest and claim-faker providers at sources spread over
    the family, every strategy given a budget it cannot run out of."""
    db, sim = authored_grid(shape)
    db = load_database(serialize_database(db))
    versions = db.family.versions
    assert versions == sim.family.versions
    started = time.monotonic()
    for i in range(sources):
        src = versions[i * (len(versions) - 1) // (sources - 1)]
        for behavior in ("honest", "claim-faker"):
            cfg = SimProviderConfig(src_version=src, behavior=behavior, claim_label="99.0.0-fake",
                                    latency=LatencyModel(0.001, 0.0), seed=i)
            endpoints = make_loopback(produce(sim, cfg))
            sets = set()
            for name in STRATEGIES:
                log = run_audit(db, name, endpoints, RandomnessSource(seed=i),
                                budget=len(versions) + 8)
                assert log.stop_reason == "converged", (name, src)
                members = build_report(log, db).candidate_set.members
                assert members == oracle_candidates(log, db, sim).members, (name, src)
                sets.add(members)
            assert len(sets) == 1 and src in sets.pop(), (behavior, src)
    print(f"\nPASS criteria 4 and 5 at N={len(versions)}: {sources} sources x 2 behaviours, "
          f"all five strategies agree with each other and the oracle "
          f"({time.monotonic() - started:.1f}s)")


def _exchanged(log):
    return [sub for outcome in log.plan_outcomes() for sub in outcome.sub_outcomes
            if sub.provenance == "exchanged"]


@pytest.mark.slow
@pytest.mark.parametrize("behavior", ["function-faker", "proxy", "cacher"])
def test_adversarial_providers_on_the_257_version_grid(behavior):
    """The function-faker, proxy and cacher providers at 20 sources spread
    over the 257-version grid, every strategy, in two passes over one
    database, the second warm: the function-faker meets criteria 4 and 5,
    every sub-test the proxy is asked times out, and the cacher, replaying
    an honest audit's transcript, fails some exchanged sub-test in every
    audit.  Both passes audit alike."""
    db, sim = authored_grid()
    versions = db.family.versions
    fakeable = tuple(sorted(n for n, fn in sim.functions.items() if not fn.hard))
    # Recorded with randomness no audit below draws, as criterion 6 records.
    recorder = RecordingResponder(HonestResponder(sim, versions[-1], seed=4))
    run_audit(authored_grid()[0], "CBS", make_loopback(recorder), RandomnessSource(seed=1000))
    assert fakeable and recorder.store
    passes = []
    for _ in range(2):
        rows = []
        for i in range(20):
            src = versions[i * (len(versions) - 1) // 19]
            cfg = SimProviderConfig(src_version=src, behavior=behavior,
                                    latency=LatencyModel(0.001, 0.0), fake_functions=fakeable,
                                    cache_store=recorder.store, seed=i)
            endpoints = make_loopback(produce(sim, cfg))
            sets = set()
            for name in STRATEGIES:
                log = run_audit(db, name, endpoints, RandomnessSource(seed=i),
                                budget=len(versions) + 8)
                assert log.stop_reason == "converged", (name, src)
                exchanged = _exchanged(log)
                if behavior == "function-faker":
                    members = build_report(log, db).candidate_set.members
                    assert members == oracle_candidates(log, db, sim).members, (name, src)
                    sets.add(members)
                elif behavior == "proxy":
                    assert exchanged and all(sub.reason == "timeout" for sub in exchanged), \
                        (name, src)
                else:
                    assert any(not sub.observed for sub in exchanged), (name, src)
                rows.append([(row.version, row.delta, row.origin) for row in log.rows])
            if behavior == "function-faker":
                assert len(sets) == 1 and src in sets.pop(), src
        passes.append(rows)
    assert passes[0] == passes[1]
    print(f"\nPASS {behavior} at N={len(versions)}: 20 sources x {len(STRATEGIES)} strategies, "
          f"cold and warm")


def test_criterion_6_caching_soundness(db, sim_family):
    # Record one complete honest audit, then replay it from a cache.
    honest_cfg = SimProviderConfig(src_version=pv("7.2.14"),
                                   latency=LatencyModel(0.001, 0.0), seed=5)
    recorder = RecordingResponder(produce(sim_family, honest_cfg))
    run_audit(db, "CBS", make_loopback(recorder), RandomnessSource(seed=1000))
    assert recorder.store, "transcript must not be empty"

    defeated = 0
    for i in range(100):
        cacher = CacherResponder(recorder.store, latency=LatencyModel(0.001, 0.0), seed=i)
        log = run_audit(db, "CBS", make_loopback(cacher), RandomnessSource(seed=2000 + i))
        failed = any(
            not sub.observed
            for outcome in log.plan_outcomes()
            for sub in outcome.sub_outcomes
            if sub.provenance == "exchanged"
        )
        defeated += failed
    assert defeated >= 99, f"cache replay only failed {defeated}/100 audits"
    print(f"\nPASS criterion 6: transcript replay failed {defeated}/100 fresh audits")


def test_criterion_7_proxy_soundness(db, sim_family):
    cfg = SimProviderConfig(src_version=pv("7.2.14"), behavior="proxy",
                            latency=LatencyModel(0.001, 0.0), proxy_floor=0.5, seed=5)
    endpoints = make_loopback(produce(sim_family, cfg))
    rng = RandomnessSource(seed=30)
    plan = resolve_plan(db, pv("7.2.0"))
    failed = 0
    for _ in range(100):
        outcome = run_test(plan, pv("7.2.0"), transport_probe(endpoints, rng, db))
        if outcome.delta is False and outcome.sub_outcomes[0].reason == "timeout":
            failed += 1
    assert failed == 100
    print("\nPASS criterion 7: 500ms forwarding delay failed 100/100 timed tests "
          "under the 200ms deadline")


def test_criterion_8_hard_function_boundary(db, sim_family):
    rng = RandomnessSource(seed=31)
    flips = 0
    checked = 0
    for src in sim_family.family.versions:
        honest_cfg = SimProviderConfig(src_version=src,
                                       latency=LatencyModel(0.001, 0.0), seed=2)
        faker_cfg = SimProviderConfig(src_version=src, behavior="function-faker",
                                      fake_functions=("strtoupper", "phpversion"),
                                      latency=LatencyModel(0.001, 0.0), seed=2)
        honest_eps = make_loopback(produce(sim_family, honest_cfg))
        faker_eps = make_loopback(produce(sim_family, faker_cfg))
        for tested in db.entries:
            plan = resolve_plan(db, tested)
            a = run_test(plan, tested, transport_probe(honest_eps, rng, db))
            b = run_test(plan, tested, transport_probe(faker_eps, rng, db))
            checked += 1
            if a.delta != b.delta:
                flips += 1
    assert flips == 0, f"{flips}/{checked} outcomes flipped"
    print(f"\nPASS criterion 8: faking non-hard functions flipped 0/{checked} "
          "test outcomes")


# Availability of each entry's probed function over the family, frozen by
# hand from the fixture design (start inclusive, end exclusive; None = open).
FROZEN_WINDOWS = {
    "4.0.0b1": [("4.0.0b1", None)],
    "4.4.9": [("4.4.9", None)],
    "5.0.0b1": [("5.0.0b1", None)],
    "5.2.0": [("5.2.0", None)],
    "5.6.31": [("5.6.31", None)],
    "7.0.0": [("7.0.0", None)],
    "7.0.15": [("7.0.15", None)],
    "7.0.22": [("7.0.22", "7.1.0")],
    "7.0.26": [("7.0.26", "7.1.0"), ("7.1.2", None)],
    "7.1.0": [("7.1.0", None)],
    "7.1.1": [("7.1.1", None)],
    "7.1.13": [("7.1.13", "7.2.0"), ("7.2.1", None)],
    "7.1.14": [("7.1.14", "7.2.0"), ("7.2.2", None)],
    "7.1.20": [("7.1.20", "7.2.0"), ("7.2.8", None)],
    "7.1.21": [("7.1.21", "7.2.0"), ("7.2.9", None)],
    "7.2.0": [("7.2.0", None)],
    "7.2.11": [("7.2.11", None)],
    "7.2.14": [("7.2.14", None)],
    "7.3.0rc4": [("7.3.0rc4", None)],
}

# Referral-only entries and their conjunction of sub-tests.
FROZEN_PLANS = {
    "7.1.2": ["7.1.0", "7.0.26"],
    "7.2.1": ["7.2.0", "7.1.13"],
    "7.2.2": ["7.2.0", "7.1.14"],
    "7.2.8": ["7.2.0", "7.1.20"],
    "7.2.9": ["7.2.0", "7.1.21"],
    "7.1.20": ["7.0.0", "7.1.20"],
    "7.0.22": ["7.0.22", "!7.1.0"],
}


def _frozen_available(label: str, at: Version) -> bool:
    for lo, hi in FROZEN_WINDOWS[label]:
        if pv(lo) <= at and (hi is None or at < pv(hi)):
            return True
    return False


def _frozen_delta(tested: str, at: Version) -> bool:
    for step in FROZEN_PLANS.get(tested, [tested]):
        if step.startswith("!"):
            if _frozen_available(step[1:], at):
                return False
        elif not _frozen_available(step, at):
            return False
    return True


def test_criterion_9_hierarchy_case_tables(db, sim_family):
    rng = RandomnessSource(seed=32)
    checked = 0
    for src in sim_family.family.versions:
        cfg = SimProviderConfig(src_version=src, latency=LatencyModel(0.001, 0.0), seed=2)
        endpoints = make_loopback(produce(sim_family, cfg))
        for tested in db.entries:
            plan = resolve_plan(db, tested)
            outcome = run_test(plan, tested, transport_probe(endpoints, rng, db))
            expected = _frozen_delta(str(tested), src)
            assert outcome.delta == expected, (str(src), str(tested))
            checked += 1
    assert checked == len(db.entries) * len(db.family)
    print(f"\nPASS criterion 9: all {checked} (provider, tested) pairs match the "
          "intrinsic/branched/deprecated decision tables")


def test_criterion_10_version_order_laws():
    rnd = random.Random(4242)
    versions = []
    for _ in range(400):
        pre = rnd.choice(["", "b1", "b3", "rc1", "rc4"])
        versions.append(pv(f"{rnd.randint(0, 30)}.{rnd.randint(0, 30)}.{rnd.randint(0, 30)}{pre}"))
    checked = 0
    for _ in range(10_000):
        a, b, c = rnd.choice(versions), rnd.choice(versions), rnd.choice(versions)
        assert (a < b) + (a == b) + (a > b) == 1  # totality
        assert (a < b) == (b > a)  # antisymmetry
        if a <= b and b <= c:
            assert a <= c  # transitivity
        checked += 1
    assert Version(7, 1, 21) < Version(7, 2, 0)
    print(f"\nPASS criterion 10: order laws hold on {checked} randomized triples; "
          "7.1.21 < 7.2.0")


def _outsourced_session(db, sim_family, seed=8):
    identities = {r: PartyIdentity.generate(r) for r in ("user", "auditor", "provider")}
    cfg = SimProviderConfig(src_version=pv("7.2.14"),
                            latency=LatencyModel(0.001, 0.0), seed=6)
    user = UserParty(identity=identities["user"], rng=RandomnessSource(seed=seed))
    provider = ProviderParty(identity=identities["provider"],
                            responder=produce(sim_family, cfg))
    auditor = AuditorParty(identity=identities["auditor"], db=db)
    OutsourcedSession(db=db, strategy_name="CBS", user=user, provider=provider,
                auditor=auditor).run()
    logs = {"user": user.log, "auditor": auditor.log, "provider": provider.log}
    keys = {role: ident.verify_key for role, ident in identities.items()}
    return logs, keys


def _corrupt(value):
    import base64

    if isinstance(value, bool):
        return not value
    if isinstance(value, dict):
        return {k: v + "1" for k, v in value.items()}
    if isinstance(value, str):
        try:
            raw = bytearray(base64.b64decode(value, validate=True))
            raw[0] ^= 0xFF
            return base64.b64encode(bytes(raw)).decode()
        except Exception:
            pass
        if "T" in value and ":" in value:  # timestamp: shift one hour
            from datetime import datetime, timedelta

            stamp = datetime.fromisoformat(value)
            return (stamp + timedelta(hours=1)).isoformat(timespec="microseconds")
        return value + "x"
    raise AssertionError(f"unhandled field type {type(value)}")


def test_criterion_11_outsourced_end_to_end(db, sim_family):
    logs, keys = _outsourced_session(db, sim_family)
    assert len(logs["auditor"]) >= 5, "session must run at least five rounds"
    verdicts = verify_liability(logs, keys, db)
    assert all(v.status == "compliant" for v in verdicts.values()), verdicts

    corruptible = {
        "user": ["c", "phi", "ePrime", "t1", "t2", "t3", "t4",
                 "S1", "S2", "S3", "S4"],
        "auditor": ["c", "phi", "ePrime", "t1", "t2", "t3", "t4",
                    "S1", "S2", "S3", "S4", "delta"],
        "provider": ["cPrime", "ePrime", "t3", "S2", "S3"],
    }
    cases = 0
    for role, fields in corruptible.items():
        for field_name in fields:
            mutated = {r: copy.deepcopy(entries) for r, entries in logs.items()}
            mutated[role][2][field_name] = _corrupt(mutated[role][2][field_name])
            verdicts = verify_liability(mutated, keys, db)
            assert verdicts[role].status == "blamed", (role, field_name, verdicts)
            for other in verdicts:
                if other != role:
                    assert verdicts[other].status == "compliant", (role, field_name, other)
            cases += 1
    print(f"\nPASS criterion 11: {len(logs['auditor'])}-round session chain-verifies; "
          f"{cases}/{cases} single-field corruptions blamed the right party")


def test_criterion_12_database_round_trip_and_validation(db):
    blob = serialize_database(db)
    again = load_database(blob)
    assert again == db
    assert serialize_database(again) == blob

    doc = json.loads((FIXTURES / "php_like_db.json").read_text())
    doc["service"]["versions"]["7.2.9"]["test"]["branching"]["9.9.9"] = "1"
    with pytest.raises(DanglingReferralError, match="9.9.9"):
        load_database(json.dumps(doc).encode())

    doc = json.loads((FIXTURES / "php_like_db.json").read_text())
    doc["service"]["versions"]["7.2.0"]["test"]["branching"] = {"7.2.9": "1"}
    with pytest.raises(ReferralCycleError, match="7.2"):
        load_database(json.dumps(doc).encode())
    print("\nPASS criterion 12: fixtures round-trip byte-identically; dangling "
          "and cyclic referrals rejected with named versions")
