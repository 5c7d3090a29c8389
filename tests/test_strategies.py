import functools
import json
import math
import random
import sys
import threading
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpaudit import database, verdict
from fpaudit.challenge import RandomnessSource
from fpaudit.database import load_database, resolve_plan
from fpaudit.protocol import SubOutcome, run_test, transport_probe
from fpaudit.protocol import TestOutcome as PlanOutcome
from fpaudit.simulator import (HonestResponder, LatencyModel, RecordingResponder, SimProviderConfig,
                               produce, sim_family_from_doc)
from fpaudit.strategies import (STRATEGIES, AuditContext, AuditError, DecisionLog, _mid, _nth_bit,
                                default_budget, drive_audit, run_audit)
from families import synth_docs
from fpaudit.transport import make_loopback
from fpaudit.verdict import build_report
from fpaudit.versions import parse_version as pv

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import grid  # noqa: E402


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
            pick = strategy().pick(ctx) or informative[0]
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


# -- The full scans every audit step once made, kept as the reference --------


def reference_informative(ctx):
    """Every untested entry whose outcome would shrink the candidate set,
    ascending, from a scan of every entry."""
    c, tested = ctx.candidates, ctx.tested
    return [v for v, bit, truth in ctx.db.entry_truths
            if not tested & bit and (hits := c & truth) and hits != c]


def reference_heads(versions, level: str) -> dict:
    """The lowest of the ascending ``versions`` for each value of ``level``."""
    heads = {}
    for v in versions:
        heads.setdefault(getattr(v, level), v)
    return heads


def reference_pick(name: str, ctx, informative):
    """The pick each strategy made from the full informative list; None
    leaves it to the loop's fallback."""
    if name == "HTL":
        return informative[-1]
    if name == "LTH":
        return informative[0]
    if name == "BS":
        c, tested = ctx.candidates, ctx.tested
        pool = [v for v, bit, _ in ctx.db.entry_truths if c & bit and not tested & bit]
        return _mid(pool) if pool else None
    if name == "CBS":
        pool = ctx.entry_versions
        for level in ("major", "minor", "patch"):
            heads = reference_heads(pool, level)
            results = {val: ctx.log.deltas.get(head) for val, head in heads.items()}
            floor = max((val for val, res in results.items() if res is True), default=-1)
            cap = min((val for val, res in results.items() if res is False), default=math.inf)
            window = [heads[val] for val, res in results.items()
                      if res is None and floor < val < cap]
            if window:
                return _mid(window)
            if floor < 0:
                return None
            pool = [v for v in pool if getattr(v, level) == floor]
        return None
    assert name == "HMSU"
    for frontier in reversed(reference_heads(ctx.entry_versions, "major").values()):
        status = ctx.status(frontier)
        if status is None:
            return frontier
        if status:
            break
    else:
        return None
    entries = ctx.entry_versions
    pos = bisect_left(entries, frontier)
    while True:
        branch = (frontier.major, frontier.minor)
        end = pos + 1
        while end < len(entries) and (entries[end].major, entries[end].minor) == branch:
            end += 1
        order = list(range(pos + 1, end))
        if end < len(entries) and entries[end].major == frontier.major:
            order.insert(0, end)
        for i in order:
            status = ctx.status(entries[i])
            if status is None:
                return entries[i]
            if status:
                frontier, pos = entries[i], i
                break
        else:
            return None


def truth_probe(db, src):
    """An honest provider at ``src``: each intrinsic test passes where its
    function is available."""
    bit = db.family.index[src]
    return lambda v: (bool(db.avail_masks[v] >> bit & 1), None, None)


def liar_probe(db, seed: int):
    """A provider answering each intrinsic test by a coin flip seeded by the
    version, so its answers rarely fit any one version."""
    return lambda v: (random.Random(seed * 100_003 + db.family.index[v]).random() < 0.5,
                      None, None)


def assert_steps_match_reference(db, probes) -> int:
    """Step every strategy through an audit per probe; every step's stop
    test, edge scans and pick (with the loop's fallback) must match the
    reference, and ``drive_audit`` must test the same versions and stop for
    the same reason.  Returns the number of steps checked."""
    steps = 0
    for name, strategy in STRATEGIES.items():
        for probe in probes:
            ctx, budget, picks = AuditContext(db), default_budget(db), []
            while True:
                informative = reference_informative(ctx)
                assert ctx.newest_informative() == (informative[-1] if informative else None)
                assert ctx.oldest_informative() == (informative[0] if informative else None)
                if not informative or len(picks) >= budget:
                    stop_reason = "budget" if informative else "converged"
                    break
                want = reference_pick(name, ctx, informative)
                got = strategy().pick(ctx)
                want = _mid(informative) if want is None else want
                got = _mid(ctx.informative()) if got is None else got
                assert got == want, (name, len(picks), str(got), str(want))
                picks.append(got)
                ctx.apply(run_test(resolve_plan(db, got), got, probe, prior=ctx.log.observations))
                steps += 1
            log = drive_audit(db, name, probe)
            assert [o.version for o in log.plan_outcomes()] == picks, name
            assert log.stop_reason == stop_reason, name
    return steps


@functools.cache
def grid_1024():
    """The seed-0 4x16x16 grid database of the benchmark's generator."""
    return load_database(grid.grid_docs(0, grid.GridShape(4, 16, 16)).db_bytes())


def _synthetic_dbs():
    return [load_database(json.dumps(synth_docs(seed)[0])) for seed in range(20)]


def test_steps_match_the_full_scans_on_the_fixture(db):
    probes = [truth_probe(db, src) for src in db.family.versions]
    probes += [liar_probe(db, seed) for seed in range(24)]
    assert assert_steps_match_reference(db, probes) > 1000


def test_steps_match_the_full_scans_on_synthetic_families():
    steps = 0
    for seed, each in enumerate(_synthetic_dbs()):
        versions = each.family.versions
        sources = random.Random(seed).sample(versions, min(4, len(versions)))
        probes = [truth_probe(each, src) for src in sources] + [liar_probe(each, seed)]
        steps += assert_steps_match_reference(each, probes)
    assert steps > 1000


def test_steps_match_the_full_scans_on_the_1024_version_grid():
    db = grid_1024()
    versions = db.family.versions
    assert len(versions) >= 1000
    sources = [versions[i * (len(versions) - 1) // 16] for i in range(17)]
    probes = [truth_probe(db, src) for src in sources] + [liar_probe(db, seed) for seed in range(4)]
    assert assert_steps_match_reference(db, probes) > 1500


def test_hmsu_resumes_its_walk_instead_of_climbing_again(monkeypatch):
    """Resumed at each pick, the walk asks about a picked entry once to stop
    at it and once to pass it, plus the next minor's head again after each
    step up a patch; climbing again from the top major at every pick asks
    about every entry it passed before, each time."""
    db = grid_1024()
    versions = db.family.versions
    asked = []
    real = AuditContext.status
    monkeypatch.setattr(AuditContext, "status", lambda ctx, v: asked.append(v) or real(ctx, v))
    total = 0
    for i in range(20):
        asked.clear()
        log = drive_audit(db, "HMSU", truth_probe(db, versions[i * len(versions) // 20]))
        picks = len(log.plan_outcomes())
        # Measured: at most 2.4 calls per pick here, against up to 18.6 for a fresh climb.
        assert len(asked) <= 3 * picks, (i, len(asked), picks)
        total += len(asked)
    # Measured: 37.6 calls per audit, against 208 for a fresh climb.
    assert total <= 50 * 20


def test_branch_heads_are_the_lowest_entry_of_each_branch(db):
    for each in [db, *_synthetic_dbs(), grid_1024()]:
        entries = each.entry_versions
        want = {(): reference_heads(entries, "major")}
        for major in want[()]:
            on_major = [v for v in entries if v.major == major]
            want[(major,)] = reference_heads(on_major, "minor")
            for minor in want[(major,)]:
                want[(major, minor)] = reference_heads(
                    [v for v in on_major if v.minor == minor], "patch")
        # Order matters too: HMSU walks the majors from the top.
        assert {k: list(v.items()) for k, v in each.branch_heads.items()} == \
            {k: list(v.items()) for k, v in want.items()}, each.meta.service_name


@given(st.integers(1, 2**1500), st.data())
def test_nth_bit_is_the_nth_set_bit(mask, data):
    n = data.draw(st.integers(0, mask.bit_count() - 1))
    assert _nth_bit(mask, n) == [i for i in range(mask.bit_length()) if mask >> i & 1][n]


@given(st.data())
def test_bs_mask_pick_is_the_middle_of_the_reference_pool(data):
    db = grid_1024()
    ctx = AuditContext(db)
    ctx.candidates = data.draw(st.integers(0, db.family.full))
    ctx.tested = data.draw(st.integers(0, db.family.full))
    assert STRATEGIES["BS"]().pick(ctx) == reference_pick("BS", ctx, None)


# -- The decision memo: a warm database audits exactly as a cold one ----------

FIXTURE_DB = (Path(__file__).resolve().parents[1] / "fixtures" / "php_like_db.json").read_bytes()
GRID_48 = grid.grid_docs(0, grid.GridShape(3, 4, 4, 3, 2, 4)).db_bytes()
BEHAVIORS = ("honest", "claim-faker", "function-faker", "proxy", "cacher")


def _exchange_fields(record):
    return record and (record.challenge_bytes, record.response_bytes, record.elapsed,
                       record.transport_error)


def audit_digest(log):
    """What an audit returns, but the clock readings of its exchanges: every
    row with its sub-test outcomes and exchanged bytes, the stop reason and
    the exchange count."""
    rows = [(row.version, row.delta, row.testorder, row.origin,
             row.outcome and (row.outcome.sub_outcomes,
                              tuple(map(_exchange_fields, row.outcome.exchanges))))
            for row in log.rows]
    return rows, log.stop_reason, log.exchange_count()


def assert_warm_matches_cold(document: bytes, cases, audit):
    """Run every case on one database, then again on it, warmed by all the
    others, and on a freshly loaded copy: all three must agree.  Returns
    the warm database."""
    warm = load_database(document)
    first = [audit_digest(audit(warm, case)) for case in cases]
    for case, digest in zip(cases, first):
        cold = audit_digest(audit(load_database(document), case))
        assert audit_digest(audit(warm, case)) == cold == digest, case
    return warm


def probe_audit(db, case):
    """Audit by ``case``: (strategy, "truth", source label, budget) or
    (strategy, "liar", seed, budget); a budget of None is the default."""
    name, kind, arg, budget = case
    probe = truth_probe(db, pv(arg)) if kind == "truth" else liar_probe(db, arg)
    return drive_audit(db, name, probe, budget)


def test_warm_audits_match_cold_ones_for_every_fixture_provider(sim_family):
    fakeable = tuple(sorted(n for n, fn in sim_family.functions.items() if not fn.hard))
    recorder = RecordingResponder(HonestResponder(sim_family, pv("7.1.1"), seed=4))
    run_audit(load_database(FIXTURE_DB), "CBS", make_loopback(recorder), RandomnessSource(seed=4))
    providers = [(name, src, behavior) for name in STRATEGIES
                 for src in sim_family.family.versions for behavior in BEHAVIORS]
    cases = [(*provider, seed) for seed, provider in enumerate(providers)]

    def audit(db, case):
        name, src, behavior, seed = case
        cfg = SimProviderConfig(src_version=src, behavior=behavior, claim_label="99.0.0-fake",
                                latency=LatencyModel(0.002, 0.001), fake_functions=fakeable,
                                cache_store=recorder.store, seed=seed)
        return run_audit(db, name, make_loopback(produce(sim_family, cfg)),
                         RandomnessSource(seed=seed))

    assert len(cases) == 5 * 24 * 5
    assert_warm_matches_cold(FIXTURE_DB, cases, audit)


@pytest.mark.parametrize("seed", range(20))
def test_warm_coin_flip_audits_match_cold_ones_on_synthetic_families(seed):
    document = json.dumps(synth_docs(seed)[0]).encode()
    cases = [(name, "liar", liar, None) for name in STRATEGIES for liar in range(12)]
    assert_warm_matches_cold(document, cases, probe_audit)


def test_warm_coin_flip_audits_match_cold_ones_on_the_48_version_grid():
    cases = [(name, "liar", liar, None) for name in STRATEGIES for liar in range(40)]
    assert_warm_matches_cold(GRID_48, cases, probe_audit)


def test_two_budgets_on_one_database_keep_two_trees():
    sources = [str(v) for v in load_database(GRID_48).family.versions[::5]]
    cases = [(name, kind, arg, budget) for name in STRATEGIES for budget in (3, None)
             for kind, arg in [("truth", src) for src in sources] + [("liar", liar) for liar in range(8)]]
    db = assert_warm_matches_cold(GRID_48, cases, probe_audit)
    assert list(db.decisions) == [(cls, budget) for cls in STRATEGIES.values()
                                  for budget in (3, default_budget(db))]
    # Warmed by full-budget audits of the same provider, each still stops at 3 tests.
    assert all(probe_audit(db, case).stop_reason == "budget"
               for case in cases if case[1:] == ("truth", sources[5], 3))


def test_a_replaced_strategy_class_never_reads_another_class_memo(monkeypatch):
    class NewestFirst(STRATEGIES["HTL"]):
        """Stands in for BS: picks as HTL, under its own memo."""

    warm = load_database(FIXTURE_DB)
    cases = [("BS", "truth", str(v), None) for v in warm.family.versions]
    cases += [("BS", "liar", liar, None) for liar in range(12)]
    bisected = [audit_digest(probe_audit(warm, case)) for case in cases]
    monkeypatch.setitem(STRATEGIES, "BS", NewestFirst)
    replaced = [audit_digest(probe_audit(warm, case)) for case in cases]
    assert replaced == [audit_digest(probe_audit(load_database(FIXTURE_DB), case))
                        for case in cases]
    assert [rows for rows, _, _ in replaced] != [rows for rows, _, _ in bisected]
    monkeypatch.undo()
    assert [audit_digest(probe_audit(warm, case)) for case in cases] == bisected


def test_threads_auditing_one_database_match_cold_audits():
    cases = [(name, kind, arg, None) for name in STRATEGIES
             for kind, arg in [("truth", str(v)) for v in load_database(FIXTURE_DB).family.versions]
             + [("liar", liar) for liar in range(24)]]
    serial = load_database(FIXTURE_DB)
    cold = [audit_digest(probe_audit(load_database(FIXTURE_DB), case)) for case in cases]
    assert [audit_digest(probe_audit(serial, case)) for case in cases] == cold
    sizes = {key: memo_nodes(root) for key, root in serial.decisions.items()}
    # More workers than this machine's cores; taking every fourth case, they
    # grow the same strategy's tree at once.
    workers = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the audits' steps finely
    try:
        for _ in range(20):
            shared, start = load_database(FIXTURE_DB), threading.Barrier(workers)

            def run(order):
                start.wait(timeout=60)
                return [(i, audit_digest(probe_audit(shared, cases[i]))) for i in order]

            with ThreadPoolExecutor(max_workers=workers) as pool:
                runs = [pool.submit(run, range(k, len(cases), workers)) for k in range(workers)]
                digests = dict(pair for each in runs for pair in each.result(timeout=120))
            assert [digests[i] for i in range(len(cases))] == cold
            # A node lost to a concurrent insert leaves its tree smaller.
            assert {key: memo_nodes(root) for key, root in shared.decisions.items()} == sizes
    finally:
        sys.setswitchinterval(interval)


def memo_nodes(node) -> int:
    """Nodes of one decision tree in ``Database.decisions``."""
    if type(node) is str:
        return 1
    return 1 + sum(memo_nodes(child) for child in node[2].values())


def memo_sizes_after_many_audits(db) -> dict:
    """Each strategy's tree size after a truth-probe audit from every source
    and 2,000 coin-flip audits."""
    for name in STRATEGIES:
        for src in db.family.versions:
            drive_audit(db, name, truth_probe(db, src))
        for seed in range(2000):
            drive_audit(db, name, liar_probe(db, seed))
    assert [(cls, budget) for cls, budget in db.decisions] == \
        [(cls, default_budget(db)) for cls in STRATEGIES.values()]
    return {cls.name: memo_nodes(root) for (cls, _), root in db.decisions.items()}


@pytest.mark.parametrize("document", [FIXTURE_DB, grid.grid_docs(0).db_bytes()],
                         ids=["fixture", "grid-256"])
def test_each_decision_tree_stays_within_2n_plus_1_nodes(document):
    db = load_database(document)
    sizes = memo_sizes_after_many_audits(db)
    # Measured: at most 49 nodes at N=24 and 501 at N=256.
    assert max(sizes.values()) <= 2 * len(db.family) + 1, sizes


@pytest.mark.slow
def test_each_decision_tree_stays_within_2n_plus_1_nodes_on_the_1024_version_grid():
    db = load_database(grid.grid_docs(0, grid.GridShape(4, 16, 16)).db_bytes())
    sizes = memo_sizes_after_many_audits(db)
    # Measured: at most 2,036 nodes.
    assert max(sizes.values()) <= 2 * len(db.family) + 1, sizes


@pytest.mark.slow
def test_warm_audits_match_cold_ones_on_the_1024_version_grid():
    document = grid.grid_docs(0, grid.GridShape(4, 16, 16)).db_bytes()
    versions = load_database(document).family.versions
    sources = [versions[i * len(versions) // 20] for i in range(20)]
    cases = [(name, "truth", str(src), None) for name in STRATEGIES for src in sources]
    assert_warm_matches_cold(document, cases, probe_audit)
