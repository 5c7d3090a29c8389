from fpaudit.database import resolve_plan
from fpaudit.protocol import run_test, transport_probe
from fpaudit.versions import parse_version as pv


def test_compound_plan_passes_against_newer_honest(db, honest_endpoints, rng):
    endpoints = honest_endpoints("7.2.14")
    plan = resolve_plan(db, pv("7.2.9"))
    outcome = run_test(plan, pv("7.2.9"), transport_probe(endpoints, rng, db))
    assert outcome.delta is True
    assert len(outcome.exchanges) == 2
    assert all(s.provenance == "exchanged" for s in outcome.sub_outcomes)


def test_empty_plan_vacuously_true(db, honest_endpoints, rng):
    endpoints = honest_endpoints("7.2.14")
    outcome = run_test((), pv("7.2.13"), transport_probe(endpoints, rng, db))
    assert outcome.delta is True
    assert outcome.exchanges == ()


def test_plan_fails_against_older_honest(db, honest_endpoints, rng):
    endpoints = honest_endpoints("7.1.1")
    plan = resolve_plan(db, pv("7.2.0"))
    outcome = run_test(plan, pv("7.2.0"), transport_probe(endpoints, rng, db))
    assert outcome.delta is False
    assert outcome.sub_outcomes[0].reason == "mismatch"


def test_short_circuit_stops_exchanges(db, honest_endpoints, rng):
    # Provider below the branch origin: the origin check fails first and
    # the referred test must not run.
    endpoints = honest_endpoints("7.1.1")
    plan = resolve_plan(db, pv("7.2.9"))
    outcome = run_test(plan, pv("7.2.9"), transport_probe(endpoints, rng, db))
    assert outcome.delta is False
    assert len(outcome.exchanges) == 1
    assert [str(s.version) for s in outcome.sub_outcomes] == ["7.2.0"]


def test_prior_decisions_reused_as_implied(db, honest_endpoints, rng):
    endpoints = honest_endpoints("7.2.14")
    plan = resolve_plan(db, pv("7.2.9"))
    prior = {pv("7.2.0"): True}
    outcome = run_test(plan, pv("7.2.9"), transport_probe(endpoints, rng, db), prior=prior)
    assert outcome.delta is True
    assert len(outcome.exchanges) == 1
    assert outcome.sub_outcomes[0].provenance == "implied"


def test_expect_fail_subtest_inverts_polarity(db, honest_endpoints, rng):
    # Inside the deprecated window the boundary test observes false, which
    # satisfies the plan; the compound result is the negation of the
    # boundary observation.
    endpoints = honest_endpoints("7.0.26")
    plan = resolve_plan(db, pv("7.0.22"))
    outcome = run_test(plan, pv("7.0.22"), transport_probe(endpoints, rng, db))
    assert outcome.delta is True
    boundary = outcome.sub_outcomes[-1]
    assert boundary.expect_pass is False and boundary.observed is False

    endpoints = honest_endpoints("7.1.1")
    outcome = run_test(plan, pv("7.0.22"), transport_probe(endpoints, rng, db))
    assert outcome.delta is False


def test_fresh_randomness_each_subtest(db, honest_endpoints, rng):
    endpoints = honest_endpoints("7.2.14")
    plan = resolve_plan(db, pv("7.2.0"))
    first = run_test(plan, pv("7.2.0"), transport_probe(endpoints, rng, db))
    second = run_test(plan, pv("7.2.0"), transport_probe(endpoints, rng, db))
    assert first.exchanges[0].challenge_bytes != second.exchanges[0].challenge_bytes
