"""Audits over a lossy link: a provider some of whose answers come after
the deadline.

A sub-test judged ``timeout`` is asked again once, with a fresh challenge.
One that times out on its retry too stops the audit with ``"unanswered"``
and leaves compliance undecided, so no exclusion in a decided audit rests
on a timeout and an honest provider is never judged not compliant for
answering late.  Run with ``-s`` to see the survey table.
"""

import itertools
import random
from collections import Counter

import pytest

from fpaudit.challenge import RandomnessSource
from fpaudit.outsourced import (AuditorParty, OutsourcedSession, PartyIdentity, ProviderParty,
                                UserParty, verify_liability)
from fpaudit.protocol import RETRIES
from fpaudit.simulator import LatencyModel, SimProviderConfig, produce
from fpaudit.strategies import STRATEGIES, run_audit
from fpaudit.transport import make_loopback
from fpaudit.verdict import build_report
from fpaudit.versions import parse_version as pv
from fpaudit.versions import render_version

LATE = 1.0  # seconds added to a late reply: past every fixture deadline, within the 5 s cap
SURVEYED = ("BS", "CBS", "HMSU", "LTH")
RUNS = 20  # audits per strategy and source


class LateReplies:
    """Wraps a responder: a reply comes ``LATE`` seconds later whenever
    ``late(payload)`` says so, and is otherwise the wrapped one's."""

    def __init__(self, inner, late):
        self.inner, self.late = inner, late

    def respond(self, payload: bytes) -> tuple[bytes, float]:
        body, latency = self.inner.respond(payload)
        return body, latency + LATE if self.late(payload) else latency


def lossy(p: float, seed: int):
    """Each reply late, independently, with probability ``p``."""
    draw = random.Random(seed).random
    return lambda payload: draw() < p


def honest(sim_family, src, seed: int):
    cfg = SimProviderConfig(src_version=src, latency=LatencyModel(0.001, 0.0), seed=seed)
    return produce(sim_family, cfg)


def exchanged(log) -> list:
    return [sub for outcome in log.plan_outcomes() for sub in outcome.sub_outcomes
            if sub.provenance == "exchanged"]


def survey(db, sim_family, p: float):
    """Honest providers at every fixture source, each reply late with
    probability ``p``, ``RUNS`` seeded audits per strategy and source, each
    judged against its own source.  Per strategy: the count of each
    compliance verdict, the mean exchanges per audit, and the number of
    sub-tests asked more than once."""
    table = {}
    seeds = itertools.count()
    for name in SURVEYED:
        verdicts, exchanges, retried = Counter(), 0, 0
        for src in sim_family.family.versions:
            for _ in range(RUNS):
                seed = next(seeds)
                responder = LateReplies(honest(sim_family, src, seed), lossy(p, seed))
                log = run_audit(db, name, make_loopback(responder), RandomnessSource(seed=seed))
                verdicts[build_report(log, db, target=src).compliant] += 1
                exchanges += log.exchange_count()
                retried += log.exchange_count() - len(exchanged(log))
        audits = len(sim_family.family) * RUNS
        table[name] = verdicts, exchanges / audits, retried
    return table


def _print_table(p: float, table) -> None:
    audits = sum(table[SURVEYED[0]][0].values())
    print(f"\n{audits} audits per strategy, {p:.0%} of replies late")
    print("strategy  not compliant  undecided  exchanges/audit  retried")
    for name, (verdicts, per_audit, retried) in table.items():
        print(f"{name:<8}  {verdicts[False] / audits:>13.1%}  {verdicts[None] / audits:>9.1%}"
              f"  {per_audit:>15.2f}  {retried:>7}")


def test_a_lossless_honest_provider_is_compliant_and_asked_nothing_twice(db, sim_family):
    for name, (verdicts, _, retried) in survey(db, sim_family, 0.0).items():
        assert verdicts == {True: len(sim_family.family) * RUNS}, name
        assert retried == 0, name


@pytest.mark.parametrize("p", [0.01, 0.05])
def test_no_honest_provider_on_a_lossy_link_is_judged_not_compliant(db, sim_family, p):
    table = survey(db, sim_family, p)
    _print_table(p, table)
    for name, (verdicts, _, retried) in table.items():
        assert verdicts[False] == 0, name
        assert retried > 0, name  # the link did lose answers
        assert verdicts[True] > 0.9 * sum(verdicts.values()), name


def test_a_provider_that_never_answers_one_function_in_time_is_never_compliant_with_it(
        db, sim_family):
    # Each function an honest audit asks, made to time out on every try:
    # no version that has it can be the verdict.
    checked = 0
    for name in STRATEGIES:
        for i, src in enumerate(sim_family.family.versions):
            log = run_audit(db, name, make_loopback(honest(sim_family, src, i)),
                            RandomnessSource(seed=i))
            for v in {sub.version for sub in exchanged(log)}:
                call = db.entries[v].challenge_template.split(b"#")[0]
                slow = LateReplies(honest(sim_family, src, i), lambda payload: call in payload)
                lossy_log = run_audit(db, name, make_loopback(slow), RandomnessSource(seed=i))
                having = db.family.select(db.avail_masks[v])
                if src in having:
                    assert lossy_log.stop_reason == "unanswered", (name, src, v)
                for target in having:
                    report = build_report(lossy_log, db, target=target)
                    assert report.compliant is not True, (name, src, v, target)
                checked += 1
    assert checked > 500


@pytest.fixture
def session_parts(db, sim_family):
    """An outsourced session against an honest provider at 7.2.14 whose
    replies are late exactly at the given reply numbers (from 1), and the
    parties' logs and keys."""

    def build(late_replies: set[int], strategy: str = "CBS"):
        identities = {role: PartyIdentity.generate(role) for role in ("user", "auditor", "provider")}
        replies = itertools.count(1)
        responder = LateReplies(honest(sim_family, pv("7.2.14"), 6),
                                lambda payload: next(replies) in late_replies)
        user = UserParty(identity=identities["user"], rng=RandomnessSource(seed=77))
        provider = ProviderParty(identity=identities["provider"], responder=responder)
        auditor = AuditorParty(identity=identities["auditor"], db=db)
        session = OutsourcedSession(db=db, strategy_name=strategy, user=user,
                                    provider=provider, auditor=auditor)
        log = session.run()
        logs = {"user": user.log, "auditor": auditor.log, "provider": provider.log}
        keys = {role: ident.verify_key for role, ident in identities.items()}
        return log, logs, keys

    return build


def test_an_outsourced_round_that_comes_late_is_asked_again_as_a_new_signed_round(
        db, session_parts):
    log, logs, keys = session_parts({1})
    assert log.stop_reason == "converged"
    assert build_report(log, db, target=pv("7.2.14")).compliant is True
    # Every try is a round of its own, in all three logs.
    assert len(logs["auditor"]) == log.exchange_count() == len(exchanged(log)) + RETRIES
    assert [entry["delta"] for entry in logs["auditor"][:2]] == [False, True]
    assert len({entry["round"] for entry in logs["auditor"]}) == len(logs["auditor"])
    verdicts = verify_liability(logs, keys, db)
    assert all(v.status == "compliant" for v in verdicts.values()), verdicts


def test_an_outsourced_sub_test_late_on_its_retry_too_stops_the_session_undecided(
        db, session_parts):
    log, logs, keys = session_parts({1, 2})
    assert log.stop_reason == "unanswered"
    missing = log.unanswered()
    assert (render_version(missing.version), missing.reason) == (
        render_version(log.rows[0].version), "timeout")
    assert build_report(log, db, target=pv("7.2.14")).compliant is None
    assert len(logs["auditor"]) == 2
    verdicts = verify_liability(logs, keys, db)
    assert all(v.status == "compliant" for v in verdicts.values()), verdicts
