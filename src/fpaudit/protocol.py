"""Execution of one resolved test plan against a probe.

A plan is a conjunction of sub-tests, each expected to pass or (for a
deprecated-function boundary) to fail.  Evaluation short-circuits at the
first sub-test whose observation violates its expected polarity.  Sub-tests
already decided earlier in the audit are reused without a fresh exchange.

A sub-test judged ``timeout`` is asked again, ``RETRIES`` times, each with
a freshly rendered challenge; every exchange is kept on the outcome, and
the sub-test keeps the last try's judgement.  A late answer only ever turns
a pass into a fail, so a retry can add only a pass the provider earned in
time.  A ``mismatch`` (a wrong answer in time) is evidence and is never
asked again, nor is a ``transport-error``: the transport already reopens a
kept-alive connection the provider dropped, and an answer that does not
come within the deadline plus the cap fails in transport.  A sub-test
still ``timeout`` or ``transport-error`` after that is *unanswered*
(``unanswered``), and the audit loop stops on it.

A *probe* decides one intrinsic sub-test: it maps the tested version to
``(observed, reason, ExchangeRecord)``.  ``transport_probe`` renders a
fresh challenge, exchanges it over the endpoints and judges the response;
the outsourced auditor's probe runs one signed round instead.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from .challenge import RandomnessSource, judge, render_test
from .database import Database, TestPlan
from .transport import ExchangeRecord, InterfaceEndpoint, exchange
from .versions import Version

Probe = Callable[[Version], tuple[bool, "str | None", ExchangeRecord]]

RETRIES = 1  # further exchanges for a sub-test judged "timeout"


class SubOutcome(NamedTuple):
    version: Version
    expect_pass: bool
    observed: bool
    reason: str | None  # mismatch | timeout | transport-error, when observed is False
    provenance: str  # "exchanged" or "implied"

    @property
    def satisfied(self) -> bool:
        return self.observed == self.expect_pass


class TestOutcome(NamedTuple):
    version: Version
    delta: bool
    sub_outcomes: tuple[SubOutcome, ...]
    exchanges: tuple[ExchangeRecord, ...]  # every try of every exchanged sub-test, in order


class Unanswered(NamedTuple):
    """A sub-test the provider left unanswered."""

    version: Version
    reason: str  # timeout | transport-error
    message: str | None  # the transport failure, for a transport error


def unanswered(outcome: TestOutcome) -> Unanswered | None:
    """The first exchanged sub-test of ``outcome`` still judged ``timeout``
    or ``transport-error``, or None if the provider answered every one."""
    for sub in outcome.sub_outcomes:
        if sub.reason in ("timeout", "transport-error") and sub.provenance == "exchanged":
            # A transport error is never asked again, so the first record
            # that failed in transport is this sub-test's.
            message = next((record.transport_error for record in outcome.exchanges
                            if record.transport_error is not None), None)
            return Unanswered(sub.version, sub.reason, message)
    return None


def transport_probe(
    endpoints: tuple[InterfaceEndpoint, InterfaceEndpoint],
    rng: RandomnessSource,
    db: Database,
) -> Probe:
    """Probe that renders, exchanges and judges one challenge per call."""
    challenge_ep, response_ep = endpoints

    def probe(version: Version):
        rendered = render_test(db, version, rng)
        record = exchange(challenge_ep, response_ep, rendered.challenge_payload, rendered.deadline)
        verdict = judge(record.response_bytes, rendered.expected_payload,
                        record.elapsed, rendered.deadline, record.transport_error)
        return verdict.delta, verdict.reason, record

    return probe


def run_test(
    plan: TestPlan,
    version: Version,
    probe: Probe,
    prior: Mapping[Version, bool] | None = None,
) -> TestOutcome:
    """Run one plan, deciding each new sub-test with ``probe``.

    ``prior`` maps versions to intrinsic-test observations already made in
    this audit; matching sub-tests are reused as implied outcomes.  A new
    sub-test judged ``timeout`` is asked again up to ``RETRIES`` times.  An
    empty plan is vacuously true with zero exchanges.
    """
    prior = prior or {}
    subs: list[SubOutcome] = []
    records: list[ExchangeRecord] = []
    delta = True
    for step in plan:
        v, expect_pass = step.version, step.expect_pass
        observed = prior.get(v)
        if observed is None:
            observed, reason, record = probe(v)
            records.append(record)
            retries = RETRIES
            while reason == "timeout" and retries:
                retries -= 1
                observed, reason, record = probe(v)
                records.append(record)
            subs.append(SubOutcome(v, expect_pass, observed, reason, "exchanged"))
        else:
            subs.append(SubOutcome(v, expect_pass, observed,
                                   None if observed else "mismatch", "implied"))
        if observed != expect_pass:
            delta = False
            break
    return TestOutcome(version, delta, tuple(subs), tuple(records))
