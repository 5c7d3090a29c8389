"""Execution of one resolved test plan against a probe.

A plan is a conjunction of sub-tests, each expected to pass or (for a
deprecated-function boundary) to fail.  Evaluation short-circuits at the
first sub-test whose observation violates its expected polarity.  Sub-tests
already decided earlier in the audit are reused without a fresh exchange.

A *probe* decides one intrinsic sub-test: it maps the tested version to
``(observed, reason, ExchangeRecord)``.  ``transport_probe`` renders a
fresh challenge, exchanges it over the endpoints and judges the response;
the outsourced auditor's probe runs one signed round instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .challenge import RandomnessSource, judge, render_test
from .database import Database, TestPlan
from .transport import ExchangeRecord, InterfaceEndpoint, exchange
from .versions import Version

Probe = Callable[[Version], tuple[bool, "str | None", ExchangeRecord]]


@dataclass(frozen=True)
class SubOutcome:
    version: Version
    expect_pass: bool
    observed: bool
    reason: str | None  # mismatch | timeout | transport-error, when observed is False
    provenance: str  # "exchanged" or "implied"

    @property
    def satisfied(self) -> bool:
        return self.observed == self.expect_pass


@dataclass(frozen=True)
class TestOutcome:
    version: Version
    delta: bool
    sub_outcomes: tuple[SubOutcome, ...]
    exchanges: tuple[ExchangeRecord, ...]


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
    this audit; matching sub-tests are reused as implied outcomes.  An empty
    plan is vacuously true with zero exchanges.
    """
    prior = prior or {}
    subs: list[SubOutcome] = []
    records: list[ExchangeRecord] = []
    delta = True
    for step in plan:
        if step.version in prior:
            observed = prior[step.version]
            subs.append(SubOutcome(step.version, step.expect_pass, observed,
                                   None if observed else "mismatch", "implied"))
        else:
            observed, reason, record = probe(step.version)
            records.append(record)
            subs.append(SubOutcome(step.version, step.expect_pass, observed,
                                   reason, "exchanged"))
        if observed != step.expect_pass:
            delta = False
            break
    return TestOutcome(version=version, delta=delta,
                       sub_outcomes=tuple(subs), exchanges=tuple(records))
