"""Test-order strategies and the audit loop driving them.

Every strategy is a policy answering "which version should be tested
next?"; the surrounding loop is shared by direct and outsourced audits,
which differ only in the probe that decides each sub-test.  The loop keeps
the decision log, reuses already-decided sub-tests, maintains the set of
candidate versions that is still consistent with every observation, and
stops when no untested entry could shrink that set further (or the test
budget runs out).  This shared stopping rule is what makes all strategies
land on the same candidate set.

Strategy names: BS (bisection over the sorted family), CBS (cascaded
bisections over major, then minor, then patch), HTL (descend from the
newest release), LTH (ascend from the oldest), HMSU (start at the highest
major's branch start and step optimistically upward).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .challenge import RandomnessSource
from .database import Database, STRATEGY_SHORT, fold_constraints, plan_truth_set, resolve_plan
from .protocol import Probe, TestOutcome, run_test, transport_probe
from .transport import InterfaceEndpoint
from .versions import Version, render_version


class AuditError(RuntimeError):
    pass


@dataclass(frozen=True)
class LogRow:
    version: Version
    delta: bool
    testorder: int
    origin: str  # "plan" for strategy-chosen tests, "exchange" for referral sub-tests
    timestamp: float
    outcome: TestOutcome | None = None


@dataclass
class DecisionLog:
    """Append-only record of every decided version; no version repeats."""

    strategy: str = ""
    stop_reason: str = ""  # "converged", or "budget" if it ran out with informative entries left
    rows: list[LogRow] = field(default_factory=list)

    def versions(self) -> set[Version]:
        return {row.version for row in self.rows}

    def append_outcome(self, outcome: TestOutcome) -> None:
        logged = self.versions()
        if outcome.version in logged:
            raise AuditError(f"version {render_version(outcome.version)} already decided")
        for sub in outcome.sub_outcomes:
            if sub.provenance != "exchanged" or sub.version == outcome.version:
                continue
            if sub.version in logged:
                raise AuditError(f"version {render_version(sub.version)} already decided")
            logged.add(sub.version)
            self.rows.append(LogRow(sub.version, sub.observed, len(self.rows) + 1,
                                    "exchange", time.time()))
        self.rows.append(LogRow(outcome.version, outcome.delta, len(self.rows) + 1,
                                "plan", time.time(), outcome))

    def plan_outcomes(self) -> list[TestOutcome]:
        return [row.outcome for row in self.rows if row.outcome is not None]

    def intrinsic_observations(self) -> dict[Version, bool]:
        """Per-version intrinsic test observations from all sub-outcomes."""
        obs: dict[Version, bool] = {}
        for outcome in self.plan_outcomes():
            for sub in outcome.sub_outcomes:
                obs.setdefault(sub.version, sub.observed)
        return obs

    def compound_results(self) -> dict[Version, bool]:
        return {row.version: row.delta for row in self.rows if row.origin == "plan"}

    def exchange_count(self) -> int:
        return sum(len(o.exchanges) for o in self.plan_outcomes())


def _mid(values: list):
    """Optimistic middle: even-sized lists round up."""
    return values[math.ceil((len(values) - 1) / 2)]


class AuditContext:
    """Shared audit state the strategies read."""

    def __init__(self, db: Database):
        self.db = db
        self.entry_versions = db.sorted_entry_versions()
        self.truth = {v: plan_truth_set(db, v) for v in self.entry_versions}
        self.candidates: set[Version] = set(db.family.versions)
        self.log = DecisionLog()

    def apply(self, outcome: TestOutcome) -> None:
        self.log.append_outcome(outcome)
        self.candidates = fold_constraints(
            self.db, ((sub.version, sub.observed) for sub in outcome.sub_outcomes),
            self.candidates)

    def status(self, v: Version) -> bool | None:
        """Decided result for testing ``v``: True/False, or None if unknown."""
        compound = self.log.compound_results()
        if v in compound:
            return compound[v]
        hits = self.candidates & self.truth[v]
        if not hits:
            return False
        if hits == self.candidates and self.candidates:
            return True
        return None

    def row_result(self, v: Version) -> bool | None:
        """Logged result for ``v`` (plan or referral sub-test), if any."""
        for row in self.log.rows:
            if row.version == v:
                return row.delta
        return None

    def informative(self) -> list[Version]:
        """Untested entries whose outcome would shrink the candidate set."""
        logged = self.log.versions()
        out = []
        for v in self.entry_versions:
            if v in logged:
                continue
            hits = self.candidates & self.truth[v]
            if hits and hits != self.candidates:
                out.append(v)
        return out


class BinarySearch:
    name = "BS"

    def pick(self, ctx: AuditContext) -> Version | None:
        logged = ctx.log.versions()
        pool = [v for v in ctx.entry_versions if v in ctx.candidates and v not in logged]
        return _mid(pool) if pool else None


class HighToLow:
    name = "HTL"

    def pick(self, ctx: AuditContext) -> Version | None:
        informative = ctx.informative()
        return informative[-1] if informative else None


class LowToHigh:
    name = "LTH"

    def pick(self, ctx: AuditContext) -> Version | None:
        informative = ctx.informative()
        return informative[0] if informative else None


class CascadingBinarySearch:
    """Bisect majors, then minors of the fixed major, then patches.

    Each level probes the lowest database entry of the candidate branch and
    bisects the values whose probes are still undecided, rounding up.
    """

    name = "CBS"

    def pick(self, ctx: AuditContext) -> Version | None:
        majors = sorted({v.major for v in ctx.entry_versions})
        probe, fixed_major = self._level_pick(ctx, majors, lambda m: self._lowest(ctx, major=m))
        if probe is not None:
            return probe
        if fixed_major is None:
            return None

        minors = sorted({v.minor for v in ctx.entry_versions if v.major == fixed_major})
        probe, fixed_minor = self._level_pick(
            ctx, minors, lambda n: self._lowest(ctx, major=fixed_major, minor=n))
        if probe is not None:
            return probe
        if fixed_minor is None:
            return None

        patches = sorted({v.patch for v in ctx.entry_versions
                          if v.major == fixed_major and v.minor == fixed_minor})
        probe, _ = self._level_pick(
            ctx, patches,
            lambda p: self._lowest(ctx, major=fixed_major, minor=fixed_minor, patch=p))
        return probe

    @staticmethod
    def _lowest(ctx: AuditContext, major=None, minor=None, patch=None) -> Version:
        pool = [v for v in ctx.entry_versions
                if (major is None or v.major == major)
                and (minor is None or v.minor == minor)
                and (patch is None or v.patch == patch)]
        return pool[0]

    @staticmethod
    def _level_pick(ctx: AuditContext, values: list, probe_for):
        """Bisect one level; return (next probe, fixed value when decided).

        Values whose probes were already tested drop out of the window;
        the remaining ones are bisected between the greatest value that
        passed and the least that failed, rounding up.
        """
        results = {val: ctx.row_result(probe_for(val)) for val in values}
        trues = [val for val, res in results.items() if res is True]
        falses = [val for val, res in results.items() if res is False]
        floor = max(trues) if trues else None
        cap = min(falses) if falses else None
        window = [val for val in values
                  if results[val] is None
                  and (floor is None or val > floor)
                  and (cap is None or val < cap)]
        if window:
            return probe_for(_mid(window)), None
        return None, floor


class MajorHighestStepUp:
    """Start at the highest major's branch start; climb minors eagerly,
    fall back to the next patch when a minor jump fails, and drop to a
    lower major when nothing on the branch worked."""

    name = "HMSU"

    def pick(self, ctx: AuditContext) -> Version | None:
        head = self._confirm_major(ctx)
        if head is None:
            return None
        if isinstance(head, _Probe):
            return head.version
        frontier = head
        while True:
            nxt = self._next_minor_start(ctx, frontier)
            if nxt is not None:
                status = ctx.status(nxt)
                if status is None:
                    return nxt
                if status:
                    frontier = nxt
                    continue
            advanced = False
            for cand in self._patches_above(ctx, frontier):
                status = ctx.status(cand)
                if status is None:
                    return cand
                if status:
                    frontier = cand
                    advanced = True
                    break
            if not advanced:
                return None

    def _confirm_major(self, ctx: AuditContext):
        for major in sorted({v.major for v in ctx.entry_versions}, reverse=True):
            start = CascadingBinarySearch._lowest(ctx, major=major)
            status = ctx.status(start)
            if status is None:
                return _Probe(start)
            if status:
                return start
        return None

    @staticmethod
    def _next_minor_start(ctx: AuditContext, frontier: Version) -> Version | None:
        minors = sorted({v.minor for v in ctx.entry_versions
                         if v.major == frontier.major and v.minor > frontier.minor})
        if not minors:
            return None
        return CascadingBinarySearch._lowest(ctx, major=frontier.major, minor=minors[0])

    @staticmethod
    def _patches_above(ctx: AuditContext, frontier: Version) -> list[Version]:
        return [v for v in ctx.entry_versions
                if v.major == frontier.major and v.minor == frontier.minor and v > frontier]


@dataclass(frozen=True)
class _Probe:
    version: Version


STRATEGIES = {
    "BS": BinarySearch,
    "CBS": CascadingBinarySearch,
    "HTL": HighToLow,
    "LTH": LowToHigh,
    "HMSU": MajorHighestStepUp,
}


def default_budget(db: Database) -> int:
    n = max(len(db.family), 2)
    return max(4 * math.ceil(math.log2(n)), 4)


def run_audit(
    db: Database,
    strategy_name: str,
    endpoints: tuple[InterfaceEndpoint, InterfaceEndpoint],
    rng: RandomnessSource,
    budget: int | None = None,
) -> DecisionLog:
    """Audit the provider behind ``endpoints`` until the candidate set cannot shrink."""
    return drive_audit(db, strategy_name, transport_probe(endpoints, rng, db), budget)


def drive_audit(db: Database, strategy_name: str, probe: Probe,
                budget: int | None = None) -> DecisionLog:
    """Drive successive tests, each sub-test decided by ``probe``."""
    short = STRATEGY_SHORT.get(strategy_name, strategy_name)
    if short not in STRATEGIES:
        raise AuditError(f"unknown strategy {strategy_name!r}")
    enabled = {STRATEGY_SHORT.get(s, s) for s in db.meta.strategies}
    if short not in enabled:
        raise AuditError(f"strategy {strategy_name!r} is not enabled for this database")

    strategy = STRATEGIES[short]()
    ctx = AuditContext(db)
    ctx.log.strategy = short
    budget = budget if budget is not None else default_budget(db)

    tests_run = 0
    while True:
        informative = ctx.informative()
        if not informative or tests_run >= budget:
            ctx.log.stop_reason = "budget" if informative else "converged"
            break
        pick = strategy.pick(ctx)
        if pick is None:
            pick = _mid(informative)
        if pick in ctx.log.versions():
            raise AuditError(f"strategy repeated version {render_version(pick)}")
        plan = resolve_plan(db, pick)
        outcome = run_test(plan, pick, probe, prior=ctx.log.intrinsic_observations())
        ctx.apply(outcome)
        tests_run += 1
    return ctx.log
