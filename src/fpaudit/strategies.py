"""Test-order strategies and the audit loop driving them.

Every strategy is a policy answering "which version should be tested
next?"; the surrounding loop is shared by direct and outsourced audits,
which differ only in the probe that decides each sub-test.  The loop keeps
the decision log, reuses already-decided sub-tests, maintains the set of
candidate versions that is still consistent with every observation, and
stops when no untested entry could shrink that set further (or the test
budget runs out).  This shared stopping rule is what makes all strategies
land on the same candidate set.

Each step the loop first asks whether any untested entry's outcome would
shrink the candidate set (an *informative* entry), scanning down from the
newest entry, then calls ``pick(ctx)``.  A strategy reads only what it
needs from the context: HTL the newest informative entry, LTH the oldest
(each found by a scan from its own end), BS the candidate entries' mask,
CBS and HMSU the database's branch heads and the logged results.  HMSU
keeps its walk on the context and resumes it at the next pick rather than
climbing again from the top major.  A scan
drops the rows it passes that no longer split the candidates, so an
audit's scans together visit each entry about once.  The ascending list
of every informative entry is built only when a strategy returns None:
the loop then tests its middle entry.  Strategy names: BS (bisection over
the sorted family), CBS (cascaded bisections over major, then minor, then
patch), HTL (the newest informative entry), LTH (the oldest informative
entry), HMSU (start at the highest major's branch start and step
optimistically upward).

A strategy is a decision tree over test outcomes: each step is a function
of the observations so far.  So the loop decides each step once per
database: ``Database.decisions`` keeps one tree per strategy class and
budget, and a node reached before gives its stop reason or pick and plan
without the stop test, the pick or the plan lookup.  The probe still runs
and every outcome is still applied to the audit's context and log.  An
auditor of many providers at the same few versions thus pays for the
decisions only on the first audit down each path.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, NamedTuple

from .challenge import RandomnessSource
from .database import Database, STRATEGY_SHORT, fold_constraints, resolve_plan
from .protocol import Probe, TestOutcome, run_test, transport_probe
from .transport import InterfaceEndpoint
from .versions import Version, render_version


class AuditError(RuntimeError):
    pass


class LogRow(NamedTuple):
    version: Version
    delta: bool
    testorder: int
    origin: str  # "plan" for strategy-chosen tests, "exchange" for referral sub-tests
    outcome: TestOutcome | None = None


@dataclass
class DecisionLog:
    """Append-only record of every decided version; no version repeats."""

    strategy: str = ""
    stop_reason: str = ""  # "converged", or "budget" if it ran out with informative entries left
    rows: list[LogRow] = field(default_factory=list)
    # Kept up to date by ``append_outcome``: logged version -> its row's delta,
    # and intrinsic sub-test version -> its observation.
    deltas: dict[Version, bool] = field(default_factory=dict, init=False, repr=False, compare=False)
    observations: dict[Version, bool] = field(default_factory=dict, init=False, repr=False,
                                              compare=False)

    def append_outcome(self, outcome: TestOutcome) -> None:
        version = outcome.version
        if version in self.deltas:
            raise AuditError(f"version {render_version(version)} already decided")
        observations = self.observations
        for sub in outcome.sub_outcomes:
            if observations.setdefault(sub.version, sub.observed) != sub.observed:
                raise AuditError(f"version {render_version(sub.version)} observed both true and false")
            # The plan's own sub-test is usually the very same object.
            if sub.provenance == "exchanged" and sub.version is not version \
                    and sub.version != version:
                self._append_row(sub.version, sub.observed, "exchange")
        self._append_row(version, outcome.delta, "plan", outcome)

    def _append_row(self, version: Version, delta: bool, origin: str,
                    outcome: TestOutcome | None = None) -> None:
        if version in self.deltas:
            raise AuditError(f"version {render_version(version)} already decided")
        self.deltas[version] = delta
        self.rows.append(LogRow(version, delta, len(self.rows) + 1, origin, outcome))

    def plan_outcomes(self) -> list[TestOutcome]:
        return [row.outcome for row in self.rows if row.outcome is not None]

    def exchange_count(self) -> int:
        return sum(len(o.exchanges) for o in self.plan_outcomes())


def _mid(values: list):
    """Optimistic middle: even-sized lists round up."""
    return values[math.ceil((len(values) - 1) / 2)]


class AuditContext:
    """Shared audit state the strategies read; ``candidates`` is a mask over
    the family index, as are the truth sets."""

    def __init__(self, db: Database):
        self.db = db
        self.entry_versions = db.entry_versions
        self.truth = db.truth
        self.candidates: int = db.family.full
        self.tested = 0  # mask of the logged versions
        self.log = DecisionLog()
        # The db.entry_truths rows outside _splitting[_lo:_hi] no longer split
        # the candidates.  Candidates only shrink, so an entry that stopped
        # splitting them never splits them again, and a tested entry stays
        # tested.
        self._splitting = db.entry_truths
        self._lo, self._hi = 0, len(self._splitting)
        # A strategy's walk, resumed at its next pick (HMSU keeps one).
        self.walk: Iterator[Version] | None = None

    def apply(self, outcome: TestOutcome) -> None:
        rows = self.log.rows
        logged = len(rows)
        self.log.append_outcome(outcome)
        index, tested = self.db.family.index, self.tested
        for row in rows[logged:]:
            tested |= 1 << index[row.version]
        self.tested = tested
        self.candidates = fold_constraints(
            self.db, [(sub.version, sub.observed) for sub in outcome.sub_outcomes],
            self.candidates)

    def status(self, v: Version) -> bool | None:
        """Result of testing ``v`` if all candidates agree on it (True/False), else None.

        A tested entry's sub-outcomes are already folded into the candidates,
        so while any candidate is left this is that test's logged result.
        """
        c = self.candidates
        hits = c & self.truth[v]
        return None if hits and hits != c else hits != 0

    def newest_informative(self) -> Version | None:
        """The newest untested entry whose outcome would shrink the candidate
        set, or None; the rows scanned past above it are dropped."""
        rows, c, tested = self._splitting, self.candidates, self.tested
        lo, hi = self._lo, self._hi
        while hi > lo:
            _, bit, truth = rows[hi - 1]
            if not tested & bit and (hits := c & truth) and hits != c:
                break
            hi -= 1
        self._hi = hi
        return rows[hi - 1][0] if hi > lo else None

    def oldest_informative(self) -> Version | None:
        """The oldest untested entry whose outcome would shrink the candidate
        set, or None; the rows scanned past below it are dropped."""
        rows, c, tested = self._splitting, self.candidates, self.tested
        lo, hi = self._lo, self._hi
        while lo < hi:
            _, bit, truth = rows[lo]
            if not tested & bit and (hits := c & truth) and hits != c:
                break
            lo += 1
        self._lo = lo
        return rows[lo][0] if lo < hi else None

    def informative(self) -> list[Version]:
        """Untested entries whose outcome would shrink the candidate set, ascending."""
        c, tested = self.candidates, self.tested
        self._splitting = [row for row in self._splitting[self._lo:self._hi]
                           if not tested & row[1] and (hits := c & row[2]) and hits != c]
        self._lo, self._hi = 0, len(self._splitting)
        return [row[0] for row in self._splitting]


def _nth_bit(mask: int, n: int) -> int:
    """Position of the set bit of ``mask`` with ``n`` set bits below it,
    found by bisecting on popcount."""
    total = mask.bit_count()
    lo, hi = 0, mask.bit_length()  # at most n set bits below lo, more below hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if total - (mask >> mid).bit_count() > n:
            hi = mid
        else:
            lo = mid
    return lo


class BinarySearch:
    name = "BS"

    def pick(self, ctx: AuditContext) -> Version | None:
        pool = ctx.candidates & ctx.db.entry_mask & ~ctx.tested
        # The optimistic middle of the untested candidate entries, as _mid.
        return ctx.db.family.versions[_nth_bit(pool, pool.bit_count() // 2)] if pool else None


class HighToLow:
    name = "HTL"

    def pick(self, ctx: AuditContext) -> Version | None:
        return ctx.newest_informative()


class LowToHigh:
    name = "LTH"

    def pick(self, ctx: AuditContext) -> Version | None:
        return ctx.oldest_informative()


class CascadingBinarySearch:
    """Bisect majors, then minors of the fixed major, then patches.

    Each level probes the lowest database entry of each branch and bisects
    the branches whose probes are untested, between the greatest value
    that passed and the least that failed, rounding up; the greatest
    passed value fixes the level.
    """

    name = "CBS"

    def pick(self, ctx: AuditContext) -> Version | None:
        branch_heads, deltas = ctx.db.branch_heads, ctx.log.deltas
        prefix: tuple[int, ...] = ()
        while len(prefix) < 3:  # major, minor, patch
            # Values ascend, so the last pass is the greatest and the first fail the least.
            floor, cap, untested = -1, math.inf, []
            for val, head in branch_heads[prefix].items():
                res = deltas.get(head)
                if res is None:
                    untested.append((val, head))
                elif res:
                    floor = val
                elif cap == math.inf:
                    cap = val
            window = [head for val, head in untested if floor < val < cap]
            if window:
                return _mid(window)
            if floor < 0:
                return None
            prefix += (floor,)
        return None


_minor_branch = attrgetter("major", "minor")


class MajorHighestStepUp:
    """Start at the highest major's branch start; climb minors eagerly,
    fall back to the next patch when a minor jump fails, and drop to a
    lower major when nothing on the branch worked.

    The walk is kept on the context and resumed at the next pick.  That is
    exact: a status that is True or False stays so while any candidate is
    left, so a walk started afresh would pass the same entries to the same
    place, and once no candidate is left the loop's stop test ends the audit.
    For the same reason the loop may drop the walk, as it does after a step
    read from the database's decision memo: the next pick starts afresh.
    """

    name = "HMSU"

    def pick(self, ctx: AuditContext) -> Version | None:
        if ctx.walk is None:
            ctx.walk = self._walk(ctx)
        return next(ctx.walk, None)

    @staticmethod
    def _walk(ctx: AuditContext) -> Iterator[Version]:
        """Yield each entry the walk stops at, again until its status is known."""
        for frontier in reversed(ctx.db.branch_heads[()].values()):
            while (status := ctx.status(frontier)) is None:
                yield frontier
            if status:
                break
        else:
            return
        entries = ctx.entry_versions
        pos = bisect_left(entries, frontier)
        while True:
            # The entries above the frontier on its minor branch, led by the
            # first entry of the next minor branch of the same major.
            end = bisect_left(entries, (frontier.major, frontier.minor + 1), pos + 1,
                              key=_minor_branch)
            order = list(range(pos + 1, end))
            if end < len(entries) and entries[end].major == frontier.major:
                order.insert(0, end)
            for i in order:
                while (status := ctx.status(entries[i])) is None:
                    yield entries[i]
                if status:
                    frontier, pos = entries[i], i
                    break
            else:
                return


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


_observed = attrgetter("observed")


def drive_audit(db: Database, strategy_name: str, probe: Probe,
                budget: int | None = None) -> DecisionLog:
    """Drive successive tests, each sub-test decided by ``probe``.

    The steps are read from the strategy's tree in ``db.decisions``, keyed
    by the strategy class and the budget; each child is keyed by the tuple
    of the previous step's sub-test observations.  Only at a node no audit
    of ``db`` has reached does the loop run its stop test, the pick (with
    the ``_mid`` fallback) and ``resolve_plan`` on the live context, and
    record the result with ``setdefault``, so audits of one database may run
    in threads at once.  Every outcome is applied to the live context as
    without the memo: the same rows, stop reason and errors.
    """
    short = STRATEGY_SHORT.get(strategy_name, strategy_name)
    if short not in STRATEGIES:
        raise AuditError(f"unknown strategy {strategy_name!r}")
    enabled = {STRATEGY_SHORT.get(s, s) for s in db.meta.strategies}
    if short not in enabled:
        raise AuditError(f"strategy {strategy_name!r} is not enabled for this database")

    strategy = STRATEGIES[short]()
    ctx = AuditContext(db)
    log = ctx.log
    log.strategy = short
    budget = budget if budget is not None else default_budget(db)

    children, key = db.decisions, (type(strategy), budget)
    tests_run = 0
    while True:
        node = children.get(key)
        if node is None:
            node = children.setdefault(key, _decide(strategy, ctx, tests_run, budget))
        else:
            ctx.walk = None  # behind by this step; a fresh walk picks the same
        if type(node) is str:
            log.stop_reason = node
            return log
        pick, plan, children = node
        if pick in log.deltas:
            raise AuditError(f"strategy repeated version {render_version(pick)}")
        outcome = run_test(plan, pick, probe, prior=log.observations)
        ctx.apply(outcome)
        tests_run += 1
        key = tuple(map(_observed, outcome.sub_outcomes))


def _decide(strategy, ctx: AuditContext, tests_run: int, budget: int):
    """The loop's step on the live context: a stop reason, or the pick, its
    plan and an empty table of next steps."""
    if ctx.newest_informative() is None:
        return "converged"
    if tests_run >= budget:
        return "budget"
    pick = strategy.pick(ctx)
    if pick is None:
        pick = _mid(ctx.informative())
    return pick, resolve_plan(ctx.db, pick), {}
