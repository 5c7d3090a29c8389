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
CBS and HMSU the database's branch heads and the logged results.  A scan
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
database: ``Database.decisions`` keeps one tree per strategy class, and a
node reached before gives its pick and plan, or the stop reason
``"converged"``, without the stop test, the pick or the plan lookup.  The
budget is not part of the tree: the loop stops with ``"budget"`` at a pick
node once it has run that many tests, so audits with any budget share one
tree.  Nor is the provider's silence: a test that leaves a sub-test
unanswered (timed out on its retry too, or failed in transport, see
``protocol``) stops the audit with ``"unanswered"``, read from that live
outcome, so every observation of an audit that goes on is an answer.  The
probe still runs and every outcome is still appended to the audit's log;
the context folds the log into its candidates and tested masks only when
something reads them, so a step the tree already holds costs the exchange
and the append.  The tree also keeps the verdict fold
of each place an audit stopped, which ``verdict.build_report`` fills on
the first report of a log that stopped there.  An auditor of many
providers at the same few versions thus pays for the decisions and the
folds, the report's included, only on the first audit down each path.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from .challenge import RandomnessSource
from .database import Database, STRATEGY_SHORT, fold_constraints, resolve_plan
from .protocol import Probe, TestOutcome, Unanswered, run_test, transport_probe, unanswered
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
    # "converged"; "budget" if it ran out with informative entries left; or
    # "unanswered" if a test left a sub-test unanswered (``unanswered()``).
    stop_reason: str = ""
    rows: list[LogRow] = field(default_factory=list)
    # Kept up to date by ``append_outcome``: logged version -> its row's delta,
    # and intrinsic sub-test version -> its observation.
    deltas: dict[Version, bool] = field(default_factory=dict, init=False, repr=False, compare=False)
    observations: dict[Version, bool] = field(default_factory=dict, init=False, repr=False,
                                              compare=False)
    # Set by ``drive_audit`` when it stops after a test: (the database, the
    # ``ends`` of its last pick node, the last outcome's key), where
    # ``verdict.build_report`` keeps this log's verdict fold.  Any append
    # clears it, so a log extended after its audit is folded afresh.
    _end: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def append_outcome(self, outcome: TestOutcome) -> None:
        """Log a plan's outcome: one row per newly exchanged sub-test, then
        the plan's row.  Raises ``AuditError``, changing nothing, when a
        version is decided twice or observed both true and false."""
        version, deltas, observations = outcome.version, self.deltas, self.observations
        if version in deltas:
            raise AuditError(f"version {render_version(version)} already decided")
        new: dict[Version, bool] = {}  # first observations, checked before any is logged
        exchanged = []
        for sub in outcome.sub_outcomes:
            v, observed = sub.version, sub.observed
            first = observations.get(v)
            if first is None:
                first = new.setdefault(v, observed)
            if first != observed:
                raise AuditError(f"version {render_version(v)} observed both true and false")
            # The plan's own sub-test is usually the very same object.
            if sub.provenance == "exchanged" and v is not version and v != version:
                if v in deltas or v in exchanged:
                    raise AuditError(f"version {render_version(v)} already decided")
                exchanged.append(v)
        observations.update(new)
        rows = self.rows
        for v in exchanged:
            deltas[v] = observations[v]
            rows.append(LogRow(v, observations[v], len(rows) + 1, "exchange"))
        deltas[version] = outcome.delta
        rows.append(LogRow(version, outcome.delta, len(rows) + 1, "plan", outcome))
        self._end = None

    def plan_outcomes(self) -> list[TestOutcome]:
        return [row.outcome for row in self.rows if row.outcome is not None]

    def exchange_count(self) -> int:
        return sum(len(o.exchanges) for o in self.plan_outcomes())

    def unanswered(self) -> Unanswered | None:
        """The first sub-test the provider left unanswered (timed out on
        every try, or failed in transport), or None if it answered every
        one."""
        return next(filter(None, map(unanswered, self.plan_outcomes())), None)


def _mid(values: list):
    """Optimistic middle: even-sized lists round up."""
    return values[math.ceil((len(values) - 1) / 2)]


class AuditContext:
    """Shared audit state the strategies read; ``candidates`` is a mask over
    the family index, as are the truth sets, and ``tested`` is the mask of
    the logged versions.

    ``apply`` only appends an outcome to the log.  Both masks are folded
    from the rows logged since the last fold when either is read, so a step
    that reads neither costs only the append, and every read sees the masks
    the whole log gives.
    """

    def __init__(self, db: Database):
        self.db = db
        self.entry_versions = db.entry_versions
        self.truth = db.truth
        self.log = DecisionLog()
        self._candidates: int = db.family.full
        self._tested = 0
        self._folded = 0  # log rows already in both masks
        # The db.entry_truths rows outside _splitting[_lo:_hi] no longer split
        # the candidates.  Candidates only shrink, so an entry that stopped
        # splitting them never splits them again, and a tested entry stays
        # tested.
        self._splitting = db.entry_truths
        self._lo, self._hi = 0, len(self._splitting)

    def apply(self, outcome: TestOutcome) -> None:
        self.log.append_outcome(outcome)

    def _fold(self) -> None:
        """Fold the rows logged since the last fold into both masks."""
        rows = self.log.rows
        if self._folded == len(rows):
            return
        pending = rows[self._folded:]
        self._folded = len(rows)
        index, tested = self.db.family.index, self._tested
        for row in pending:
            tested |= 1 << index[row.version]
        self._tested = tested
        self._candidates = fold_constraints(
            self.db, [(sub.version, sub.observed) for row in pending if row.outcome is not None
                      for sub in row.outcome.sub_outcomes],
            self._candidates)

    @property
    def candidates(self) -> int:
        self._fold()
        return self._candidates

    @property
    def tested(self) -> int:
        self._fold()
        return self._tested

    def status(self, v: Version) -> bool | None:
        """Result of testing ``v`` if all candidates agree on it (True/False), else None.

        Reading the candidates folds every tested entry's sub-outcomes into
        them, so while any candidate is left this is that test's logged result.
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
        return [v for v, bit, truth in self._splitting[self._lo:self._hi]
                if not tested & bit and (hits := c & truth) and hits != c]


class BinarySearch:
    name = "BS"

    def pick(self, ctx: AuditContext) -> Version | None:
        pool = ctx.candidates & ctx.db.entry_mask & ~ctx.tested
        return _mid(ctx.db.family.select(pool)) if pool else None


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

    Each pick climbs from the highest major and returns the first entry
    whose status is not yet known.
    """

    name = "HMSU"

    def pick(self, ctx: AuditContext) -> Version | None:
        for frontier in reversed(ctx.db.branch_heads[()].values()):
            if (status := ctx.status(frontier)) is None:
                return frontier
            if status:
                break
        else:
            return None
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
                if (status := ctx.status(entries[i])) is None:
                    return entries[i]
                if status:
                    frontier, pos = entries[i], i
                    break
            else:
                return None


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
    by the strategy class; each child is keyed by the tuple of the previous
    step's sub-test observations.  Only at a node no audit of ``db`` has
    reached does the loop run its stop test, the pick (with the ``_mid``
    fallback) and ``resolve_plan`` on the live context, and record the
    result with ``setdefault``, so audits of one database may run in threads
    at once.  A pick node reached after ``budget`` tests stops the audit
    with ``"budget"``.  A test that leaves a sub-test unanswered stops it
    with ``"unanswered"``, decided from the outcome, never kept in the tree.
    Every outcome is applied to the live context as without the memo: the
    same rows, stop reason and errors.  At a node the tree holds, nothing
    reads the context, so that step only appends to the log; ``_decide`` and any read after the audit fold what was logged.  An
    audit that stops after a test leaves on its log the last pick node's
    table of verdict folds and the last outcome's key, for ``build_report``.
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

    children, ends, key = db.decisions, None, type(strategy)
    tests_run = 0
    while True:
        node = children.get(key)
        if node is None:
            node = children.setdefault(key, _decide(strategy, ctx))
        if type(node) is str:
            log.stop_reason = node
            break
        if tests_run >= budget:
            log.stop_reason = "budget"
            break
        pick, plan, children, ends = node
        if pick in log.deltas:
            raise AuditError(f"strategy repeated version {render_version(pick)}")
        outcome = run_test(plan, pick, probe, prior=log.observations)
        ctx.apply(outcome)
        tests_run += 1
        key = tuple(map(_observed, outcome.sub_outcomes))
        if unanswered(outcome) is not None:
            log.stop_reason = "unanswered"
            break
    if ends is not None:
        log._end = db, ends, key
    return log


def _decide(strategy, ctx: AuditContext):
    """The loop's step on the live context: ``"converged"``, or the pick,
    its plan and empty tables of next steps and of verdict folds."""
    if ctx.newest_informative() is None:
        return "converged"
    pick = strategy.pick(ctx)
    if pick is None:
        pick = _mid(ctx.informative())
    return pick, resolve_plan(ctx.db, pick), {}, {}
