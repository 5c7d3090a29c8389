"""Folding a decision log into version bounds, candidates and compliance.

Every intrinsic-test observation constrains where the provider's version can
sit: a passed test keeps only versions where the probed function is
available, a failed one keeps the complement.  The candidate set is the
family filtered by all constraints; bounds, satisfied windows and excluded
windows summarize the same information for the report, which is the one
place availability masks are read back as windows.

The bounds come from compound (whole-plan) results.  The lower bound is the
newest passed entry whose plan passes at no version below it, so a pass puts
the provider at or above it; the upper bound is the oldest failed entry whose
plan passes at exactly the versions from it up, so a fail puts the provider
below it.  Neither bound can then cut into the candidate set.

``oracle_candidates`` is the independent check: it replays every logged plan
against a fresh honest simulated provider pinned at each family version and
keeps the versions that reproduce the log, using only simulator semantics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .challenge import RandomnessSource, render_test
from .database import Database, fold_constraints, resolve_plan
from .simulator import HonestResponder, LatencyModel, SimFamily
from .strategies import DecisionLog
from .versions import Version, VersionSet, render_version


class InconsistentLogError(ValueError):
    """The log admits no version at all; names a conflicting pair."""

    def __init__(self, message: str, conflict: tuple[Version, Version] | None = None):
        super().__init__(message)
        self.conflict = conflict


Window = tuple[Version, "Version | None"]


@dataclass(frozen=True)
class Bounds:
    lower: Version | None
    upper: Version | None
    family: VersionSet = field(repr=False)
    deprecated_masks: tuple[int, ...] = ()  # availability of each windowed passed entry
    exclusion_masks: tuple[int, ...] = ()  # availability of each failed observation
    members: tuple[Version, ...] = ()  # family versions the observations admit, ascending

    @property
    def deprecated_windows(self) -> tuple[tuple[Window, ...], ...]:
        return tuple(map(self.family.windows, self.deprecated_masks))

    @property
    def exclusions(self) -> tuple[tuple[Window, ...], ...]:
        return tuple(map(self.family.windows, self.exclusion_masks))

    def to_doc(self) -> dict:
        return {
            "lower": render_version(self.lower) if self.lower else None,
            "upper": render_version(self.upper) if self.upper else None,
            "deprecatedWindows": [_windows_doc(w) for w in self.deprecated_windows],
            "exclusions": [_windows_doc(w) for w in self.exclusions],
        }


def _windows_doc(windows: tuple[Window, ...]) -> list:
    return [[render_version(lo), render_version(hi) if hi else None] for lo, hi in windows]


@dataclass(frozen=True)
class CandidateSet:
    members: tuple[Version, ...]

    def __contains__(self, v: Version) -> bool:
        return v in self._lookup

    @functools.cached_property
    def _lookup(self) -> frozenset[Version]:
        """``members`` as a set, built on the first membership test."""
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def labels(self) -> list[str]:
        return [render_version(v) for v in self.members]


def compute_bounds(log: DecisionLog, db: Database) -> Bounds:
    """Interpret the log's observations; raises on a contradictory log."""
    index = db.family.index
    observations = sorted(log.observations.items(), key=lambda item: index[item[0]])
    members = fold_constraints(db, observations)
    if not members and observations:
        raise InconsistentLogError(*_name_conflict(db, observations))

    # One pass over the plan rows, comparing by family index.  A pass puts the
    # provider at or above v only when v's plan passes at no lower version; a
    # fail puts it below v only when it passes at every version from v up.
    full, truth, avail = db.family.full, db.truth, db.avail_masks
    lower = upper = None  # (family index, logged version)
    deprecated = []
    for row in log.rows:
        if row.outcome is None:
            continue
        v = row.version
        i = index[v]
        upward = full >> i << i  # the mask of u >= v
        if row.delta:
            if not truth[v] & ~upward and (lower is None or i > lower[0]):
                lower = i, v
            if (a := avail.get(v)) and a != upward:
                deprecated.append(a)
        elif truth[v] == upward and (upper is None or i < upper[0]):
            upper = i, v

    return Bounds(
        lower=lower[1] if lower else None,
        upper=upper[1] if upper else None,
        family=db.family,
        deprecated_masks=tuple(deprecated),
        exclusion_masks=tuple(avail[v] for v, observed in observations if not observed and avail[v]),
        members=db.family.select(members),
    )


def _name_conflict(db: Database, observations: list[tuple[Version, bool]]):
    for i, (v1, o1) in enumerate(observations):
        s1 = fold_constraints(db, [(v1, o1)])
        for v2, o2 in observations[i + 1:]:
            if not fold_constraints(db, [(v2, o2)], s1):
                msg = (f"inconsistent log: {render_version(v1)}={o1} conflicts with "
                       f"{render_version(v2)}={o2}")
                return msg, (v1, v2)
    return "inconsistent log: observations admit no family version", None


def oracle_candidates(log: DecisionLog, db: Database, sim_family: SimFamily) -> CandidateSet:
    """Brute-force validation set: replay the logged plans at every version.

    A version survives only if a fresh honest provider pinned at it
    reproduces every logged plan decision and sub-observation, in order.
    """
    logged = [(outcome, resolve_plan(db, outcome.version)) for outcome in log.plan_outcomes()]
    # A rendered test does not depend on the provider, so each tested entry
    # is rendered once, with the same seed, for every source.
    rendered = {step.version: render_test(db, step.version, RandomnessSource(seed=0xA11D17))
                for _, plan in logged for step in plan}

    survivors = []
    for src in sim_family.family.versions:
        responder = HonestResponder(sim_family, src, latency=LatencyModel(0.0, 0.0), seed=0)
        prior: dict[Version, bool] = {}  # each entry's first observation at src
        consistent = True
        for outcome, plan in logged:
            delta = True
            replayed = []
            for step in plan:
                observed = prior.get(step.version)
                if observed is None:
                    test = rendered[step.version]
                    observed = prior[step.version] = \
                        responder.evaluate(test.challenge_payload) == test.expected_payload
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


@dataclass(frozen=True)
class VerdictReport:
    strategy: str
    bounds: Bounds | None
    candidate_set: CandidateSet | None
    target: Version | None
    compliant: bool | None
    claimed_version: str | None
    inconsistency: str | None
    rows: tuple = field(default_factory=tuple)

    def to_doc(self) -> dict:
        return {
            "reportVersion": 1,
            "strategy": self.strategy,
            "claimedVersion": self.claimed_version,
            "target": render_version(self.target) if self.target else None,
            "bounds": self.bounds.to_doc() if self.bounds else None,
            "candidates": self.candidate_set.labels() if self.candidate_set else [],
            "compliance": self.compliant,
            "inconsistency": self.inconsistency,
            "tests": [self._row_doc(row) for row in self.rows],
        }

    @staticmethod
    def _row_doc(row) -> dict:
        doc = {
            "Version": render_version(row.version),
            "Result": row.delta,
            "Testorder": row.testorder,
            "origin": row.origin,
        }
        if row.outcome is not None and not row.delta:
            for sub in row.outcome.sub_outcomes:
                if not sub.satisfied and sub.reason:
                    doc["reason"] = sub.reason
                    break
        return doc


def build_report(log: DecisionLog, db: Database, target: Version | None = None,
                 claimed_version: str | None = None) -> VerdictReport:
    """The log's verdict: its bounds and candidates, or its inconsistency,
    and compliance with ``target``.

    The bounds and candidates are ``compute_bounds`` of the log (its
    *verdict fold*).  For a log that ``strategies.drive_audit`` left where it
    stopped in the decision memo of this very ``db``, the fold is kept in the
    ``ends`` table of the audit's last pick node, keyed by the last outcome's
    observations: the first such report computes it, with ``setdefault`` as
    the loop records a step, and every later audit down the same path reads
    it.  This is sound because a node is reached by exactly one sequence of
    picks and observation keys, and that sequence fixes each plan's
    sub-tests, which of them were exchanged and which implied, the rows'
    versions and deltas, and the observations; ``compute_bounds`` reads
    nothing else.  Any other log, one appended to after its audit or one
    reported against another database, is folded afresh.  Compliance and
    the transport-error and budget rules read the log on every call.
    """
    end = log._end
    if end is not None and end[0] is db:
        _, ends, key = end
        fold = ends.get(key)
        if fold is None:
            fold = ends.setdefault(key, _verdict_fold(log, db))
    else:
        fold = _verdict_fold(log, db)
    if type(fold) is str:
        return VerdictReport(
            strategy=log.strategy, bounds=None, candidate_set=None, target=target,
            compliant=None, claimed_version=claimed_version, inconsistency=fold,
            rows=tuple(log.rows),
        )
    b, c = fold
    # An audit cut short by its budget, or one whose exchange failed in
    # transport (which observed nothing of the provider), has not earned a
    # compliance verdict.
    decided = (target is not None and log.stop_reason != "budget"
               and log.transport_error() is None)
    compliant = target in c if decided else None
    return VerdictReport(
        strategy=log.strategy, bounds=b, candidate_set=c, target=target,
        compliant=compliant, claimed_version=claimed_version, inconsistency=None,
        rows=tuple(log.rows),
    )


def _verdict_fold(log: DecisionLog, db: Database) -> tuple[Bounds, CandidateSet] | str:
    """``compute_bounds`` of the log with its candidate set, or the message
    of the ``InconsistentLogError`` it raises."""
    try:
        b = compute_bounds(log, db)
    except InconsistentLogError as exc:
        return str(exc)
    return b, CandidateSet(b.members)
