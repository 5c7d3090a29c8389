"""Folding a decision log into version bounds, candidates and compliance.

Every intrinsic-test observation constrains where the provider's version can
sit: a passed test keeps only versions where the probed function is
available, a failed one keeps the complement.  The candidate set is the
family filtered by all constraints; bounds, satisfied windows and excluded
windows summarize the same information for the report.

``oracle_candidates`` is the independent check: it replays every logged plan
against a fresh honest simulated provider pinned at each family version and
keeps the versions that reproduce the log, using only simulator semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .challenge import RandomnessSource, render_test
from .database import Database, fold_constraints, plan_truth_set, resolve_plan
from .simulator import HonestResponder, LatencyModel, SimFamily
from .strategies import DecisionLog
from .versions import Version, render_version


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
    deprecated_windows: tuple[tuple[Window, ...], ...] = ()
    exclusions: tuple[tuple[Window, ...], ...] = ()
    constraints: tuple[tuple[Version, bool], ...] = ()

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
        return v in self.members

    def __len__(self) -> int:
        return len(self.members)

    def labels(self) -> list[str]:
        return [render_version(v) for v in self.members]


def compute_bounds(log: DecisionLog, db: Database) -> Bounds:
    """Interpret the log's observations; raises on a contradictory log."""
    observations = _collect_observations(log)
    members = fold_constraints(db, observations)
    if not members and observations:
        raise InconsistentLogError(*_name_conflict(db, observations))

    compound = log.compound_results()
    upward = {v: frozenset(u for u in db.family.versions if u >= v) for v in compound}
    true_versions = [v for v, d in compound.items() if d]
    lower = max(true_versions) if true_versions else None
    upper_candidates = [v for v, d in compound.items()
                        if not d and plan_truth_set(db, v) == upward[v]]
    upper = min(upper_candidates) if upper_candidates else None

    deprecated = []
    for v in true_versions:
        windows = db.availability_windows.get(v)
        if windows and windows != ((v, None),) and db.availability[v] != upward[v]:
            deprecated.append(windows)
    exclusions = []
    for version, observed in observations:
        if not observed:
            windows = db.availability_windows.get(version)
            if windows:
                exclusions.append(windows)
    return Bounds(
        lower=lower,
        upper=upper,
        deprecated_windows=tuple(deprecated),
        exclusions=tuple(exclusions),
        constraints=tuple(observations),
    )


def _collect_observations(log: DecisionLog) -> list[tuple[Version, bool]]:
    seen: dict[Version, bool] = {}
    for outcome in log.plan_outcomes():
        for sub in outcome.sub_outcomes:
            if sub.version in seen and seen[sub.version] != sub.observed:
                raise InconsistentLogError(
                    f"version {render_version(sub.version)} observed both true and false",
                    (sub.version, sub.version),
                )
            seen.setdefault(sub.version, sub.observed)
    return sorted(seen.items())


def _name_conflict(db: Database, observations: list[tuple[Version, bool]]):
    for i, (v1, o1) in enumerate(observations):
        s1 = fold_constraints(db, [(v1, o1)])
        for v2, o2 in observations[i + 1:]:
            if not fold_constraints(db, [(v2, o2)], s1):
                msg = (f"inconsistent log: {render_version(v1)}={o1} conflicts with "
                       f"{render_version(v2)}={o2}")
                return msg, (v1, v2)
    return "inconsistent log: observations admit no family version", None


def candidates(bounds: Bounds, db: Database) -> CandidateSet:
    """All family versions consistent with every logged observation.

    Versions without database entries ride along with whichever decided
    neighbours they are indistinguishable from.
    """
    return CandidateSet(tuple(sorted(fold_constraints(db, bounds.constraints))))


def compliance(c: CandidateSet, target: Version) -> bool:
    return target in c


def oracle_candidates(log: DecisionLog, db: Database, sim_family: SimFamily) -> CandidateSet:
    """Brute-force validation set: replay the logged plans at every version.

    A version survives only if a fresh honest provider pinned at it
    reproduces every logged plan decision and sub-observation, in order.
    """
    logged = []
    for outcome in log.plan_outcomes():
        plan = resolve_plan(db, outcome.version)
        logged.append((outcome, plan))

    observe_cache: dict[tuple[Version, Version], bool] = {}

    def observe(tested: Version, src: Version) -> bool:
        key = (tested, src)
        if key not in observe_cache:
            rendered = render_test(db, tested, RandomnessSource(seed=0xA11D17))
            responder = HonestResponder(sim_family, src, latency=LatencyModel(0.0, 0.0))
            observe_cache[key] = responder.evaluate(rendered.challenge_payload) == rendered.expected_payload
        return observe_cache[key]

    survivors = []
    for src in sim_family.family.versions:
        prior: dict[Version, bool] = {}
        consistent = True
        for outcome, plan in logged:
            delta = True
            replayed = []
            for step in plan:
                observed = prior[step.version] if step.version in prior else observe(step.version, src)
                prior.setdefault(step.version, observed)
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
    try:
        b = compute_bounds(log, db)
    except InconsistentLogError as exc:
        return VerdictReport(
            strategy=log.strategy, bounds=None, candidate_set=None, target=target,
            compliant=None, claimed_version=claimed_version, inconsistency=str(exc),
            rows=tuple(log.rows),
        )
    c = candidates(b, db)
    # An audit cut short by its budget has not earned a compliance verdict.
    decided = target is not None and log.stop_reason != "budget"
    compliant = compliance(c, target) if decided else None
    return VerdictReport(
        strategy=log.strategy, bounds=b, candidate_set=c, target=target,
        compliant=compliant, claimed_version=claimed_version, inconsistency=None,
        rows=tuple(log.rows),
    )
