"""Every audit an adversary provider can steer a strategy through.

An *adversary* at source S forges no answer: it may pass any sub-test whose
function S has, and fails every other one.  So an audit's only branch
points are the sub-tests S could pass, and every adversary audit from S is
listed by replaying ``drive_audit`` with a probe that reads a choice prefix:
the prefix's choices at the first branch points, then "fail" at each later
one.  Each replay is one *leaf*; its children flip one of those default
fails to a pass.  Two leaves differ at their first differing choice, so the
search lists each audit once.

A leaf *fools* the audit when it converged, its log is consistent, and its
candidates hold a version T newer than S that some entry tells apart from
S: a target-blind report would then call S compliant with T.

To print the leaves and fooled (S, T) pairs of every strategy on the
fixture and the N=32 and N=48 grids::

    PYTHONPATH=src python tests/adversary.py
"""

from __future__ import annotations

from typing import Iterator

from fpaudit.database import Database
from fpaudit.strategies import DecisionLog, drive_audit
from fpaudit.transport import ExchangeRecord
from fpaudit.verdict import InconsistentLogError, compute_bounds
from fpaudit.versions import Version

# An exchange that reached the provider, so that a report can judge compliance.
REACHED = ExchangeRecord(b"", b"", 0.0, 0.0, 0.0)


def adversary_leaves(db: Database, strategy: str, src: Version) -> Iterator[DecisionLog]:
    """The log of each adversary audit from ``src``."""
    can_pass = 1 << db.family.index[src]
    prefixes: list[tuple[bool, ...]] = [()]
    while prefixes:
        prefix = prefixes.pop()
        choices: list[bool] = []

        def probe(v: Version):
            if not db.avail_masks[v] & can_pass:
                return False, "mismatch", REACHED
            observed = prefix[len(choices)] if len(choices) < len(prefix) else False
            choices.append(observed)
            return observed, None if observed else "mismatch", REACHED

        log = drive_audit(db, strategy, probe)
        yield log
        prefixes.extend(tuple(choices[:k]) + (True,) for k in range(len(prefix), len(choices)))


def fooled_targets(db: Database, src: Version, log: DecisionLog) -> list[Version]:
    """The versions newer than ``src``, told apart from it by some entry, that
    a converged, consistent leaf leaves among the candidates."""
    if log.stop_reason != "converged":
        return []
    try:
        members = compute_bounds(log, db).members
    except InconsistentLogError:
        return []
    bit = 1 << db.family.index[src]
    index, truths = db.family.index, db.truth.values()
    return [t for t in members if t > src
            and any((truth >> index[t] & 1) != bool(truth & bit) for truth in truths)]


if __name__ == "__main__":
    from families import FIXTURES, grid
    from fpaudit.database import load_database
    from fpaudit.strategies import STRATEGIES
    from fpaudit.versions import render_version

    documents = {
        "fixture": (FIXTURES / "php_like_db.json").read_bytes(),
        "grid-32": grid.grid_docs(0, grid.GridShape(2, 4, 4, 2, 1, 2)).db_bytes(),
        "grid-48": grid.grid_docs(0, grid.GridShape(3, 4, 4, 3, 2, 4)).db_bytes(),
    }
    for family, document in documents.items():
        db = load_database(document)
        for name in STRATEGIES:
            leaves, fooled = 0, []
            for src in db.family.versions:
                for log in adversary_leaves(db, name, src):
                    leaves += 1
                    fooled += [(src, t) for t in fooled_targets(db, src, log) if (src, t) not in fooled]
            pairs = ", ".join(f"({render_version(s)}, {render_version(t)})" for s, t in fooled)
            print(f"{family} {name}: {leaves} leaves, {len(fooled)} fooled pairs {pairs}")
