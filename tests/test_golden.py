"""Golden audit matrix: every strategy x every fixture source x four provider
behaviours, then every strategy x 20 synthetic families (``synth_docs``
seeds 0-19) x {honest, claim-faker} at a seeded source, then 33 evenly
spaced sources of the seed-0 grid family x every strategy x {honest, proxy},
with seeded randomness, must reproduce the recorded audits.

The grid family comes from the benchmark's generator, ``perfbench/grid.py``,
which this test imports read-only; its database is authored as the
benchmark's grid workload authors it (the top release added with
``add_entry``), 257 versions in all.

Each line of ``golden_audits.txt`` holds one audit: its log rows
``(testorder, version, delta, origin)``, the stop reason, the candidates,
the lower and upper bound, and a short SHA-256 of the exchanged challenge
bytes.  To re-record the file after a deliberate change of verdicts::

    PYTHONPATH=src python tests/test_golden.py

which prints, for each provider behaviour, how many of its lines changed.
"""

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

from fpaudit.challenge import RandomnessSource
from fpaudit.database import VariableSpec, add_entry, load_database
from fpaudit.simulator import (LatencyModel, SimProviderConfig, load_sim_config, produce,
                               sim_family_from_doc)
from fpaudit.strategies import STRATEGIES, run_audit
from families import synth_docs
from fpaudit.transport import make_loopback
from fpaudit.verdict import build_report
from fpaudit.versions import render_version

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(ROOT / "perfbench"))
import grid  # noqa: E402
GOLDEN = Path(__file__).with_name("golden_audits.txt")
BEHAVIORS = ("honest", "claim-faker", "function-faker", "proxy")
SYNTH_SEEDS = range(20)
SYNTH_BEHAVIORS = ("honest", "claim-faker")
GRID_SOURCES = 33
GRID_BEHAVIORS = ("honest", "proxy")


def _label(v) -> str:
    return render_version(v) if v is not None else "-"


def audit_lines() -> list[str]:
    db = load_database((FIXTURES / "php_like_db.json").read_bytes())
    sim, _ = load_sim_config((FIXTURES / "php_like_sim_honest.json").read_bytes())
    lines = []
    for strategy in STRATEGIES:
        for src in sim.family.versions:
            for behavior in BEHAVIORS:
                lines.append(_audit_line(db, sim, strategy, src, behavior, seed=len(lines)))
    for family_seed in SYNTH_SEEDS:
        db_doc, sim_doc = synth_docs(family_seed)
        db = load_database(json.dumps(db_doc))
        sim = sim_family_from_doc(sim_doc)
        for strategy in STRATEGIES:
            for behavior in SYNTH_BEHAVIORS:
                seed = len(lines)
                src = random.Random(seed).choice(sim.family.versions)
                lines.append(_audit_line(db, sim, strategy, src, behavior, seed))
    db, sim = _grid_family()
    versions = sim.family.versions
    sources = [versions[i * (len(versions) - 1) // (GRID_SOURCES - 1)] for i in range(GRID_SOURCES)]
    for strategy in STRATEGIES:
        for src in sources:
            for behavior in GRID_BEHAVIORS:
                lines.append(_audit_line(db, sim, strategy, src, behavior, seed=len(lines)))
    return lines


def _grid_family():
    """The seed-0 grid database with its top release authored, and its simulator."""
    family = grid.grid_docs(0)
    test = grid.echo_test(family.new_label)
    db = add_entry(load_database(family.db_bytes()), family.new_label,
                   challenge=test["challenge"]["payload"], expect=test["expect"]["payload"],
                   variables={"ax": VariableSpec("ax", **grid.AX)})
    return db, sim_family_from_doc(family.sim_doc)


def _audit_line(db, sim, strategy: str, src, behavior: str, seed: int) -> str:
    fakeable = tuple(sorted(n for n, fn in sim.functions.items() if not fn.hard))
    cfg = SimProviderConfig(
        src_version=src, behavior=behavior, claim_label="99.0.0-fake",
        latency=LatencyModel(0.001, 0.0), fake_functions=fakeable, seed=seed)
    log = run_audit(db, strategy, make_loopback(produce(sim, cfg)), RandomnessSource(seed=seed))
    report = build_report(log, db)
    digest = hashlib.sha256()
    for outcome in log.plan_outcomes():
        for record in outcome.exchanges:
            digest.update(len(record.challenge_bytes).to_bytes(4, "big"))
            digest.update(record.challenge_bytes)
    rows = " ".join(f"{r.testorder}:{_label(r.version)}:{'T' if r.delta else 'F'}:{r.origin}"
                    for r in log.rows)
    if report.candidate_set is None:
        cands, lower, upper = "inconsistent", "-", "-"
    else:
        cands = ",".join(report.candidate_set.labels())
        lower, upper = _label(report.bounds.lower), _label(report.bounds.upper)
    return (f"{strategy} {_label(src)} {behavior} | {rows} | {log.stop_reason}"
            f" | {cands} | {lower} {upper} | {digest.hexdigest()[:16]}")


def test_audit_matrix_matches_golden_file():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = audit_lines()
    for want, got in zip(expected, actual):
        audit = " ".join(want.split(" | ")[0].split())
        assert got == want, f"first differing audit: {audit}\n want: {want}\n  got: {got}"
    assert len(actual) == len(expected)


def _behavior(line: str) -> str:
    return line.split(" | ")[0].split()[2]


if __name__ == "__main__":
    old = GOLDEN.read_text(encoding="utf-8").splitlines() if GOLDEN.exists() else []
    new = audit_lines()
    GOLDEN.write_text("\n".join(new) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    total = Counter(map(_behavior, new))
    changed = Counter(_behavior(line) for i, line in enumerate(new)
                      if i >= len(old) or old[i] != line)
    for behavior in total:
        print(f"{behavior}: {changed[behavior]} of {total[behavior]} lines changed")
    if len(old) != len(new):
        print(f"{len(old)} lines before, {len(new)} now")
