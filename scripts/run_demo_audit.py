#!/usr/bin/env python3
"""Contrast demo: a provider faking its version label vs the behavioral audit.

The simulated provider runs the 7.1.1 build but answers every version query
with "20.9.85-car".  The label probe believes it; the challenge audit does
not.
"""

from pathlib import Path

from fpaudit.challenge import RandomnessSource
from fpaudit.database import load_database
from fpaudit.simulator import load_sim_config, produce
from fpaudit.strategies import run_audit
from fpaudit.transport import make_loopback, probe_version_claim
from fpaudit.verdict import build_report
from fpaudit.versions import parse_version

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    db = load_database((ROOT / "fixtures" / "php_like_db.json").read_bytes())
    sim, cfg = load_sim_config((ROOT / "fixtures" / "php_like_sim_faker.json").read_bytes())
    endpoints = make_loopback(produce(sim, cfg))

    claim = probe_version_claim(endpoints)
    print(f"provider claims      : {claim}")

    for strategy in ("CBS", "HMSU"):
        log = run_audit(db, strategy, endpoints, RandomnessSource(seed=7))
        report = build_report(db=db, log=log, target=parse_version("7.3.0"),
                              claimed_version=claim)
        print(f"{strategy}: determined {report.candidate_set.labels()} "
              f"in {log.exchange_count()} exchanges; "
              f"target 7.3.0 compliant: {report.compliant}")


if __name__ == "__main__":
    main()
