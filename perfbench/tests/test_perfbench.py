"""Self-tests of the benchmark: inputs, metric names, outcome checks, tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import calibrate
import grid
import run
from tracer import Tracer, instrument
from workloads import WORKLOADS, FixtureLoopback, GridLoopback, Spec

from fpaudit import challenge, strategies, transport, verdict
from fpaudit.database import load_database
from fpaudit.outsourced import verify_liability
from fpaudit.simulator import HonestResponder, sim_family_from_doc
from fpaudit.versions import parse_version

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SMALL = grid.GridShape(majors=2, minors=4, patches=5, backports=3, deprecations=2, dropped=3)


def specs_bytes(workload) -> bytes:
    return json.dumps([spec.doc() for spec in workload.schedule()]).encode()


def test_generator_is_byte_identical_per_seed():
    a, b, c = grid.grid_docs(7), grid.grid_docs(7), grid.grid_docs(8)
    assert (a.db_bytes(), a.sim_bytes()) == (b.db_bytes(), b.sim_bytes())
    assert a.db_bytes() != c.db_bytes() and a.sim_bytes() != c.sim_bytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_schedules_are_byte_identical_per_seed(name):
    cls = WORKLOADS[name]
    assert specs_bytes(cls(3)) == specs_bytes(cls(3))
    assert specs_bytes(cls(3)) != specs_bytes(cls(4))


@pytest.mark.parametrize("seed", range(6))
def test_grid_families_load_and_agree_with_the_simulator(seed):
    family = grid.grid_docs(seed, SMALL)
    grid.check_family(family)
    db = load_database(family.db_bytes())
    sim = sim_family_from_doc(family.sim_doc)
    assert len(sim.family) == len(db.family) + 1
    assert family.new_label not in {str(v) for v in db.family}
    # Where the database says a function is available, an honest provider
    # answers its challenge, and nowhere else.
    for v, entry in db.entries.items():
        if not entry.has_payload:
            continue
        rendered = challenge.render_test(db, v, challenge.RandomnessSource(seed))
        passing = {src for src in db.family
                   if HonestResponder(sim, src).evaluate(rendered.challenge_payload)
                   == rendered.expected_payload}
        assert passing == set(db.availability[v]), v


def test_metric_names_and_units():
    names = dict(run.END_TO_END_UNITS)
    for name, (_, unit) in Tracer().layer_metrics().items():
        names[name] = unit
    names["bench.trace_overhead_ratio"] = "ratio"
    for name, unit in names.items():
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), (name, unit)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert declared == names


@pytest.fixture(scope="module")
def loopback():
    workload = FixtureLoopback(5)
    workload.setup()
    return workload


def audit(workload, spec, audit_no=0):
    out = workload.prepare(spec, audit_no)()
    workload.complete(out)
    return out


def test_outcome_check_accepts_a_right_verdict(loopback):
    spec = Spec("CBS", parse_version("7.1.13"), "honest", 11)
    out = audit(loopback, spec)
    assert loopback.check(spec, out) is None
    assert loopback.oracle_check(spec, out) is None


def test_outcome_check_rejects_a_log_of_another_source(loopback):
    out = audit(loopback, Spec("CBS", parse_version("7.1.13"), "honest", 11))
    claimed = Spec("CBS", parse_version("7.2.14"), "honest", 11)
    assert "not among the candidates" in loopback.check(claimed, out)


def test_oracle_check_rejects_a_wrong_candidate_set(loopback):
    spec = Spec("BS", parse_version("7.0.15"), "honest", 12)
    out = audit(loopback, spec)
    wrong = verdict.CandidateSet(tuple(loopback.db.family.versions))
    out.report = verdict.VerdictReport("BS", None, wrong, None, None, None, None)
    assert "differ from the oracle" in loopback.oracle_check(spec, out)


def test_adversary_checks_reject_honest_answers(loopback):
    # Against the newest release every exchanged sub-test passes in time.
    top = loopback.db.family.versions[-1]
    honest = audit(loopback, Spec("HTL", top, "honest", 13))
    for behavior in ("proxy", "cacher"):
        assert loopback.check(Spec("HTL", top, behavior, 13), honest)


def test_adversaries_are_caught(loopback):
    for behavior in ("proxy", "cacher", "claim-faker", "function-faker"):
        spec = Spec("HMSU", parse_version("7.1.20"), behavior, 14, claim="20.9.85-car")
        assert loopback.check(spec, audit(loopback, spec)) is None, behavior


def test_outsourced_check_blames_a_tampered_log():
    workload = WORKLOADS["fixture-outsourced"](2)
    workload.setup()
    spec = Spec("CBS", parse_version("7.2.9"), "honest", 21)
    out = workload.prepare(spec, 0)()
    workload.complete(out)
    assert workload.check(spec, out) is None
    entry = out.logs["auditor"][0]
    entry["delta"] = not entry["delta"]
    out.verdicts = verify_liability(out.logs, workload.keys, workload.db)
    assert "blamed" in workload.check(spec, out)


def test_traced_and_untraced_runs_agree():
    # run.traced fails the run when the two passes differ in exchanges or
    # candidates per audit.
    res, metrics = run.traced(FixtureLoopback(9), 0.2)
    assert not res.failures, res.failures[:3]
    assert metrics["transport.exchanges"][0] > 0
    assert metrics["strategies.self_ms_per_audit"][0] > 0
    assert not hasattr(strategies.run_audit, "__wrapped__")


def test_grid_audits_keep_the_budget_defect_visible():
    workload = GridLoopback(1)
    workload.setup()
    tracer = Tracer()
    spec = Spec("LTH", workload.sim.family.versions[-1], "honest", 3)
    instrument(tracer)
    try:
        tracer.begin_audit(0)
        out = workload.prepare(spec, 0)()
        tracer.end_audit()
    finally:
        tracer.restore()
    workload.complete(out)
    assert workload.check(spec, out) is None
    assert tracer.counts["strategies.budget_stops"] == 1
    assert out.candidates > 100
    assert not hasattr(transport.exchange, "__wrapped__")


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fixture-loopback",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_deadline_stop_before_the_first_pass_fails_the_run(monkeypatch, loopback):
    monkeypatch.setattr(run, "LOOP_DEADLINE_S", 0.0)
    loop = run.AuditLoop(loopback)
    loop.run_passes(1.0, run.MIN_AUDITS)
    assert loop.res.failures and "deadline" in loop.res.failures[0]


def test_calibration_scales_by_the_nearest_samples():
    cal = calibrate.Calibrator()
    n = 4 * calibrate.HALF_WINDOW
    cal.times = [float(i) for i in range(n)]
    # The machine runs at nominal speed for the first half, then half as fast.
    cal.durations = [calibrate.NOMINAL_S] * (n // 2) + [2 * calibrate.NOMINAL_S] * (n // 2)
    assert cal.scale(0.0) == 1.0
    assert cal.scale(n - 1.0) == 0.5
    assert cal.scale(n + 100.0) == 0.5


def test_end_to_end_times_are_scaled_wall_times():
    res, metrics = run.end_to_end(FixtureLoopback(4), 0.2)
    assert not res.failures, res.failures[:3]
    assert any(note.startswith("unscaled:") for note in res.notes)
    assert metrics["audits_per_s"][0] > 0 and metrics["setup_s"][0] > 0
