"""fpaudit benchmark: closed-loop audits, one auditor in one process.

    python3 perfbench/run.py --workload fixture-loopback --seed 1 --seconds 20 --trace 0

Each audit starts when the previous one has finished.  ``--trace 0``
reports the end-to-end metrics with the program unmodified, its times
scaled to a nominal machine speed by a calibration op timed between audits
(calibrate.py); ``--trace 1`` runs the same audits untraced and traced,
taking turns, and reports the per-layer metrics (see README.md).  The last line of standard output is one
JSON object; the exit code is 1 when any audit failed its outcome check.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import HALF_WINDOW, Calibrator

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MIN_AUDITS = 100  # so that at least ten samples lie beyond the p90
LOOP_DEADLINE_S = 140.0  # from process start; keeps every run under 180 s
SLICE_S = 0.5  # audit time per turn of the untraced and traced loops
SETUP_SAMPLES = 4  # calibration samples after each timed set-up

END_TO_END_UNITS = {
    "audits_per_s": "1/s",
    "audit_ms_p50": "ms",
    "audit_ms_p90": "ms",
    "exchanges_per_audit": "count",
    "candidates_per_audit": "count",
    "ok_audit_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "fpaudit" / "__init__.py").is_file():
        raise SystemExit(f"fpaudit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fpaudit

    if Path(fpaudit.__file__).resolve().parent != (SRC / "fpaudit").resolve():
        raise SystemExit(f"imported fpaudit from {fpaudit.__file__}, not from {SRC}")


@dataclass
class LoopResult:
    starts: list[float] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    exchanges: list[int] = field(default_factory=list)  # first pass only
    candidates: list[int] = field(default_factory=list)  # first pass, truthful providers only

    @property
    def audits_per_s(self) -> float:
        return len(self.durations) / sum(self.durations)


def oracle_sample(workload, specs) -> set[int]:
    """Seeded choice of first-pass audits whose candidates the oracle replays."""
    eligible = [i for i, spec in enumerate(specs) if workload.truthful(spec)]
    rng = random.Random(workload.seed ^ 0x0AC1E)
    return set(rng.sample(eligible, min(workload.oracle_per_pass, len(eligible))))


class AuditLoop:
    """Closed loop over one workload's schedule; resumable, so a traced and
    an untraced loop can take turns on the same audits."""

    def __init__(self, workload, tracer=None, calibrator=None):
        self.workload = workload
        self.tracer = tracer
        self.calibrator = calibrator
        self.specs = workload.schedule()
        self.sampled = oracle_sample(workload, self.specs)
        self.res = LoopResult()
        self.busy = 0.0

    def run(self, seconds: float) -> None:
        """Audit until ``seconds`` of audit time are spent."""
        while self.busy < seconds and self.within_deadline():
            self.step()

    def run_passes(self, seconds: float, min_audits: int = 0) -> None:
        """Audit whole passes, at least one and ``min_audits`` audits, and
        stop at the pass boundary nearest to ``seconds`` of audit time, so
        every run times the same mix of audits.  A deadline stop before the
        first pass or ``min_audits`` audits are done fails the run: its
        metrics would come from another mix of audits."""
        size, res = len(self.specs), self.res
        while self.within_deadline():
            done = res.attempted
            if done >= max(min_audits, size) and done % size == 0 \
                    and self.busy * (1 + size / (2 * done)) >= seconds:
                return
            self.step()
        if res.attempted < max(min_audits, size):
            res.failures.append(f"loop deadline reached after {res.attempted} of at least "
                                f"{max(min_audits, size)} audits")

    def within_deadline(self) -> bool:
        if time.perf_counter() - START <= LOOP_DEADLINE_S:
            return True
        self.res.notes.append(f"loop deadline reached after {self.res.attempted} audits")
        return False

    def step(self) -> None:
        workload, tracer, res = self.workload, self.tracer, self.res
        i = res.attempted
        spec = self.specs[i % len(self.specs)]
        op = workload.prepare(spec, i)
        if tracer is not None:
            tracer.begin_audit(i)
        error = None
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.audit") if tracer is not None else nullcontext():
                out = op()
        except Exception as exc:  # an audit that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_audit(out.logs if error is None else None)
        res.attempted += 1
        res.starts.append(t0)
        res.durations.append(dt)
        self.busy += dt
        if error is None:
            with tracer.muted() if tracer is not None else nullcontext():
                workload.complete(out)
                error = workload.check(spec, out)
            if error is None and i in self.sampled:
                with tracer.solo("verdict.oracle_candidates") if tracer else nullcontext():
                    error = workload.oracle_check(spec, out)
        if error is not None:
            res.failures.append(f"audit {i} {spec.doc()}: {error}")
        elif i < len(self.specs):
            res.exchanges.append(out.exchanges)
            if workload.truthful(spec):
                res.candidates.append(out.candidates)
        if self.calibrator is not None:
            self.calibrator.tick()


def timed_setups(workload, repeats: int, calibrator=None) -> tuple[list[float], list[float]]:
    """Set up ``repeats`` times; the start and the wall time of each."""
    starts, times = [], []
    for k in range(repeats):
        if k:
            workload.close()
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
        starts.append(t0)
        for _ in range(SETUP_SAMPLES if calibrator is not None else 0):
            calibrator.sample()
    return starts, times


def end_to_end(workload, seconds: float) -> tuple[LoopResult, dict[str, tuple[float, str]]]:
    workload.validate()
    calibrator = Calibrator()
    for _ in range(2 * HALF_WINDOW):
        calibrator.sample()
    setup_starts, setups = timed_setups(workload, workload.setup_repeats, calibrator)
    try:
        loop = AuditLoop(workload, calibrator=calibrator)
        loop.run_passes(seconds, MIN_AUDITS)
        res = loop.res
    finally:
        workload.close()
    d = [dt * calibrator.scale(t) for t, dt in zip(res.starts, res.durations)]
    res.notes.append(f"unscaled: {res.audits_per_s:.6g} audits/s, "
                     f"p50 {statistics.median(res.durations) * 1e3:.6g} ms, "
                     f"setup {statistics.median(setups):.6g} s; audit times scaled by "
                     f"{sum(d) / sum(res.durations):.4g} on average")
    setups = [dt * calibrator.scale(t) for t, dt in zip(setup_starts, setups)]
    values = {
        "audits_per_s": len(d) / sum(d),
        "audit_ms_p50": statistics.median(d) * 1e3,
        "audit_ms_p90": statistics.quantiles(d, n=10)[8] * 1e3,
        "exchanges_per_audit": statistics.fmean(res.exchanges) if res.exchanges else 0.0,
        "candidates_per_audit": statistics.fmean(res.candidates) if res.candidates else 0.0,
        "ok_audit_ratio": 1.0 - len(res.failures) / res.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return res, {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def traced(workload, seconds: float) -> tuple[LoopResult, dict[str, tuple[float, str]]]:
    """The same audits untraced and traced, taking turns in short slices so
    that machine drift hits both alike: per-layer metrics and overhead."""
    from tracer import Tracer, instrument

    workload.validate()
    tracer = Tracer()
    instrument(tracer)
    try:
        timed_setups(workload, 1)
    finally:
        tracer.restore()
    plain, with_trace = AuditLoop(workload), AuditLoop(workload, tracer)
    half, turn = seconds / 2, 0

    def take_turns(run_plain, run_traced) -> None:
        run_plain()
        instrument(tracer)
        try:
            run_traced()
        finally:
            tracer.restore()

    try:
        while min(plain.busy, with_trace.busy) < half - SLICE_S \
                and not (plain.res.notes or with_trace.res.notes):
            turn += 1
            take_turns(lambda: plain.run(turn * SLICE_S), lambda: with_trace.run(turn * SLICE_S))
        take_turns(lambda: plain.run_passes(half), lambda: with_trace.run_passes(half))
    finally:
        workload.close()
    a, b = plain.res, with_trace.res
    res = LoopResult(durations=b.durations, attempted=a.attempted + b.attempted,
                     failures=a.failures + b.failures, notes=a.notes + b.notes)
    if (a.exchanges, a.candidates) != (b.exchanges, b.candidates):
        res.failures.append("traced and untraced passes differ in exchanges or candidates")
    metrics = tracer.layer_metrics()
    metrics["bench.trace_overhead_ratio"] = (b.audits_per_s / a.audits_per_s, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}.tsv.gz")
    return res, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    run = traced if args.trace else end_to_end
    res, metrics = run(workload, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    for note in res.notes:
        print(f"NOTE {note}", file=sys.stderr)
    for failure in res.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not res.failures,
        "attempted": res.attempted,
        "failed": len(res.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not res.failures else 1


if __name__ == "__main__":
    sys.exit(main())
