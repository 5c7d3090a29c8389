"""Run every workload over several seeds and summarize the spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/results/baseline.json

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed for its
``run_seconds``, as the benchmark command does (untraced), then one traced
run per workload on the first seed.  Prints, per workload and end-to-end
metric, the median of the runs and the spread: the distance between the
first and third quartile (``statistics.quantiles`` with n=4) as a share of
the median, next to the metric's bound from ``BENCHMARK.json``.  With
``--out`` it writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{model}, {os.cpu_count()} CPUs, {platform.system()}"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["wall_s"] = round(wall, 2)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", help="write all results here as JSON")
    args = parser.parse_args(argv)

    seeds, seconds = seed_list(args.seeds), bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {
        "command": f"python3 perfbench/baseline.py --seeds {args.seeds}",
        "run_seconds": seconds,
        "python": platform.python_version(),
        "machine": machine(),
        "workloads": {},
    }
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {"runs": runs, "summary": {}}
        print(f"\n{workload}: {len(runs)} runs, seeds {args.seeds}, "
              f"{statistics.median(r['wall_s'] for r in runs):.1f} s wall per run")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            if len(values) >= 2:
                median, q1, q3, share = spread(values)
            else:
                median = q1 = q3 = values[0]
                share = 0.0
            entry["summary"][name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                                      "spread": share, "bound": bound}
            flag = "" if share < bound / 3 else "  <-- above bound/3"
            worst = max(worst, share / bound)
            print(f"  {name:22s} {median:12.5g} {q1:12.5g} {q3:12.5g} {share:8.3%} {bound:6.2f}"
                  f" {unit}{flag}")
        traced = run_once(workload, seeds[0], seconds, 1)
        entry["traced"] = traced
        print(f"  traced run (seed {seeds[0]}): "
              f"trace overhead ratio {traced['metrics']['bench.trace_overhead_ratio']['value']:.3f}")
        doc["workloads"][workload] = entry
    print(f"\nlargest spread as a share of its bound: {worst:.2f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
