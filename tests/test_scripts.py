"""The example scripts under ``scripts/`` run against the fixtures and print
the expected candidates."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("name, marker, candidates, count", [
    ("run_strategy_traces.py", "candidates: ", "['7.2.14']", 5),
    ("run_demo_audit.py", ": determined ", "['7.1.1']", 2),
], ids=["strategy-traces", "demo-audit"])
def test_script_prints_the_expected_candidates(name, marker, candidates, count):
    lines = [line for line in run_script(name) if marker in line]
    assert len(lines) == count
    for line in lines:
        assert line.split(marker, 1)[1].startswith(candidates + " "), line
