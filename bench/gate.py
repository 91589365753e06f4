"""Acceptance-gate headroom, for information only.

    python3 bench/gate.py

Runs tests/test_acceptance.py once with -s, reads each criterion's
summary line for its elapsed time, reads each test's time budget (its
``assert elapsed < N`` line) from the test source, and reports the
headroom.  It is neither gated nor an end-to-end metric, and it changes
nothing under tests/.  Writes .bench_work/gate.json.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests" / "test_acceptance.py"

SUMMARY = re.compile(r"^criterion (\d+) (.*?): (PASS|FAIL)\b.*?([\d.]+)s\)\s*$")
TEST = re.compile(r"^def test_criterion_(\d+)_")
BUDGET = re.compile(r"assert elapsed < ([\d.]+)")


def budgets(source: str) -> dict[str, float]:
    out: dict[str, float] = {}
    current = None
    for line in source.splitlines():
        m = TEST.match(line)
        if m:
            current = m.group(1)
            continue
        m = BUDGET.search(line)
        if m and current is not None and current not in out:
            out[current] = float(m.group(1))
    return out


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-m", "pytest", str(TESTS), "-s", "-q", "-p", "no:cacheprovider"]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=3600)
    limits = budgets(TESTS.read_text())
    rows = []
    for line in done.stdout.splitlines():
        m = SUMMARY.match(line.strip().lstrip("."))
        if m:
            number, title, verdict, elapsed = m.groups()
            budget = limits.get(number)
            rows.append({"criterion": number, "title": title, "verdict": verdict,
                         "elapsed_s": float(elapsed), "budget_s": budget,
                         "headroom_s": None if budget is None else budget - float(elapsed)})
    for row in rows:
        print(f"criterion {row['criterion']} {row['verdict']} {row['elapsed_s']:7.1f}s"
              f" of {row['budget_s']}s budget  ({row['title']})")
    print(f"pytest exit code {done.returncode}")
    out = ROOT / ".bench_work" / "gate.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"pytest_exit": done.returncode, "criteria": rows}, indent=1))
    return 0 if rows else 1


if __name__ == "__main__":
    sys.exit(main())
