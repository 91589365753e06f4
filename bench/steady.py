"""Steadiness self-check: do two sets of runs of the same code agree?

    python3 bench/steady.py

For every workload in BENCHMARK.json, runs bench/run.py once per seed
1..10, and then the same ten runs again as a second set.  For every
end-to-end metric it reports each set's median and quartile spread (the
distance between the first and third quartile as a share of the median,
from statistics.quantiles(n=4)), and calls the metric steady when both
spreads are within the metric's bound from BENCHMARK.json and the second
set's median differs from the first's by no more than the bound, in
either direction.  Writes .bench_work/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def one_run(spec, workload, seed):
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed jobs")
    return {name: m["value"] for name, m in result["metrics"].items()}, seconds


def one_set(spec, workload, number):
    runs = []
    for seed in SEEDS:
        metrics, seconds = one_run(spec, workload, seed)
        runs.append(metrics)
        print(f"{workload} set {number} seed {seed}: "
              + " ".join(f"{k}={v:.4g}" for k, v in metrics.items())
              + f" (run took {seconds:.1f} s)", flush=True)
    return runs


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median, median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = one_set(spec, workload, 1), one_set(spec, workload, 2)
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            spread1, median1 = spread([run[name] for run in first])
            spread2, median2 = spread([run[name] for run in second])
            shift = (median2 - median1) / median1
            steady = spread1 <= bound and spread2 <= bound and abs(shift) <= bound
            ok = ok and steady
            rows[name] = {"medians": [median1, median2], "spreads": [spread1, spread2],
                          "shift": shift, "bound": bound, "steady": steady}
            print(f"{workload:10s} {name:12s} medians {median1:.4g} {median2:.4g}"
                  f" spreads {spread1:.3f} {spread2:.3f} shift {shift:+.3f} bound {bound}"
                  f" {'ok' if steady else 'NOT STEADY'}", flush=True)
        report[workload] = rows
    out = ROOT / ".bench_work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print("steady" if ok else "not steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
