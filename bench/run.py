"""polyreach benchmark: seeded CLI workloads timed end to end.

Run from the repository root:

    python3 bench/run.py --workload maze --seed 1 --seconds 25 --trace 0

One process runs one workload.  It runs one untimed warm-up pass on
inputs from a different seed, then timed passes, each on fresh inputs,
as many as fit in --seconds of timed work and at least MIN_PASSES, and
after each pass measures set-up (fresh interpreters importing
polyreach.cli).  Every job calls
polyreach.cli.main(argv) in-process (point queries call
geometry.evaluate_polyhedral), one at a time: a closed loop with one
client.  With --trace 1 each pass runs twice on the same inputs, untraced
and then traced, and the per-layer figures come from the traced copy.
Every verdict is checked against the oracles in oracle.py after its
pass's timed region.  Times are scaled to a reference speed by
calibrations taken between jobs (see Calibration).
The last stdout line is the JSON result; bench/README.md has the rest.
"""

from __future__ import annotations

import os

# cell_of and matrix_rank call LAPACK; one thread keeps the closed loop
# single-threaded.  Must be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 2
SETUP_RUNS_PER_PASS = 6
CALIBRATION_EVERY_S = 0.5
CALIBRATION_REPEATS = 5
CALIBRATION_REF_S = 0.008


def parse_args(argv=None):
    from jobs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():  # never report an enclosing repository's commit
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if done.returncode == 0:
                commit = done.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((SRC / "polyreach").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(count: int) -> list[float]:
    """Wall times of fresh interpreters importing polyreach.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import polyreach.cli"]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        # No timeout: Popen.wait with a timeout polls in sleeps of up to
        # 50 ms, which would quantize the measurement.
        subprocess.run(command, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


class Calibration:
    """Scales times to a reference speed.

    The speed of a shared machine drifts, by up to 1.6x over minutes, and
    the drift moves every time the benchmark takes.  calibrate.py times a
    fixed piece of work in a process of its own, on the processor this
    process is pinned to.  A time t between two calibrations that took c0
    and c1 is reported as t * CALIBRATION_REF_S / ((c0 + c1) / 2).
    """

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def take(self) -> float:
        self.process.stdin.write(f"{CALIBRATION_REPEATS}\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()


class Runner:
    def __init__(self, calibration: Calibration) -> None:
        from polyreach import cli

        self.cli = cli
        self.calibration = calibration
        self.attempted = 0
        self.failures: list[str] = []
        self.job_seconds: list[float] = []
        self.kind_seconds: dict[str, list[float]] = {}
        self.verify_s = 0.0

    def run_pass(self, jobs, tracer=None) -> tuple[float, float]:
        """Runs the jobs one at a time and returns the pass time (the sum
        of the job times), unscaled and scaled by calibrations taken
        between jobs, one per CALIBRATION_EVERY_S of job time.  The results
        are checked after the timed region and only the failures kept, so
        that what this process holds does not grow with the number of
        passes."""
        results = []
        pass_s = scaled_s = since = 0.0
        last = self.calibration.take()
        for job in jobs:
            if tracer is not None:
                tracer.job = self.attempted + len(results)
            code, out, seconds = self.run_job(job)
            pass_s += seconds
            since += seconds
            if since >= CALIBRATION_EVERY_S or job is jobs[-1]:
                now = self.calibration.take()
                scaled_s += since * 2 * CALIBRATION_REF_S / (last + now)
                last, since = now, 0.0
            if tracer is not None:
                tracer.counts["cli.stdout_bytes"] += len(out.encode()) if job.argv else 0
            else:
                self.job_seconds.append(seconds)
                self.kind_seconds.setdefault(job.kind, []).append(seconds)
            results.append((job, code, out))
        start = time.perf_counter()
        self.attempted += len(results)
        self.failures += verify(results)
        self.verify_s += time.perf_counter() - start
        return pass_s, scaled_s

    def run_job(self, job):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                if job.argv is not None:
                    code = self.cli.main(job.argv)
                    out = buf.getvalue()
                else:
                    code, out = job.call()
            except SystemExit as exc:
                code, out = exc.code, buf.getvalue()
            except Exception:  # a crash is a failed job; keep the loop running
                code, out = "crash", traceback.format_exc()
            seconds = time.perf_counter() - start
        return code, out, seconds


def check_results(results) -> list[str]:
    failures = []
    for job, code, out in results:
        try:
            reason = job.check(code, out) if code != "crash" else out
        except Exception:  # an unparsable report is a failed job
            reason = traceback.format_exc()
        if reason is not None:
            failures.append(f"{job.kind} {job.argv or ''}: {reason}")
    return failures


def verify(results) -> list[str]:
    """The failures among a pass's results.  The oracles run in a forked
    child, so that their memory never counts in this process's peak RSS."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            with os.fdopen(write, "w") as pipe:
                json.dump(check_results(results), pipe)
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        text = pipe.read()
    os.waitpid(pid, 0)
    return json.loads(text) if text else ["the oracle process ended without a verdict"]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    if not (SRC / "polyreach" / "cli.py").is_file():
        print(f"error: {SRC / 'polyreach'} not found; run from a polyreach checkout",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    from jobs import WORKLOADS, Fresh
    from tracing import Tracer

    env = environment(args)
    # One processor for this process and every process it starts, so that
    # the calibrations and the set-up samples run where the jobs run.
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    measure_setup(1)  # writes the bytecode caches
    setup_times, scaled_setup = [], []
    build = WORKLOADS[args.workload]
    fresh = Fresh()
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    calibration = Calibration()
    try:
        warm_dir = run_dir / "warmup"
        warm_dir.mkdir(parents=True)
        warm_rng = random.Random(f"{args.workload}:{args.seed}:warmup")
        Runner(calibration).run_pass(build(warm_rng, warm_dir, fresh, True))
        runner = Runner(calibration)

        tracer = Tracer() if args.trace else None
        walls, traced_walls, scaled, traced_scaled = [], [], [], []
        while True:
            k = len(walls)
            pass_dir = run_dir / f"pass{k}"
            pass_dir.mkdir()
            jobs = build(random.Random(f"{args.workload}:{args.seed}:{k}"), pass_dir, fresh, False)
            wall, wall_scaled = runner.run_pass(jobs)
            walls.append(wall)
            scaled.append(wall_scaled)
            if tracer is None:
                # Set-up samples spread over the run, so that a slow spell
                # does not decide the median, each between two calibrations.
                for _ in range(SETUP_RUNS_PER_PASS):
                    before = calibration.take()
                    (sample,) = measure_setup(1)
                    after = calibration.take()
                    setup_times.append(sample)
                    scaled_setup.append(sample * 2 * CALIBRATION_REF_S / (before + after))
            else:
                tracer.install()
                try:
                    wall, wall_scaled = runner.run_pass(jobs, tracer)
                finally:
                    tracer.uninstall()
                traced_walls.append(wall)
                traced_scaled.append(wall_scaled)
            del jobs
            # Stop when another pass (or traced pair) would take the timed
            # seconds past --seconds.
            timed = sum(walls) + sum(traced_walls)
            if timed * (len(walls) + 1) / len(walls) > args.seconds and (
                    tracer is not None or len(walls) >= MIN_PASSES):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        calibration.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failures = runner.attempted, runner.failures
    job_ms = sorted(1000.0 * s for s in runner.job_seconds)
    detail = {
        "env": env,
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_scaled_s": scaled,
        "traced_pass_wall_s": traced_walls,
        "setup_s_samples": setup_times,
        "verify_s": runner.verify_s,
        "jobs_timed": len(job_ms),
        "job_ms_p50": statistics.median(job_ms),
        "job_ms_p90": percentile(job_ms, 90) if len(job_ms) >= 2 else job_ms[-1],
        "job_kinds": {
            kind: {"jobs": len(times), "median_ms": 1000.0 * statistics.median(times),
                   "total_s": sum(times)}
            for kind, times in sorted(runner.kind_seconds.items())
        },
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
    }
    if tracer is not None:
        metrics = tracer.metrics(len(traced_walls))
        metrics["trace.overhead_s"] = statistics.median(traced_scaled) - statistics.median(scaled)
        detail["trace_spans"] = len(tracer.spans)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"env": env, "metrics": metrics, **tracer.dump()}))
    else:
        metrics = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(scaled_setup),
            "peak_rss_mb": peak_rss_mb,
        }
    detail["metrics"] = metrics
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"env {json.dumps(env)}")
    print(f"passes {len(walls)} unscaled pass_s {' '.join(f'{w:.3f}' for w in walls)}"
          f" jobs {len(job_ms)} job_ms_p50 {detail['job_ms_p50']:.2f}"
          f" job_ms_p90 {detail['job_ms_p90']:.2f} fail_ratio {detail['fail_ratio']}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
