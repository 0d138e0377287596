"""Benchmark of the qconcepts command line: one workload per run.

    python3 perfbench/run.py --workload table-100k --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. A worker process (worker.py) calls the verb
in-process through ``cli.main`` in a closed loop, one call after another,
and checks every output. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from a run that alternates traced and
untraced calls. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md beside
this file for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# the names in workloads.WORKLOADS, listed here so this process never imports numpy
WORKLOADS = ("table-100k", "field-512-csv", "field-2048-pgm", "exemplars-3000")
TIME_LIMIT = 170            # seconds a whole run may take
SETUP_SAMPLES = 4         # before the calls, and as many again after them
SETUP_CODE = ("import time; t = time.perf_counter(); import qconcepts.cli as c; "
              "c.build_parser(); print(time.perf_counter() - t)")


def child_env() -> dict:
    """Environment for child interpreters: this checkout's src/, BLAS capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def setup_samples(env: dict, count: int, warm: bool = False) -> list:
    """Times to import qconcepts.cli and build its parser, each in a fresh interpreter.

    With ``warm``, one unmeasured start comes first, so a stale bytecode
    cache is rebuilt outside the samples, as it would be after the first
    command a user runs.
    """
    samples = []
    for i in range(count + warm):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i >= warm:
            samples.append(float(done.stdout))
    return samples


def tail(walls):
    """The highest nearest-rank percentile with at least ten samples above it.

    With fewer than 22 samples no percentile above the median has ten
    beyond it, so the upper median stands in. Returns (value, percentile).
    """
    ordered = sorted(walls)
    n = len(ordered)
    i = max(n - 11, n // 2)
    return ordered[i], 100.0 * (i + 1) / n


def run_worker(args, env, work: Path, budget: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker exceeded {budget:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "qconcepts" / "cli.py").is_file():
        print(f"no qconcepts sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = child_env()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # half the set-up samples before the calls and half after, so that
        # they span the run rather than one moment of the host's load
        setup = [] if args.trace else setup_samples(env, SETUP_SAMPLES, warm=True)
        result = run_worker(args, env, work, TIME_LIMIT - 10 - (time.monotonic() - started))
        if not args.trace:
            setup += setup_samples(env, SETUP_SAMPLES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass                # another run still uses it

    attempted, failed = result["attempted"], result["failed"]
    walls = result["walls"]
    if args.trace:
        metrics = result["metrics"]
        wall = metrics["trace.wall_s"]["value"]
        print(f"traced calls: self times sum to {result['self_total_s']:.4f} s per call,"
              f" {100.0 * result['self_total_s'] / wall:.1f}% of the traced wall_s")
    else:
        tail_value, pct = tail(walls)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "wall_s_tail": {"value": tail_value, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "success_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        print(f"{len(walls)} calls, {failed} failed; error_rate {failed / attempted:.6g};"
              f" wall_s_tail is the p{pct:.0f} of {len(walls)} samples;"
              f" calls cycle through {result['inputs']} input(s)")
        print("call walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    for name, m in metrics.items():
        print(f"{name:46s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
