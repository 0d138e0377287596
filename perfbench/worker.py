"""Closed-loop worker: calls ``cli.main`` in-process, one call at a time.

Run by ``run.py`` as its own process, one per workload run, so that its
peak resident memory is the workload's. Prints one JSON line: the wall time
of every call, the failures, the peak RSS and, with ``--trace 1``, the
per-layer metrics.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_CALLS = 2


def import_cli():
    """Import qconcepts.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from qconcepts import cli
    if Path(cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"qconcepts imported from {cli.__file__}, not {src}")
    return cli


def call_once(cli, case, check, stdout_path: Path, tracer=None):
    """One verb call; returns (wall seconds, failure message or None).

    Stdout goes to a file, as it would from a shell, so the capture holds no
    second copy of a large payload in memory while the call runs.
    """
    if case.out_dir is not None:
        shutil.rmtree(case.out_dir, ignore_errors=True)
    gc.collect()
    err = io.StringIO()
    failure = None
    with open(stdout_path, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(case.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:       # a traceback is a failed call, not a dead run
            code, failure = None, "traceback: " + traceback.format_exc(limit=-3)
        out.flush()
        wall = time.perf_counter() - start
    if failure is None and code != 0:
        failure = f"exit {code}: {err.getvalue().strip()[:500]}"
    if failure is None:
        try:
            check(case, stdout_path.read_text(encoding="utf-8"))
        except workloads.CheckError as exc:
            failure = f"check: {exc}"
    if tracer is not None:
        tracer.count("cli.stdout_bytes", stdout_path.stat().st_size)
    return wall, failure


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    cli = import_cli()
    prepare, check = workloads.WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=True)
    cases = prepare(seed, work)
    stdout_path = work / "stdout.txt"
    tracer = tracing.Tracer() if trace else None
    walls, traced_walls, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    # Traced and untraced calls alternate, so drift in the host's speed over
    # the run does not skew trace.overhead_s.
    while True:
        begin = time.perf_counter()
        traced = trace and len(walls) > len(traced_walls)
        # the k-th traced call runs the input of the k-th untraced one
        case = cases[(len(traced_walls) if traced else len(walls)) % len(cases)]
        if traced:
            with tracer.installed():
                wall, failure = call_once(cli, case, check, stdout_path, tracer)
            traced_walls.append(wall)
        else:
            wall, failure = call_once(cli, case, check, stdout_path)
            walls.append(wall)
        if failure is not None:
            failed += 1
            print(f"{workload}: call {len(walls) + len(traced_walls)} failed: {failure}",
                  file=sys.stderr)
        now = time.perf_counter()
        enough = len(walls) >= MIN_CALLS and (not trace or len(traced_walls) >= MIN_CALLS)
        if enough and now + (now - begin) > deadline:
            break
    result = {
        "walls": walls,
        "inputs": len(cases),
        "attempted": len(walls) + len(traced_walls),
        "failed": failed,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        n = len(traced_walls)
        traced_mean = statistics.fmean(traced_walls)
        metrics = tracer.metrics(n)
        metrics["trace.wall_s"] = {"value": traced_mean, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_mean - statistics.fmean(walls),
                                       "unit": "s"}
        result["metrics"] = metrics
        result["self_total_s"] = tracer.self_total() / n
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.work_dir)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
