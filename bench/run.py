"""The nansde benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload compare_rough --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a child process of
its own (``worker.py``), on one thread, against the ``src/`` of this
checkout.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics instead.  Both carry ``correct`` (the outputs passed every
check), ``attempted`` and ``failed`` (``nansde`` commands run and failed).
Details of a failed check go to standard error.

``setup_s`` is the median set-up time of ``SETUP_SAMPLES`` processes: the
workload process and ``SETUP_SAMPLES - 1`` processes that only set up.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # the whole run, set-up processes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
UNITS = {"setup_s": "s", "run_s": "s", "path_steps_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def run_worker(args, work: pathlib.Path, deadline: float, setup_only: bool) -> dict:
    """Start worker.py, wait for it, and return the JSON of its last line."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    if args.spans:
        cmd += ["--spans", str(pathlib.Path(args.spans).resolve())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left to start the workload process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded {TIME_LIMIT_S:g} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, run_dir / f"setup{i}", deadline, True)["setup_s"])
        result = run_worker(args, run_dir / "main", deadline, False)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    summary = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    if args.trace:
        from layers import METRICS

        for name, reason in sorted(result["missing"].items()):
            print(f"layer {name} missing: {reason}", file=sys.stderr)
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _, _ in METRICS}
        overhead = (statistics.median(result["traced_round_s"])
                    - statistics.median(result["round_s"]))
        metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        run_s = statistics.median(result["round_s"])
        values = {
            "setup_s": statistics.median(setups + [result["setup_s"]]),
            "run_s": run_s,
            "path_steps_per_s": result["steps"] / run_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    summary["metrics"] = metrics
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measured time of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1: write the spans of the last "
                                        "traced round to this JSON file")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "nansde" / "__init__.py").is_file():
        print(f"no nansde package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
