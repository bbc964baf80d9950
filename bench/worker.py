"""One workload process of the benchmark: set-up, timed rounds, checks.

Started by ``run.py``; the program is imported from ``src/`` of the
checkout this file lies in, and from nowhere else.
Prints one JSON object as its last line of standard output:

* ``--setup-only``: ``{"setup_s": ...}`` and nothing else is run;
* otherwise the round times, the step count of a round, the peak resident
  memory, the operation counts, the problems the checks found and, in a
  traced run, the per-layer metrics of the traced rounds.

A round runs every command of the workload once.  Rounds repeat until
``--seconds`` have passed.  In a traced run untraced and traced rounds
alternate, so the tracing overhead is measured in the same process.  The
outputs of the first round are checked against the reference; every later
round must reproduce them byte for byte.
"""

import os
import time

# One CPU for the whole process: on a shared host the CPUs can run at
# different speeds, and a process that migrates between them reads times
# that jump between two levels.  The last CPU is the one least likely to
# also serve interrupts.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

SETUP_START = time.perf_counter()  # before numpy and the program are imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import nansde  # noqa: E402
from nansde import cli  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_round(workload) -> tuple[float, int, int]:
    """Wall time of the round's commands, commands run, commands failed."""
    workload.clear_outputs()
    gc.collect()
    elapsed, failed = 0.0, 0
    commands = workload.commands()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is one failed operation, not the end of the run
                traceback.print_exc()
                code = -1
            elapsed += time.perf_counter() - start
            if code != 0:
                print(f"nansde {' '.join(argv)} exited with {code}", file=sys.stderr)
                failed += 1
    return elapsed, len(commands), failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for inputs and outputs")
    parser.add_argument("--spans", help="write the last traced round's spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if pathlib.Path(nansde.__file__).resolve().parent != (SRC / "nansde").resolve():
        print(f"nansde imported from {nansde.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = pathlib.Path(args.work)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    workload.setup()
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    round_s, traced_s, layer_rounds = [], [], []
    attempted = failed = 0
    problems = []
    first = None
    tracer = None
    started = time.perf_counter()
    while True:
        if args.trace == 1 and len(round_s) > len(traced_s):
            tracer = layers.Tracer()
            with tracer:
                elapsed, ran, bad = run_round(workload)
            traced_s.append(elapsed)
            layer_rounds.append(tracer.metrics())
        else:
            elapsed, ran, bad = run_round(workload)
            round_s.append(elapsed)
        attempted += ran
        failed += bad
        outputs = workload.snapshot()
        if first is None:
            first = outputs
        elif outputs != first:
            changed = sorted(k for k in set(first) | set(outputs) if first.get(k) != outputs.get(k))
            problems.append(f"round outputs differ from the first round's: {changed}")
        done = time.perf_counter() - started >= args.seconds
        if done and (args.trace == 0 or traced_s):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The outputs on disk are the last round's, identical to the first's.
    steps = 0
    try:
        steps = workload.path_steps()
        problems += workload.check()
    except Exception as exc:  # malformed or missing outputs fail the check
        traceback.print_exc()
        problems.append(f"outputs could not be checked: {exc!r}")
    problems += reference.self_check()
    result = {
        "setup_s": setup_s,
        "round_s": round_s,
        "steps": steps,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if args.trace:
        result["traced_round_s"] = traced_s
        result["missing"] = tracer.missing
        result["layers"] = {
            name: (None if any(r[name] is None for r in layer_rounds)
                   else statistics.median(r[name] for r in layer_rounds))
            for name in layer_rounds[0]
        }
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
