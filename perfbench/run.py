"""maxgain benchmark: three closed-loop workloads, timed from outside the library.

Run from the repository root:

    python3 perfbench/run.py --workload spiral_mlp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                   # every workload, each in a fresh process

--trace 0 measures the end-to-end metrics; --trace 1 measures the per-layer
metrics from traced bodies, alternating with untraced ones to state the
tracing overhead. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The lines above it give every
end-to-end metric with its unit (including those that apply to only some
workloads), the environment, and the first failed checks, if any.

The code under test is imported from src/ next to this directory, never from
an installed copy; without it the benchmark exits with status 1.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# One BLAS thread: on 2 cores it was both faster and steadier than two.
BLAS_THREADS = 1
SPANS_DIR = os.path.join(ROOT, ".perfbench-out")


def pin_environment():
    """Fix the BLAS pool size before numpy loads (never above the CPU count)
    and keep this process and its children on one CPU: moving between CPUs
    made identical work up to 40% slower from one repeat to the next."""
    cpus = os.sched_getaffinity(0)
    n = str(min(BLAS_THREADS, len(cpus)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    os.sched_setaffinity(0, {max(cpus)})


def import_library():
    if not os.path.isfile(os.path.join(SRC, "maxgain", "__init__.py")):
        raise SystemExit(f"perfbench: no maxgain sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import maxgain
    if os.path.dirname(os.path.abspath(maxgain.__file__)) != os.path.join(SRC, "maxgain"):
        raise SystemExit(f"perfbench: imported maxgain from {maxgain.__file__}, not {SRC}")


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "cpu": cpu,
            "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0))}


def print_report(name, seed, trace, env, result, report, notes):
    print(f"# workload {name}  seed {seed}  trace {trace}")
    print("# env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for key, (value, unit, note) in report.items():
        if value is not None:
            print(f"{key:<22} {value:<14.6g} {unit:<6} {note}")
    if trace:
        for key, m in result["metrics"].items():
            print(f"{key:<40} {m['value']:<14.6g} {m['unit']}")
    for note in notes:
        print(f"# FAILED: {note}", file=sys.stderr)
    print(json.dumps({"workload": name, "seed": seed, "trace": trace, "env": env,
                      "report": {k: v[0] for k, v in report.items()}}))
    print(json.dumps(result))


def run_all(args, names):
    """Each workload in its own fresh process, one after another, so that
    peak_rss_mb is that workload's own."""
    worst = 0
    for name in names:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None):
    # a terminated run still removes its work directory on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_environment()
    import_library()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    spans_path = None
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}.spans.tsv")
    import harness
    try:
        result, report, notes = harness.measure(args.workload, args.seed, args.seconds,
                                                args.trace, spans_path=spans_path)
    except RuntimeError as err:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
        return 1
    print_report(args.workload, args.seed, args.trace, environment(), result, report, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
