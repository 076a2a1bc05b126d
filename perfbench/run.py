"""ncrep benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload large-pipeline --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20 --trace 1

Run from a source checkout: the package is imported from src/ next to this
directory.  --trace 0 measures the end-to-end metrics, --trace 1 the
per-layer ones (see README.md in this directory).  Every metric is printed
by name with its unit; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  A full report, with the spans
of a traced run, is written to .bench_out/ in the checkout.  The exit code
is 1 if any output check failed, 2 if the sources are missing.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("small-suite", "large-pipeline", "diagnosis-mixed")
# One BLAS thread: the client is single-threaded and the box has 2 cores
# shared with other work, so a second thread adds noise, not speed.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ncrep benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def pin_environment():
    """Pin BLAS threads and put src/ on the path, before numpy is first imported."""
    for name in BLAS_VARIABLES:
        os.environ[name] = BLAS_THREADS
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def run_one(harness, name, args):
    from workloads import WORKLOADS

    measure = harness.measure_traced if args.trace else harness.measure
    loop, metrics, notes, spans = measure(WORKLOADS[name], args.seed, args.seconds)
    print(f"== {name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    if "latency_tail_percentile" in notes:
        print(
            f"  latency_tail_ms is p{notes['latency_tail_percentile']:.2f} of {notes['timed_trials']} trials,"
            f" {notes['latency_tail_beyond']} beyond it"
        )
    print(f"host slowdown {notes['host_slowdown']:.3f} (the times above are divided by it, see hostspeed.py)")
    for key, value in notes.get("raw", {}).items():
        print(f"  unscaled {key} {value:.6g}")
    print(f"failed_frac {notes['failed_frac']:.6g} ({loop.failed} of {loop.attempted} trials)")
    print(f"worst check margin {loop.worst[0]:.3g} ({loop.worst[1]})")
    for line in loop.failures[:20]:
        print(f"  FAILED {line}")
    report = {
        "workload": name,
        "environment": harness.environment(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        "notes": notes,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures,
        **spans,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return loop, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ncrep" / "__init__.py").is_file():
        print(f"perfbench: no ncrep sources at {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    import harness  # numpy loads here, after the BLAS pin

    print("environment " + json.dumps(harness.environment(args.seed), sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    merged = {}
    for name in names:
        loop, metrics = run_one(harness, name, args)
        attempted += loop.attempted
        failed += loop.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in metrics.items():
            merged[prefix + key] = {"value": value, "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": merged}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
