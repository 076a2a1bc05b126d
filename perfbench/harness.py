"""Measurement loops behind run.py.

One client drives the public API in a closed loop: trial t + 1 starts once
trial t has returned and its outputs have been checked.  Trial t of a
workload always draws from the stream seeded by (seed, workload salt, phase,
t), so a seed fixes every input.  Each phase's timings are divided by the
host slowdown `hostspeed` measured over it; the raw values go into the
report's notes.
"""

import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import tracing
from hostspeed import HostSpeed
from ncrep import cli
from ncrep.errors import NcrepError
from workloads import SMALL_KINDS, WORKLOADS, Clock

TIMED, WARMUP, REFERENCE = 0, 1, 2
SETUP_SPAWNS = 5
SUITE_TRIALS = 3  # run_suite("all", 4, SUITE_TRIALS, seed) in every traced run
# trials per --seconds in a traced run; a count, not a deadline, ends the
# traced loop, so span counts repeat exactly for a seed
TRACE_RATE = {"small-suite": 20.0, "large-pipeline": 0.2, "diagnosis-mixed": 0.5}
MB = 2.0**20


@dataclass
class Loop:
    attempted: int = 0
    failed: int = 0
    busy: float = 0.0  # wall seconds inside trials, checks included
    latencies: list = field(default_factory=list)  # seconds inside ncrep, per trial
    worst: tuple = (0.0, "")  # largest deviation / tolerance and the check's name
    failures: list = field(default_factory=list)

    def absorb(self, other):
        """Count another loop's trials and failures (not its timings)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.worst = max(self.worst, other.worst)
        self.failures += other.failures

    def throughput(self, slowdown=1.0):
        """Verified trials per second of trial wall time, on the host's fast-state scale."""
        return (self.attempted - self.failed) * slowdown / self.busy


class PeakClock(Clock):
    """A Clock that also runs each call into ncrep under its own tracemalloc
    session and keeps the largest peak.  Tracing each call from scratch keeps
    memory held or freed around it (the benchmark's own objects, garbage a
    collector run happens to free) out of its peak."""

    def __init__(self, recorder):
        super().__init__()
        self.recorder = recorder
        self.peak = 0

    def __call__(self, fn, *args, **kwargs):
        tracemalloc.start()
        try:
            self.recorder.enter()
            try:
                return super().__call__(fn, *args, **kwargs)
            finally:
                self.peak = max(self.peak, self.recorder.exit())
        finally:
            tracemalloc.stop()


def attempt(workload, seed, phase, t, loop, clock=None):
    """Run and check trial t; a typed ncrep error or a failed check fails it.

    Any other exception propagates: it is a fault of the program or of the
    benchmark, never a verdict on the input.
    """
    clock = clock or Clock()
    clock.seconds = 0.0
    loop.attempted += 1
    start = time.perf_counter()
    try:
        checks = workload.trial(t, (seed, workload.salt, phase, t), clock)
    except NcrepError as err:
        loop.failed += 1
        loop.failures.append(f"{workload.name} trial {t}: {type(err).__name__}: {err}")
    else:
        bad = [c.name for c in checks if not c.ok]
        if bad:
            loop.failed += 1
            loop.failures.append(f"{workload.name} trial {t}: failed {', '.join(bad)}")
        loop.worst = max([loop.worst] + [(c.margin, c.name) for c in checks])
    loop.busy += time.perf_counter() - start
    loop.latencies.append(clock.seconds)


def run_trials(workload, seed, seconds=None, count=None, phase=TIMED, host=None):
    """Trials 0, 1, ... until `seconds` have passed or `count` trials are done,
    with the host-speed kernel timed between trials when host is given."""
    loop = Loop()
    deadline = time.perf_counter() + seconds if seconds is not None else math.inf
    t = 0
    while (count is None or t < count) and time.perf_counter() < deadline:
        if host:
            host.keep_up()
        attempt(workload, seed, phase, t, loop)
        t += 1
    if host:
        host.keep_up()
    return loop


def memory_pass(workload, seed, recorder, reference=False):
    """Largest tracemalloc peak of one call into ncrep over the workload's
    memory_trials (and one round of the small-suite kinds when reference is
    set).  Untimed: tracing allocations slows the code it watches."""
    loop, clock = Loop(), PeakClock(recorder)
    plan = [(workload, TIMED, t) for t in workload.memory_trials]
    if reference:
        plan += [(WORKLOADS["small-suite"], REFERENCE, t) for t in range(len(SMALL_KINDS))]
    for item, phase, t in plan:
        attempt(item, seed, phase, t, loop, clock)
    return clock.peak, loop


def setup_seconds(host, spawns=SETUP_SPAWNS):
    """Median wall time of a fresh interpreter importing ncrep and ncrep.cli,
    with the host kernel timed around each."""
    times = []
    host.sample(3)
    for _ in range(spawns):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ncrep, ncrep.cli"], check=True, env=os.environ)
        times.append(time.perf_counter() - start)
        host.sample(3)
    return statistics.median(times)


# percentiles a tail may be reported at; a coarse fixed ladder keeps the
# reported percentile from moving with the number of trials a run happens to
# fit, and it skips 50, which latency_p50_ms already reports
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 25.0, 0.0)


def tail(latencies):
    """The highest ladder percentile (nearest rank) with at least 10 trials
    above it, or the smallest latency when there are fewer than 11 trials;
    returns the value, the percentile and the number of trials above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for percentile in TAIL_LADDER:
        rank = max(1, math.ceil(percentile / 100.0 * n))
        if n - rank >= 10:
            return ordered[rank - 1], percentile, n - rank
    return ordered[0], 0.0, n - 1


def measure(workload, seed, seconds):
    """End-to-end metrics: setup, a timed loop of `seconds`, a tracemalloc pass."""
    setup_host, host = HostSpeed(), HostSpeed()
    setup = setup_seconds(setup_host)
    run_trials(workload, seed, count=workload.warmup_trials, phase=WARMUP)
    loop = run_trials(workload, seed, seconds=seconds, host=host)
    f = host.slowdown
    value, percentile, beyond = tail(loop.latencies)
    peak, extra = memory_pass(workload, seed, tracing.PeakRecorder())
    metrics = {
        "throughput_per_s": (loop.throughput(f), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(loop.latencies) / f, "ms"),
        "latency_tail_ms": (1e3 * value / f, "ms"),
        "peak_mem_mb": (peak / MB, "MB"),
        "setup_s": (setup / setup_host.slowdown, "s"),
    }
    notes = {
        "latency_tail_percentile": percentile,
        "latency_tail_beyond": beyond,
        "timed_trials": len(loop.latencies),
        "host_slowdown": f,
        "setup_host_slowdown": setup_host.slowdown,
        "raw": {
            "throughput_per_s": loop.throughput(),
            "latency_p50_ms": 1e3 * statistics.median(loop.latencies),
            "latency_tail_ms": 1e3 * value,
            "setup_s": setup,
        },
    }
    loop.absorb(extra)
    notes["failed_frac"] = loop.failed / loop.attempted
    return loop, metrics, notes, {"latencies_ms": [1e3 * x for x in loop.latencies]}


def measure_traced(workload, seed, seconds):
    """Per-layer metrics: a fixed set of trials untraced and then traced, then
    a traced reference pass of one in-process run_suite("all", 4, ...) and one
    round of the small-suite kinds, and a tracemalloc pass for the .peak_mb
    spans.  A span's numbers come from the workload's trials, or from the
    reference pass for a layer those trials never call."""
    count = max(1, math.ceil(seconds * TRACE_RATE[workload.name]))
    plain_host, host = HostSpeed(), HostSpeed()
    run_trials(workload, seed, count=workload.warmup_trials, phase=WARMUP)
    plain = run_trials(workload, seed, count=count, host=plain_host)
    recorder, fallback = tracing.Recorder(), tracing.Recorder()
    with tracing.patched(tracing.TARGETS, recorder.wrapper):
        loop = run_trials(workload, seed, count=count, host=host)
    with tracing.patched(tracing.TARGETS, fallback.wrapper):
        with fallback.span(tracing.RUN_SUITE):
            start = time.perf_counter()
            assertions, _ = cli.run_suite("all", 4, SUITE_TRIALS, seed)
            suite_seconds = time.perf_counter() - start
        small = WORKLOADS["small-suite"]
        reference = run_trials(small, seed, count=len(SMALL_KINDS), phase=REFERENCE, host=host)
    peaks = tracing.PeakRecorder()
    with tracing.patched(tracing.MEMORY_TARGETS, peaks.wrapper):
        _, memory = memory_pass(workload, seed, peaks, reference=True)

    f = host.slowdown
    traced_rate, plain_rate = loop.throughput(f), plain.throughput(plain_host.slowdown)
    spans = recorder.summary(sum(loop.latencies), f)
    reference_spans = fallback.summary(sum(reference.latencies) + suite_seconds, f)
    suite = Loop(attempted=1, failed=int(not all(a["pass"] for a in assertions)))
    if suite.failed:
        failing = ", ".join(a["name"] for a in assertions if not a["pass"])
        suite.failures.append(f"run_suite('all', 4): {failing}")
    for extra in (plain, reference, memory, suite):
        loop.absorb(extra)

    metrics = tracing.per_call_metrics({**reference_spans, **spans})
    for module, qualname in tracing.MEMORY_TARGETS:
        name = tracing.span_name(module, qualname)
        metrics[f"{name}.peak_mb"] = (max(peaks.peaks.get(name, [0])) / MB, "MB")
    diagnosed = recorder if recorder.diagnoses else fallback
    metrics["expectations.constructed_ratio"] = (diagnosed.constructed / max(1, diagnosed.diagnoses), "ratio")
    metrics["checks.worst_margin"] = (loop.worst[0], "ratio")
    metrics["trace.overhead_per_s"] = (traced_rate - plain_rate, "1/s")
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / plain_rate, "ratio")
    metrics["src_lines"] = (src_lines(), "lines")
    notes = {"traced_trials": count, "host_slowdown": f, "failed_frac": loop.failed / loop.attempted}
    report = {"spans": spans, "reference_spans": reference_spans, "raw_spans": recorder.raw()}
    return loop, metrics, notes, report


def src_lines():
    """Lines of the ncrep package source."""
    package = os.path.dirname(cli.__file__)
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "src_lines": src_lines(),
    }
