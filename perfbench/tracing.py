"""Spans around calls into ncrep, recorded from the benchmark's side.

A traced run swaps selected ncrep functions for wrappers in every ncrep
module that binds them, so calls the package makes internally are seen as
well as the benchmark's own; nothing inside the package is instrumented.
The originals are put back when the `patched` context exits.  Spans stay in
memory and are summarised once the run ends.
"""

import functools
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

# (module, qualified name, unit of the per-call median)
TARGETS = (
    ("linalg", "orthonormalize", "us"),
    ("algebras", "block_diagonal_algebra", "us"),
    ("algebras", "block_upper_triangular", "us"),
    ("algebras", "commutant", "us"),
    ("instances", "random_block_instance", "ms"),
    ("instances", "random_central_density", "us"),
    ("states", "is_D_central", "us"),
    ("states", "locally_central_check", "ms"),
    ("states", "modular_invariance_check", "ms"),
    ("states", "tracial_certificate", "us"),
    ("expectations", "preserving_expectation", "ms"),
    ("expectations", "ConditionalExpectation.validate", "ms"),
    ("expectations", "existence_diagnosis", "ms"),
    ("expectations", "support_ideal_expectation", "ms"),
    ("representing", "representing_expectation_tracial", "ms"),
    ("representing", "representing_expectation_state", "ms"),
    ("representing", "mth_check", "us"),
    ("jensen", "jensen_measure_suite", "ms"),
    ("jensen", "geometric_mean", "us"),
    ("jensen", "holder_tracial", "us"),
)

# spans whose tracemalloc peak is reported as <name>.peak_mb
MEMORY_TARGETS = (
    ("expectations", "preserving_expectation"),
    ("expectations", "ConditionalExpectation.validate"),
    ("representing", "representing_expectation_tracial"),
    ("representing", "representing_expectation_state"),
)

DIAGNOSIS = "expectations.existence_diagnosis"
DIAGNOSIS_VARIANTS = ("central", "noncentral", "truncated")
RUN_SUITE = "cli.run_suite.all"

_SCALE = {"ms": 1e3, "us": 1e6}


def span_name(module, qualname):
    return f"{module}.{qualname}"


def diagnosis_variant(report):
    """Which input family an existence report came from, read off the report:
    a state cut down to some blocks is not faithful on D, and of the faithful
    ones the D-central states are the ones the expectation exists for."""
    if not report.faithful_on_D:
        return "truncated"
    return "central" if report.central else "noncentral"


def span_units():
    """Every per-call span the traced run reports, with the unit of its median."""
    units = {}
    for module, qualname, unit in TARGETS:
        name = span_name(module, qualname)
        if name == DIAGNOSIS:
            for variant in DIAGNOSIS_VARIANTS:
                units[f"{name}.{variant}"] = unit
        else:
            units[name] = unit
    units[RUN_SUITE] = "ms"
    return units


def _resolve(module, qualname):
    owner = sys.modules[f"ncrep.{module}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(targets, make_wrapper):
    """Replace each target by make_wrapper(span_name, original) wherever ncrep binds it.

    A module function is rebound in every ncrep module that imported it by
    name; a method is replaced on its class.  Everything is restored on exit.
    """
    saved = []
    try:
        for module, qualname, *_ in targets:
            owner, attr = _resolve(module, qualname)
            original = getattr(owner, attr)
            wrapper = make_wrapper(span_name(module, qualname), original)
            if isinstance(owner, type):
                homes = [(owner, attr)]
            else:
                homes = [
                    (mod, name)
                    for key, mod in list(sys.modules.items())
                    if key == "ncrep" or key.startswith("ncrep.")
                    for name, value in list(vars(mod).items())
                    if value is original
                ]
            for home, name in homes:
                saved.append((home, name, original))
                setattr(home, name, wrapper)
        yield
    finally:
        for home, name, original in reversed(saved):
            setattr(home, name, original)


class Recorder:
    """In-memory spans: name, start, end and parent index, in call order."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.diagnoses = 0
        self.constructed = 0

    def enter(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def exit(self, index):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    def wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if name == DIAGNOSIS:
                self.names[index] = f"{name}.{diagnosis_variant(result)}"
                self.diagnoses += 1
                self.constructed += bool(result.constructed)
            return result

        return traced

    def summary(self, trial_seconds, slowdown=1.0):
        """Per span name: calls, median, total and self time (divided by the
        host slowdown), and share of the trial time."""
        durations = [(end - start) / slowdown for start, end in zip(self.starts, self.ends)]
        trial_seconds /= slowdown
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        grouped = {}
        for name, duration, self_time in zip(self.names, durations, own):
            entry = grouped.setdefault(name, ([], [0.0]))
            entry[0].append(duration)
            entry[1][0] += self_time
        out = {}
        for name, (values, self_total) in sorted(grouped.items()):
            total = sum(values)
            out[name] = {
                "calls": len(values),
                "median_s": statistics.median(values),
                "total_s": total,
                "self_s": self_total[0],
                "share_of_trial_time": total / trial_seconds if trial_seconds > 0 else 0.0,
                "self_share_of_trial_time": self_total[0] / trial_seconds if trial_seconds > 0 else 0.0,
            }
        return out

    def raw(self):
        return {"names": self.names, "starts": self.starts, "ends": self.ends, "parents": self.parents}


class PeakRecorder:
    """tracemalloc peak of each span above the memory traced when it began.

    tracemalloc keeps a single peak counter, so a span resets it on entry
    after folding the peak seen so far into its parent, and folds its own
    peak into its parent on exit.
    """

    def __init__(self):
        self.peaks = {}
        self._stack = []

    def enter(self):
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)
        tracemalloc.reset_peak()
        self._stack.append([current, current])

    def exit(self):
        start, highest = self._stack.pop()
        highest = max(highest, tracemalloc.get_traced_memory()[1])
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], highest)
        return highest - start

    def wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks.setdefault(name, []).append(self.exit())

        return traced


def per_call_metrics(summary):
    """X.<unit> (median per call) and X.calls for every reported span."""
    metrics = {}
    for name, unit in span_units().items():
        entry = summary.get(name)
        calls = entry["calls"] if entry else 0
        median = entry["median_s"] * _SCALE[unit] if entry else 0.0
        metrics[f"{name}.{unit}"] = (median, unit)
        metrics[f"{name}.calls"] = (calls, "count")
    return metrics
