"""Tests of the benchmark itself: determinism, failure accounting, output contract.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import run
import tracing
from ncrep.errors import NotFaithful
from workloads import WORKLOADS, Check, Clock

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _feed(digest, value):
    if isinstance(value, np.ndarray):
        digest.update(value.tobytes())
    elif isinstance(value, np.random.Generator):
        digest.update(repr(value.bit_generator.state).encode())
    elif isinstance(value, (list, tuple)):
        for item in value:
            _feed(digest, item)
    elif isinstance(value, (int, float, complex, str, bool)) or value is None:
        digest.update(repr(value).encode())
    else:
        digest.update(type(value).__name__.encode())


class RecordingClock(Clock):
    """Digests every argument handed to ncrep before making the call."""

    def __init__(self, digest):
        super().__init__()
        self.digest = digest

    def __call__(self, fn, *args, **kwargs):
        _feed(self.digest, [fn.__name__, *args, *kwargs.items()])
        return super().__call__(fn, *args, **kwargs)


def _input_digest(workload, seed, trials):
    digest = hashlib.sha256()
    for t in range(trials):
        workload.trial(t, (seed, workload.salt, harness.TIMED, t), RecordingClock(digest))
    return digest.hexdigest()


@pytest.mark.parametrize("name, trials", [("small-suite", 14), ("diagnosis-mixed", 6), ("large-pipeline", 1)])
def test_same_seed_gives_identical_inputs(name, trials):
    workload = WORKLOADS[name]
    first = _input_digest(workload, 5, trials)
    assert _input_digest(workload, 5, trials) == first
    assert _input_digest(workload, 6, trials) != first


def _traced_counts(workload, seed, count):
    recorder = tracing.Recorder()
    with tracing.patched(tracing.TARGETS, recorder.wrapper):
        loop = harness.run_trials(workload, seed, count=count)
    spans = {name: entry["calls"] for name, entry in recorder.summary(1.0).items()}
    return loop.attempted, loop.failed, spans


@pytest.mark.parametrize("name", ["small-suite", "diagnosis-mixed"])
def test_same_seed_gives_identical_counts(name):
    first = _traced_counts(WORKLOADS[name], 9, 14)
    assert first[0] == 14 and first[1] == 0 and first[2]
    assert _traced_counts(WORKLOADS[name], 9, 14) == first


def test_patching_is_undone():
    from ncrep import expectations, linalg

    before = (linalg.orthonormalize, expectations.ConditionalExpectation.validate)
    with tracing.patched(tracing.TARGETS, tracing.Recorder().wrapper):
        assert linalg.orthonormalize is not before[0]
    assert (linalg.orthonormalize, expectations.ConditionalExpectation.validate) == before


def _with_trial(workload, trial):
    return dataclasses.replace(workload, trial=trial)


def test_injected_failing_check_raises_failed_frac(monkeypatch, capsys):
    base = WORKLOADS["diagnosis-mixed"]
    def failing(t, words, call):
        return base.trial(t, words, call) + [Check("injected", 1.0, 0.5)]

    faulty = _with_trial(base, failing)
    loop = harness.run_trials(faulty, 0, count=3)
    assert (loop.attempted, loop.failed) == (3, 3)

    monkeypatch.setitem(WORKLOADS, "diagnosis-mixed", faulty)
    monkeypatch.setattr(harness, "SETUP_SPAWNS", 1)
    for name in run.BLAS_VARIABLES + ("PYTHONPATH",):
        monkeypatch.setenv(name, os.environ.get(name, ""))  # undone after the test
    code = run.main(["--workload", "diagnosis-mixed", "--seed", "0", "--seconds", "0.3"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_ncrep_error_fails_the_trial_and_other_errors_abort():
    base = WORKLOADS["diagnosis-mixed"]

    def refuse(t, words, call):
        raise NotFaithful("refused")

    loop = harness.run_trials(_with_trial(base, refuse), 0, count=2)
    assert (loop.attempted, loop.failed) == (2, 2)

    def broken(t, words, call):
        raise TypeError("programming error")

    with pytest.raises(TypeError):
        harness.run_trials(_with_trial(base, broken), 0, count=1)


def test_tail_keeps_ten_samples_beyond():
    assert harness.tail(list(range(100, 0, -1))) == (90, 90.0, 10)
    assert harness.tail(list(range(1, 200))) == (180, 90.0, 19)
    assert harness.tail(list(range(1, 1011))) == (1000, 99.0, 10)
    assert harness.tail([3.0, 1.0, 2.0]) == (1.0, 0.0, 2)


def _bench(args, cwd):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    return out.returncode, out.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_smoke_run_reports_every_metric(trace, section):
    code, lines = _bench(["--workload", "all", "--seed", "0", "--seconds", "0.2", "--trace", trace], ROOT)
    assert code == 0, lines[-20:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in SPEC["workloads"]:
        prefix = workload["name"] + "."
        metrics = result["metrics"].items()
        got = {key[len(prefix):]: value["unit"] for key, value in metrics if key.startswith(prefix)}
        assert got == want


def test_exits_nonzero_without_sources(tmp_path):
    # BENCHMARK.json and the benchmark's own files, without src/
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _bench(["--workload", "small-suite", "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
