"""The benchmark runs end to end on the package as it stands.

bench/run.py records calls by rebinding module attributes, so it depends
on function names, signatures, and call paths inside the package.  This
test runs one short repetition of every workload and checks that each
writes nothing to stderr and ends in a strict JSON line (no NaN or
Infinity) whose end-to-end metrics are finite and positive."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "ops_per_s", "decision_ms_mean", "peak_rss_mb")


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize(
    "workload", ["mini-compare", "mini-rate", "grid-large", "oracle-desk"]
)
def test_benchmark_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(
        proc.stdout.splitlines()[-1], parse_constant=reject_constant
    )
    assert result["correct"] is True
    assert result["failed"] == 0
    for name in END_TO_END:
        value = result["metrics"][name]["value"]
        assert math.isfinite(value) and value > 0, (name, value)


@pytest.mark.parametrize(
    "workload", ["mini-compare", "mini-rate", "grid-large", "oracle-desk"]
)
def test_traced_benchmark_runs_clean(workload):
    """--trace 1 probes every layer function; its result line must stay
    strict JSON with every metric a finite number.  The metrics of a
    probed function that is gone read null, and so do the ratios over one
    that is never called, so this also keeps each one present and called."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(
        proc.stdout.splitlines()[-1], parse_constant=reject_constant
    )
    assert result["correct"] is True
    assert result["failed"] == 0
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert value is not None and math.isfinite(value), (name, value)
