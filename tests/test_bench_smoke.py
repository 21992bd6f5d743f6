"""The benchmark runs end to end on the package as it stands.

bench/run.py records calls by rebinding module attributes, so it depends
on function names, signatures, and call paths inside the package.  This
test runs one short repetition of every workload and checks that each
ends in its JSON line."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
