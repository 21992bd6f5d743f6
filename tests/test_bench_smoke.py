"""The benchmark runs end to end on the package as it stands.

bench/run.py records calls by rebinding module attributes, so it depends
on function names, signatures, and call paths inside the package.  This
test runs one short workload and checks that it ends in its JSON line."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_mini_compare_benchmark_runs_clean():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mini-compare",
         "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
