"""Smoke tests for the experiment scripts under scripts/.

Each script is loaded by path and its main() run on a small input."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import recovery_rollout

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DEMO = str(Path(recovery_rollout.__file__).parent / "data" / "oracle_demo.yaml")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_modes_reports_every_case(capsys):
    script = load_script("compare_modes")
    assert script.main(["--scenario", DEMO, "--episodes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("scenario oracle-demo")
    assert len(lines) == 1 + len(script.CASES)
    for (label, _, _), line in zip(script.CASES, lines[1:]):
        assert line.startswith(label)
        assert re.search(r"W/T/L +\d+/ *\d+/ *\d+", line)


def test_oracle_gap_reports_nonnegative_gaps(capsys):
    script = load_script("oracle_gap")
    assert script.main(["--instances", "3"]) == 0
    out = capsys.readouterr().out
    match = re.search(r"mean gap (\S+)%, worst gap (\S+)%", out)
    assert match, out
    assert float(match.group(1)) >= 0.0
    assert float(match.group(2)) >= 0.0
