"""Tests for the experiment script under scripts/, oracle_gap.py.

The script is loaded by path and its main() run on small inputs."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import recovery_rollout
from recovery_rollout.mdp import initial_state, is_terminal
from recovery_rollout.planner import PolicyKind, exhaustive_oracle, run_episode
from recovery_rollout.scenario import load_scenario

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DATA = Path(recovery_rollout.__file__).parent / "data"
DEMO = str(DATA / "oracle_demo.yaml")
MINI = str(DATA / "mini_gilroy.yaml")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_gap_reports_nonnegative_gaps(capsys):
    script = load_script("oracle_gap")
    assert script.main(["--instances", "3"]) == 0
    out = capsys.readouterr().out
    match = re.search(r"mean gap (\S+)%, worst gap (\S+)%", out)
    assert match, out
    assert float(match.group(1)) >= 0.0
    assert float(match.group(2)) >= 0.0


def test_oracle_gap_runs_the_stochastic_scenario_deterministically(capsys):
    # mini_gilroy plans with exponential repairs; the oracle needs the
    # remaining-work model, which the script forces
    script = load_script("oracle_gap")
    assert script.main(["--scenario", MINI, "--instances", "1"]) == 0
    assert "1 instances on mini-gilroy" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["--instances", "0"],
        ["--max-damaged", "0"],
        ["--max-damaged", "8"],
        ["--scenario", MINI, "--max-damaged", "9"],
        ["--seed", "-1"],
        ["--scenario", str(DATA / "no_such_scenario.yaml")],
    ],
    ids=[
        "no-instances", "max-damaged-0", "max-damaged-above-components",
        "max-damaged-above-oracle-bound", "negative-seed", "missing-scenario",
    ],
)
def test_oracle_gap_rejects_bad_arguments(argv, capsys):
    # the demo scenario has 7 components; mini_gilroy has 20, above the
    # oracle's bound of 8 damaged
    script = load_script("oracle_gap")
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_oracle_gap_rejects_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("components: []\n", encoding="utf-8")
    script = load_script("oracle_gap")
    with pytest.raises(SystemExit) as exc:
        script.main(["--scenario", str(bad)])
    assert exc.value.code == 2
    message = f"error: --scenario: {bad}.components: expected a non-empty list"
    assert message in capsys.readouterr().err


def test_oracle_rate_never_beaten_on_script_instances(tmp_path):
    """Under max_benefit_rate the oracle sums its area over the same
    segments as the restoration curve, so rollout never reads above the
    optimum, not even in the last bits."""
    script = load_script("oracle_gap")
    text = Path(DEMO).read_text()
    rate_copy = tmp_path / "oracle_demo_rate.yaml"
    rate_copy.write_text(
        text.replace("objective: min_time_to_coverage", "objective: max_benefit_rate")
    )
    scenario = load_scenario(str(rate_copy))
    community, mdp = scenario.community, scenario.mdp
    rng = np.random.default_rng(0)
    for i in range(50):
        while True:
            damage = script.random_damage(community, rng, 6)
            if not is_terminal(initial_state(community, damage, mdp), community, mdp):
                break
        optimum, _ = exhaustive_oracle(damage, community, mdp)
        result = run_episode(
            PolicyKind.ROLLOUT, damage, community, mdp, scenario.rollout,
            scenario.base_policy, root_seed=i,
        )
        assert result.metric(mdp.objective) <= optimum, i
