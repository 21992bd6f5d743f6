"""Paired base-vs-rollout comparison across objectives and rollout modes.

Runs the same sampled episodes under both policies with shared repair noise
and reports, per case: win/tie/loss counts, the not-worse fraction, the mean
improvement with its standard error, and the paired t statistic.

    python scripts/compare_modes.py --episodes 30
    python scripts/compare_modes.py --scenario path/to/scenario.yaml --seed 11
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import recovery_rollout
from recovery_rollout.mdp import Objective
from recovery_rollout.planner import PolicyKind, RolloutMode, run_episodes
from recovery_rollout.scenario import load_scenario

DEFAULT_SCENARIO = str(
    Path(recovery_rollout.__file__).parent / "data" / "mini_gilroy.yaml"
)

CASES = (
    ("time-to-coverage / mean", Objective.MIN_TIME_TO_COVERAGE, RolloutMode.MEAN),
    ("time-to-coverage / worst", Objective.MIN_TIME_TO_COVERAGE,
     RolloutMode.WORST_CASE),
    ("benefit-rate / mean", Objective.MAX_BENEFIT_RATE, RolloutMode.MEAN),
)


def paired_diffs(scenario, mdp, rollout_cfg, episodes, seed):
    """Improvement per episode, signed so that positive favors rollout."""
    base, roll = (
        [
            res.metric(mdp.objective)
            for res in run_episodes(
                policy, scenario.community, scenario.hazards, mdp, rollout_cfg,
                scenario.base_policy, episodes, seed,
            )
        ]
        for policy in (PolicyKind.BASE, PolicyKind.ROLLOUT)
    )
    if mdp.objective is Objective.MIN_TIME_TO_COVERAGE:
        return np.subtract(base, roll)
    return np.subtract(roll, base)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default=DEFAULT_SCENARIO)
    parser.add_argument("--episodes", type=int, default=30)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    args = parser.parse_args(argv)

    scenario = load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    print(f"scenario {scenario.name}  seed {seed}  episodes {args.episodes}")

    for label, objective, mode in CASES:
        mdp = replace(scenario.mdp, objective=objective)
        rollout_cfg = replace(scenario.rollout, mode=mode)
        diffs = paired_diffs(scenario, mdp, rollout_cfg, args.episodes, seed)
        wins = int(np.sum(diffs > 1e-9))
        ties = int(np.sum(np.abs(diffs) <= 1e-9))
        losses = len(diffs) - wins - ties
        mean = float(np.mean(diffs))
        se = float(np.std(diffs, ddof=1)) / math.sqrt(len(diffs))
        t = mean / se if se > 0 else math.inf
        not_worse = (wins + ties) / len(diffs)
        print(
            f"{label:26s} W/T/L {wins:2d}/{ties:2d}/{losses:2d}  "
            f"not-worse {not_worse:.3f}  mean {mean:+.3f}  se {se:.3f}  "
            f"t {t:.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
