"""Rollout optimality gap against the exhaustive schedule oracle.

Draws random damage vectors on a bundled scenario (by default the
desk-scale deterministic one), solves each instance exactly with the
schedule oracle (dynamic programming over every preemptive schedule),
runs the rollout planner on the same instance, and reports the
distribution of the relative gap.  The oracle needs deterministic repairs,
so the scenario runs under the remaining-work repair model whatever it
sets, as `recovery-rollout oracle-check` does.

    python scripts/oracle_gap.py --instances 50
    python scripts/oracle_gap.py --scenario src/recovery_rollout/data/mini_gilroy.yaml
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import recovery_rollout
from recovery_rollout.community import DamageState
from recovery_rollout.errors import RecoveryError
from recovery_rollout.mdp import RepairModel, initial_state, is_terminal
from recovery_rollout.planner import (
    _ORACLE_MAX_DAMAGED,
    PolicyKind,
    exhaustive_oracle,
    oracle_gap,
    run_episode,
)
from recovery_rollout.scenario import load_scenario

DEFAULT_SCENARIO = str(
    Path(recovery_rollout.__file__).parent / "data" / "oracle_demo.yaml"
)


def random_damage(community, rng, max_damaged):
    ids = [c.id for c in community.components]
    k = int(rng.integers(1, max_damaged + 1))
    chosen = set(int(c) for c in rng.choice(ids, size=k, replace=False))
    return tuple(
        DamageState(int(rng.integers(1, 5))) if c.id in chosen else DamageState.NONE
        for c in community.components
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default=DEFAULT_SCENARIO)
    parser.add_argument("--instances", type=int, default=50)
    parser.add_argument("--max-damaged", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
    except (OSError, RecoveryError) as exc:
        parser.error(f"--scenario: {exc}")
    community = scenario.community
    n = min(community.n_components, _ORACLE_MAX_DAMAGED)
    if args.instances < 1 or not 1 <= args.max_damaged <= n or args.seed < 0:
        parser.error(
            f"need --instances >= 1, --max-damaged in 1..{n} and --seed >= 0"
        )
    mdp = replace(scenario.mdp, repair_model=RepairModel.REMAINING_WORK)
    rng = np.random.default_rng(args.seed)

    gaps = []
    exact = 0
    for i in range(args.instances):
        while True:
            damage = random_damage(community, rng, args.max_damaged)
            if not is_terminal(
                initial_state(community, damage, mdp), community, mdp
            ):
                break
        optimum, _ = exhaustive_oracle(damage, community, mdp)
        result = run_episode(
            PolicyKind.ROLLOUT, damage, community, mdp, scenario.rollout,
            scenario.base_policy, root_seed=args.seed * 100_000 + i,
        )
        achieved = result.metric(mdp.objective)
        gaps.append(oracle_gap(achieved, optimum, mdp.objective))
        exact += abs(achieved - optimum) <= 1e-9

    gaps = np.asarray(gaps)
    print(
        f"{args.instances} instances on {scenario.name}: "
        f"exact {exact}, mean gap {gaps.mean() * 100.0:.3f}%, "
        f"worst gap {gaps.max() * 100.0:.3f}%"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
