"""Command-line surface: plan, compare, oracle-check, sample-damage.

Every run is a pure function of (scenario file, seed); emitted files use
fixed-width numeric formatting so repeated runs are byte-identical.
Exit codes: 0 success, 1 validation or scenario error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import enum
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .community import DamageState
from .errors import InstanceTooLarge, RecoveryError, TerminalState, ValidationError
from .mdp import Objective, RepairModel
from .planner import (
    EpisodeResult,
    PolicyKind,
    RestorationCurve,
    RolloutConfig,
    RolloutMode,
    episode_damage,
    exhaustive_oracle,
    objective_gain,
    oracle_gap,
    run_episode,
    run_episodes,
)
from .scenario import Scenario, load_scenario

_ORACLE_GAP_TOLERANCE = 0.05


def _fmt(x: float) -> str:
    # fixed-point writes inf, -inf and nan as such
    return f"{x:.6f}"


def _metric_label(objective: Objective) -> str:
    if objective is Objective.MIN_TIME_TO_COVERAGE:
        return "time_to_coverage_days"
    return "persons_per_day"


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1)) / math.sqrt(len(values))


def _setting_text(value: object) -> str:
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, enum.Enum):
        return value.value
    return str(value)


def _config_lines(
    scenario: Scenario, seed: int, episodes: int, rollout: RolloutConfig
) -> list[str]:
    """Run header, then every field of the MDP and rollout configs in
    declaration order."""
    lines = [
        f"scenario = {scenario.name}",
        f"seed = {seed}",
        f"episodes = {episodes}",
    ]
    for config in (scenario.mdp, rollout):
        for f in fields(config):
            lines.append(f"{f.name} = {_setting_text(getattr(config, f.name))}")
    return lines


def _curve_text(curve: RestorationCurve) -> str:
    lines = ["time_days,benefitted_persons,epn_frac,wn_frac"]
    for t, b, e, w in curve.points:
        lines.append(f"{t:.6f},{b:.3f},{e:.6f},{w:.6f}")
    return "\n".join(lines) + "\n"


def _trace_text(results: list[EpisodeResult]) -> str:
    lines = []
    for ep, res in enumerate(results):
        for s in res.steps:
            assigned = ",".join(str(i) for i in s.assigned)
            repaired = ",".join(str(i) for i in s.repaired)
            lines.append(
                f"ep {ep} step {s.decision_index} time {_fmt(s.time_days)} "
                f"assigned [{assigned}] repaired [{repaired}] "
                f"reward {_fmt(s.reward)}"
            )
        lines.append(f"ep {ep} done time {_fmt(res.total_time)}")
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _resolve_common(args: argparse.Namespace) -> tuple[Scenario, int, RolloutConfig]:
    scenario = load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must fit in an unsigned 64-bit integer")
    rollout_cfg = scenario.rollout
    mode = getattr(args, "mode", None)
    if mode is not None:
        rollout_cfg = replace(rollout_cfg, mode=RolloutMode(mode))
    if args.episodes < 1:
        raise ValidationError("episodes must be >= 1")
    return scenario, seed, rollout_cfg


def cmd_plan(args: argparse.Namespace) -> int:
    scenario, seed, rollout_cfg = _resolve_common(args)
    policy = PolicyKind(args.policy)
    results = run_episodes(
        policy, scenario.community, scenario.hazards, scenario.mdp, rollout_cfg,
        scenario.base_policy, n_episodes=args.episodes, root_seed=seed,
    )
    metrics = [res.metric(scenario.mdp.objective) for res in results]
    out = Path(args.out)
    for ep, res in enumerate(results):
        _write(out / f"curve_{policy.value}_ep{ep}.csv", _curve_text(res.curve))
    _write(out / f"trace_{policy.value}.txt", _trace_text(results))

    mean, stderr = _mean_stderr(metrics)
    label = _metric_label(scenario.mdp.objective)
    lines = _config_lines(scenario, seed, args.episodes, rollout_cfg)
    lines.append(f"policy = {policy.value}")
    for ep, m in enumerate(metrics):
        lines.append(f"episode {ep} {label} = {_fmt(m)}")
    lines.append(f"mean_{label} = {_fmt(mean)}")
    lines.append(f"stderr = {_fmt(stderr)}")
    _write(out / "summary_plan.txt", "\n".join(lines) + "\n")
    print(
        f"{policy.value} {label} mean {_fmt(mean)} stderr {_fmt(stderr)} "
        f"({args.episodes} episodes)"
    )
    return 0


def _mean_retailer_recovery(results: list[EpisodeResult]) -> list[float]:
    n_ret = len(results[0].retailer_recovery)
    return [
        float(np.mean([res.retailer_recovery[ri] for res in results]))
        for ri in range(n_ret)
    ]


def cmd_compare(args: argparse.Namespace) -> int:
    scenario, seed, rollout_cfg = _resolve_common(args)
    base_results, roll_results = (
        run_episodes(
            policy, scenario.community, scenario.hazards, scenario.mdp,
            rollout_cfg, scenario.base_policy, n_episodes=args.episodes,
            root_seed=seed,
        )
        for policy in (PolicyKind.BASE, PolicyKind.ROLLOUT)
    )
    objective = scenario.mdp.objective
    base_metrics = [res.metric(objective) for res in base_results]
    roll_metrics = [res.metric(objective) for res in roll_results]
    base_mean, base_se = _mean_stderr(base_metrics)
    roll_mean, roll_se = _mean_stderr(roll_metrics)
    gain = objective_gain(objective, base_mean, roll_mean)
    improvement = gain / base_mean * 100.0 if base_mean != 0.0 else 0.0
    gains = objective_gain(objective, np.array(base_metrics), np.array(roll_metrics))
    gain_mean, gain_se = _mean_stderr(gains)
    t_stat = gain_mean / gain_se if gain_se else math.nan
    wins = np.count_nonzero(gains > 1e-9)
    ties = np.count_nonzero(np.abs(gains) <= 1e-9)

    label = _metric_label(objective)
    lines = _config_lines(scenario, seed, args.episodes, rollout_cfg)
    lines.append(f"metric = {label}")
    for ep in range(args.episodes):
        lines.append(
            f"episode {ep} base {_fmt(base_metrics[ep])} "
            f"rollout {_fmt(roll_metrics[ep])}"
        )
    lines.append(f"base_mean = {_fmt(base_mean)} stderr {_fmt(base_se)}")
    lines.append(f"rollout_mean = {_fmt(roll_mean)} stderr {_fmt(roll_se)}")
    lines.append(f"improvement_pct = {_fmt(improvement)}")
    lines.append(f"paired_gain_mean = {_fmt(gain_mean)} stderr {_fmt(gain_se)}")
    lines.append(f"paired_t = {_fmt(t_stat)}")
    lines.append(f"wins_ties_losses = {wins}/{ties}/{len(gains) - wins - ties}")
    lines.append(f"not_worse_frac = {_fmt((wins + ties) / len(gains))}")

    out = Path(args.out)
    _write(out / "compare_summary.txt", "\n".join(lines) + "\n")

    ret_lines = ["retailer_id,base_mean_recovery_days,rollout_mean_recovery_days"]
    base_ret = _mean_retailer_recovery(base_results)
    roll_ret = _mean_retailer_recovery(roll_results)
    for ri, retailer in enumerate(scenario.community.retailers):
        ret_lines.append(
            f"{retailer.id},{_fmt(base_ret[ri])},{_fmt(roll_ret[ri])}"
        )
    _write(out / "compare_retailers.csv", "\n".join(ret_lines) + "\n")
    _write(out / "curve_base_ep0.csv", _curve_text(base_results[0].curve))
    _write(out / "curve_rollout_ep0.csv", _curve_text(roll_results[0].curve))
    print(
        f"base {_fmt(base_mean)} rollout {_fmt(roll_mean)} {label} "
        f"improvement {_fmt(improvement)}%"
    )
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    scenario, seed, rollout_cfg = _resolve_common(args)
    # the oracle needs deterministic repairs; force the model here
    mdp = replace(scenario.mdp, repair_model=RepairModel.REMAINING_WORK)
    label = _metric_label(mdp.objective)
    several = args.episodes > 1
    gaps: list[float] = []
    exact = 0
    refusals: list[RecoveryError] = []
    if several:
        print(f"metric {label}")
    for ep in range(args.episodes):
        damage = episode_damage(scenario.community, scenario.hazards, seed, ep)
        try:
            optimum, _ = exhaustive_oracle(damage, scenario.community, mdp)
        except (InstanceTooLarge, TerminalState) as exc:
            # left out of the summary; fatal only if every episode is refused
            refusals.append(exc)
            if several:
                print(f"episode {ep} refused: {exc}")
            continue
        result = run_episode(
            PolicyKind.ROLLOUT, damage, scenario.community, mdp, rollout_cfg,
            scenario.base_policy, root_seed=seed, episode_index=ep,
        )
        achieved = result.metric(mdp.objective)
        gap = oracle_gap(achieved, optimum, mdp.objective)
        gaps.append(gap)
        exact += abs(achieved - optimum) <= 1e-9
        if several:
            print(
                f"episode {ep} oracle_optimum {_fmt(optimum)} "
                f"rollout {_fmt(achieved)} gap_pct {_fmt(gap * 100.0)}"
            )
        else:
            print(f"oracle_optimum {label} {_fmt(optimum)}")
            print(f"rollout {label} {_fmt(achieved)}")
            print(f"gap_pct {_fmt(gap * 100.0)}")
    if not gaps:
        raise refusals[0]
    if several:
        pct = np.array(gaps) * 100.0
        print(
            f"gap_pct mean {_fmt(pct.mean())} median {_fmt(np.median(pct))} "
            f"max {_fmt(pct.max())}"
        )
        print(f"exact_episodes {exact}")
        print(f"refused_episodes {len(refusals)}")
    verdict = "PASS" if max(gaps) <= _ORACLE_GAP_TOLERANCE else "FAIL"
    print(f"{verdict} (tolerance {_fmt(_ORACLE_GAP_TOLERANCE * 100.0)}%)")
    return 0


def cmd_sample_damage(args: argparse.Namespace) -> int:
    scenario, seed, _ = _resolve_common(args)
    rows = ["episode,component_id,damage_state"]
    for ep in range(args.episodes):
        damage = episode_damage(scenario.community, scenario.hazards, seed, ep)
        counts = {s: 0 for s in DamageState}
        for comp, state in zip(scenario.community.components, damage):
            counts[state] += 1
            rows.append(f"{ep},{comp.id},{state.name.lower()}")
        damaged = scenario.community.n_components - counts[DamageState.NONE]
        detail = ", ".join(
            f"{s.name.lower()} {counts[s]}"
            for s in DamageState
            if s != DamageState.NONE
        )
        print(
            f"ep {ep}: damaged {damaged}/{scenario.community.n_components} "
            f"({detail})"
        )
    if args.out is not None:
        _write(Path(args.out) / "damage_samples.csv", "\n".join(rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recovery-rollout",
        description="Rollout planning for interdependent utility restoration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, episodes_default: int) -> None:
        sp.add_argument("--scenario", required=True, help="scenario YAML file")
        sp.add_argument(
            "--seed", type=int, default=None, help="override the scenario seed"
        )
        sp.add_argument(
            "--episodes", type=int, default=episodes_default,
            help="number of episodes",
        )

    sp = sub.add_parser("plan", help="run one policy and emit curves and traces")
    common(sp, episodes_default=1)
    sp.add_argument(
        "--policy", choices=[p.value for p in PolicyKind], default="rollout"
    )
    sp.add_argument("--mode", choices=[m.value for m in RolloutMode], default=None)
    sp.add_argument("--out", default="out", help="output directory")
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser(
        "compare", help="paired base-vs-rollout evaluation on shared noise"
    )
    common(sp, episodes_default=10)
    sp.add_argument("--mode", choices=[m.value for m in RolloutMode], default=None)
    sp.add_argument("--out", default="out", help="output directory")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser(
        "oracle-check",
        help="compare rollout against the exhaustive schedule oracle",
    )
    common(sp, episodes_default=1)
    sp.set_defaults(func=cmd_oracle_check)

    sp = sub.add_parser("sample-damage", help="draw initial damage vectors")
    common(sp, episodes_default=1)
    sp.add_argument("--out", default=None, help="optional output directory")
    sp.set_defaults(func=cmd_sample_damage)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RecoveryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
