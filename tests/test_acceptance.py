"""Acceptance gate: ten end-to-end checks, one verdict line each.

Each test prints `ACCEPTANCE <n> <label>: PASS|FAIL (<measured detail>)`
directly to the terminal (bypassing capture) and then asserts, so a plain
pytest run always shows the per-criterion scoreboard with its pinned
tolerances.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import stats

import recovery_rollout
from recovery_rollout.cli import main
from recovery_rollout.community import (
    Community,
    ComponentClass,
    DamageState,
    GridCell,
    Retailer,
)
from recovery_rollout.hazard import FragilitySet, damage_pmf, exceedance_prob
from recovery_rollout.mdp import (
    MdpConfig,
    Objective,
    RepairAction,
    RepairModel,
    count_admissible,
    damaged_indices,
    enumerate_actions,
    initial_state,
    is_terminal,
    transition,
)
from recovery_rollout.planner import (
    PolicyKind,
    RolloutMode,
    episode_damage,
    exhaustive_oracle,
    run_episode,
    run_episodes,
)
from recovery_rollout.scenario import load_scenario

from conftest import (
    FreshDraws,
    comp,
    damage_for,
    desk_community,
    functional_set,
    iterative_removal_oracle,
    random_dag_community,
)

C = ComponentClass
D = DamageState
DATA = Path(recovery_rollout.__file__).parent / "data"
MINI = str(DATA / "mini_gilroy.yaml")

# one-sided 5% critical value of Student's t with 29 degrees of freedom
_T_CRIT_29 = 1.699


def _verdict(capsys, number: int, label: str, ok: bool, detail: str) -> None:
    line = (
        f"ACCEPTANCE {number:02d} {label}: "
        f"{'PASS' if ok else 'FAIL'} ({detail})"
    )
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_action_space_counts(capsys):
    """Admissible assignment counts equal the binomial product for every
    damaged-count / crew-count combination up to 8 per network and 3 crews."""
    components = [comp(1, C.SUBSTATION)]
    edges = []
    for cid in range(2, 9):
        components.append(comp(cid, C.DISTRIBUTION_SEGMENT))
        edges.append((1, cid))
    components.append(comp(9, C.WELL))
    prev = 9
    for cid in range(10, 17):
        components.append(comp(cid, C.PIPELINE))
        edges.append((prev, cid))
        prev = cid
    cells = [GridCell(id=1, population=100, centroid=(1.0, 0.0),
                      power_feed=2, water_feed=10)]
    retailers = [Retailer(id=1, capacity=10.0, centroid=(0.0, 1.0),
                          power_feed=2, water_feed=10)]
    community = Community(components, edges, cells, retailers)
    epn_ids = list(range(1, 9))
    wn_ids = list(range(9, 17))

    checked = 0
    ok = True
    for l_e in range(9):
        for l_w in range(9):
            if l_e == 0 and l_w == 0:
                continue
            spec = {cid: D.MINOR for cid in epn_ids[:l_e] + wn_ids[:l_w]}
            for n_e in (1, 2, 3):
                for n_w in (1, 2, 3):
                    config = MdpConfig(n_e=n_e, n_w=n_w)
                    state = initial_state(
                        community, damage_for(community, spec), config
                    )
                    want = math.comb(l_e, min(n_e, l_e)) * math.comb(
                        l_w, min(n_w, l_w)
                    )
                    got = count_admissible(state, community, config)
                    ok = ok and got == want
                    if want <= 300:
                        actions = enumerate_actions(state, community, config)
                        ok = ok and len(actions) == want
                        ok = ok and len(
                            {a.assigned_indices() for a in actions}
                        ) == want
                    checked += 1
    _verdict(
        capsys, 1, "admissible action counts match binomial products", ok,
        f"{checked} grid points, exact equality",
    )


def test_criterion_02_parallel_repair_min_law(capsys):
    """First completion of two parallel repairs with mean 3 and 7 days
    averages 1/(1/3 + 1/7) = 2.1 days."""
    components = [
        comp(1, C.SUBSTATION),
        comp(2, C.SUBSTATION),
        comp(3, C.DISTRIBUTION_SEGMENT),
        comp(4, C.WELL),
        comp(5, C.PIPELINE),
    ]
    edges = [(1, 3), (4, 5)]
    cells = [GridCell(id=1, population=100, centroid=(1.0, 0.0),
                      power_feed=3, water_feed=5)]
    retailers = [Retailer(id=1, capacity=10.0, centroid=(0.0, 1.0),
                          power_feed=3, water_feed=5)]
    community = Community(components, edges, cells, retailers)
    config = MdpConfig(n_e=2, n_w=1, alpha=1.0)
    # substation means: MODERATE 3 days, EXTENSIVE 7 days
    damage = damage_for(community, {1: D.MODERATE, 2: D.EXTENSIVE})
    state = initial_state(community, damage, config)
    action = RepairAction((0, 1))
    draws = FreshDraws(np.random.default_rng(2024))

    n = 100_000
    total = 0.0
    for _ in range(n):
        # under the time objective the reward is the negated completion time
        _, reward = transition(state, action, community, config, draws)
        total -= reward
    mean = total / n
    expected = 1.0 / (1.0 / 3.0 + 1.0 / 7.0)
    rel_err = abs(mean - expected) / expected
    _verdict(
        capsys, 2, "parallel-repair first completion mean", rel_err <= 0.02,
        f"mean {mean:.4f} vs {expected:.4f} over {n} draws, "
        f"rel err {rel_err:.4f} <= 0.02",
    )


def test_criterion_03_preemption_memoryless(capsys):
    """Time to finish a 3-day repair is exponential(mean 3) even when a
    faster job preempts crew attention mid-flight."""
    components = [
        comp(1, C.SUBSTATION),
        comp(2, C.DISTRIBUTION_SEGMENT),
        comp(3, C.WELL),
        comp(4, C.PIPELINE),
    ]
    edges = [(1, 2), (3, 4)]
    cells = [GridCell(id=1, population=100, centroid=(1.0, 0.0),
                      power_feed=2, water_feed=4)]
    retailers = [Retailer(id=1, capacity=10.0, centroid=(0.0, 1.0),
                          power_feed=2, water_feed=4)]
    community = Community(components, edges, cells, retailers)
    config = MdpConfig(n_e=2, n_w=1, alpha=1.0)
    # substation MODERATE takes mean 3 days; the distribution blocker 1 day
    start = initial_state(
        community, damage_for(community, {1: D.MODERATE, 2: D.MODERATE}),
        config,
    )
    draws = FreshDraws(np.random.default_rng(77))
    n = 100_000
    samples = np.empty(n)
    for i in range(n):
        state = start
        while True:
            epn, _ = damaged_indices(state, community)
            state, _ = transition(
                state, RepairAction(epn), community, config, draws
            )
            if not state.damage[0]:  # component 1 repaired
                samples[i] = state.elapsed_time
                break

    reference = 3.0 * np.random.default_rng(78).standard_exponential(n)
    p_value = stats.ks_2samp(samples, reference).pvalue
    _verdict(
        capsys, 3, "repair law invariant under preemption", p_value > 0.01,
        f"KS two-sample p {p_value:.4f} > 0.01, n {n}",
    )


def test_criterion_04_cascade_fixed_point(capsys):
    """Functional-set propagation equals the iterative-removal fixed point
    on 1000 random dependency DAGs of up to 30 nodes."""
    rng = np.random.default_rng(4242)
    mismatches = 0
    for _ in range(1000):
        community = random_dag_community(rng, max_nodes=30)
        damage = tuple(
            DamageState(int(rng.integers(0, 5)))
            if rng.random() < 0.4
            else D.NONE
            for _ in range(community.n_components)
        )
        if functional_set(community, damage) != iterative_removal_oracle(
            community, damage
        ):
            mismatches += 1
    _verdict(
        capsys, 4, "cascade fixed point on random DAGs", mismatches == 0,
        f"1000 graphs, {mismatches} mismatches, exact equality",
    )


def _paired_episodes(scenario, mdp, rollout_cfg, n_episodes):
    base, roll = (
        [
            res.metric(mdp.objective)
            for res in run_episodes(
                policy, scenario.community, scenario.hazards, mdp, rollout_cfg,
                scenario.base_policy, n_episodes, root_seed=scenario.seed,
            )
        ]
        for policy in (PolicyKind.BASE, PolicyKind.ROLLOUT)
    )
    if mdp.objective is Objective.MIN_TIME_TO_COVERAGE:
        return np.subtract(base, roll)
    return np.subtract(roll, base)


def test_criterion_05_paired_improvement(capsys):
    """Across 30 paired episodes per mode, the rollout policy is not worse
    than the base policy on at least 95% of episodes and improves the mean
    with one-sided significance (t > 1.699, 5% level, 29 dof)."""
    scenario = load_scenario(MINI)
    cases = (
        ("time/mean", scenario.mdp, RolloutMode.MEAN),
        ("time/worst", scenario.mdp, RolloutMode.WORST_CASE),
        (
            "rate/mean",
            replace(scenario.mdp, objective=Objective.MAX_BENEFIT_RATE),
            RolloutMode.MEAN,
        ),
    )
    ok = True
    details = []
    for label, mdp, mode in cases:
        rollout_cfg = replace(scenario.rollout, mode=mode)
        diffs = _paired_episodes(scenario, mdp, rollout_cfg, 30)
        not_worse = float(np.mean(diffs >= -1e-9))
        t_stat = float(
            np.mean(diffs) / (np.std(diffs, ddof=1) / math.sqrt(len(diffs)))
        )
        ok = ok and not_worse >= 0.95 and t_stat > _T_CRIT_29
        details.append(
            f"{label}: not-worse {not_worse:.3f} >= 0.95, "
            f"t {t_stat:.2f} > {_T_CRIT_29}"
        )
    _verdict(
        capsys, 5, "paired rollout improvement in all three modes", ok,
        "; ".join(details),
    )


def test_criterion_06_near_optimality(capsys):
    """On 50 random deterministic instances, the rollout schedule finishes
    within 5% of the exhaustive optimum, and matches it exactly whenever at
    most two components are damaged."""
    community = desk_community()
    mdp = MdpConfig(n_e=1, n_w=1, alpha=0.55,
                    repair_model=RepairModel.REMAINING_WORK)
    scenario = load_scenario(MINI)  # only for the rollout config defaults
    rollout_cfg = scenario.rollout
    rng = np.random.default_rng(123)

    worst_gap = 0.0
    exact_small = True
    n_small = 0
    ok = True
    for i in range(50):
        while True:
            k = int(rng.integers(1, 7))
            ids = rng.choice(
                [c.id for c in community.components], size=k, replace=False
            )
            spec = {
                int(cid): DamageState(int(rng.integers(1, 5))) for cid in ids
            }
            damage = damage_for(community, spec)
            if not is_terminal(
                initial_state(community, damage, mdp), community, mdp
            ):
                break
        optimum, _ = exhaustive_oracle(damage, community, mdp)
        result = run_episode(
            PolicyKind.ROLLOUT, damage, community, mdp, rollout_cfg,
            scenario.base_policy, root_seed=1000 + i,
        )
        achieved = result.metric(mdp.objective)
        gap = (achieved - optimum) / optimum if optimum > 0 else 0.0
        worst_gap = max(worst_gap, gap)
        ok = ok and gap <= 0.05 + 1e-9
        if k <= 2:
            n_small += 1
            exact_small = exact_small and abs(achieved - optimum) <= 1e-9
    ok = ok and exact_small and n_small > 0
    _verdict(
        capsys, 6, "rollout near the exhaustive schedule optimum", ok,
        f"50 instances, worst gap {worst_gap * 100.0:.2f}% <= 5%, "
        f"{n_small} small instances exact to 1e-9",
    )


def test_criterion_07_estimate_discipline(capsys):
    """Every Q-estimate in a rollout decision log reaches the standard-error
    target or the trajectory cap."""
    scenario = load_scenario(MINI)
    damage = episode_damage(scenario.community, scenario.hazards, scenario.seed, 0)
    result = run_episode(
        PolicyKind.ROLLOUT, damage, scenario.community, scenario.mdp,
        scenario.rollout, scenario.base_policy, root_seed=scenario.seed,
    )
    n_estimates = 0
    ok = bool(result.decisions)
    for record in result.decisions:
        for _, est in record.estimates:
            n_estimates += 1
            ok = ok and (
                est.std_error < scenario.rollout.se_threshold
                or est.n_trajectories == scenario.rollout.n_mc_max
            )
    _verdict(
        capsys, 7, "every estimate hits the precision target or sample cap", ok,
        f"{n_estimates} estimates, se < {scenario.rollout.se_threshold} "
        f"or n == {scenario.rollout.n_mc_max}",
    )


def test_criterion_08_partial_coverage_stop(capsys):
    """Under the coverage objective the episode stops as soon as coverage
    reaches alpha, leaving unneeded repairs undone."""
    scenario = load_scenario(MINI)
    mdp = replace(scenario.mdp, repair_model=RepairModel.REMAINING_WORK)
    community = scenario.community
    # a damaged trunk plus a damaged low-population leaf segment
    damage = damage_for(community, {2: D.MODERATE, 6: D.MINOR})
    result = run_episode(
        PolicyKind.BASE, damage, community, mdp, scenario.rollout,
        scenario.base_policy, root_seed=scenario.seed,
    )
    repaired = {cid for step in result.steps for cid in step.repaired}
    final_coverage = result.curve.points[-1][1] / community.total_population
    ok = (
        result.total_time > 0.0
        and 6 not in repaired
        and final_coverage >= mdp.alpha
    )
    _verdict(
        capsys, 8, "coverage objective stops with damage outstanding", ok,
        f"repaired {sorted(repaired)}, leaf 6 untouched, "
        f"coverage {final_coverage:.4f} >= alpha {mdp.alpha}",
    )


def test_criterion_09_reproducible_compare(capsys, tmp_path):
    """Two identical compare invocations emit byte-identical files."""
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = main([
            "compare", "--scenario", MINI, "--seed", "7",
            "--episodes", "2", "--out", str(out),
        ])
        assert code == 0
    names = sorted(p.name for p in out_a.iterdir())
    ok = names == sorted(p.name for p in out_b.iterdir()) and len(names) == 4
    for name in names:
        ok = ok and (out_a / name).read_bytes() == (out_b / name).read_bytes()
    _verdict(
        capsys, 9, "compare output reproducible byte-for-byte", ok,
        f"{len(names)} files identical across two runs (seed 7)",
    )


def test_criterion_10_fragility_consistency(capsys):
    """Exceedance at the median is exactly one half and damage masses sum
    to one across an intensity sweep, for every bundled fragility set."""
    scenario = load_scenario(MINI)
    fragility_sets = [
        hz.fragility for hz in scenario.hazards.values()
        if hz.fragility is not None
    ]
    ok = bool(fragility_sets)
    worst_median = 0.0
    worst_sum = 0.0
    for fs in fragility_sets:
        for curve in fs.curves:
            err = abs(exceedance_prob(curve.median_im, curve) - 0.5)
            worst_median = max(worst_median, err)
            ok = ok and err <= 1e-12
        for im in np.linspace(0.05, 3.0, 100):
            pmf = damage_pmf(FragilitySet(im=float(im), curves=fs.curves))
            err = abs(sum(pmf) - 1.0)
            worst_sum = max(worst_sum, err)
            ok = ok and err <= 1e-12 and all(p >= 0.0 for p in pmf)
    _verdict(
        capsys, 10, "fragility medians and damage masses consistent", ok,
        f"{len(fragility_sets)} sets, median dev {worst_median:.1e} <= 1e-12, "
        f"pmf sum dev {worst_sum:.1e} <= 1e-12 over 100-point sweep",
    )
