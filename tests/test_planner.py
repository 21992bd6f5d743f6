"""Base policy, rollout lookahead, episode runner, and the schedule oracle."""

from __future__ import annotations

import gc
import itertools
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import recovery_rollout
from recovery_rollout import community as community_module
from recovery_rollout import planner as planner_module
from recovery_rollout.community import (
    DAMAGED_STATES,
    Community,
    ComponentClass,
    DamageState,
    GridCell,
    Retailer,
    benefit_for_damage,
    benefit_for_damage_cached,
)
from recovery_rollout.errors import (
    InstanceTooLarge,
    TerminalState,
    ValidationError,
)
from recovery_rollout.hazard import ComponentHazard
from recovery_rollout.mdp import (
    MdpConfig,
    Objective,
    RepairAction,
    RepairModel,
    count_admissible,
    enumerate_actions,
    initial_state,
    is_terminal,
)
from recovery_rollout.planner import (
    TAG_ACTION_SAMPLING,
    TAG_TRAJECTORY,
    PolicyKind,
    PriorityBasePolicy,
    QEstimate,
    RestorationCurve,
    RolloutConfig,
    RolloutMode,
    _best_schedule,
    _continuation_tables,
    _repair_draws,
    base_action,
    episode_damage,
    estimate_q,
    exhaustive_oracle,
    keyed_seed,
    oracle_gap,
    rollout_decision,
    run_episode,
    run_episodes,
    trajectory_return,
)
from recovery_rollout.scenario import load_scenario

import conftest
from conftest import (
    comp,
    damage_for,
    desk_community,
    exact_base_q,
    reference_base_action,
    reference_exhaustive_oracle,
    reference_trajectory_return,
    two_utility_community,
)

C = ComponentClass
D = DamageState
BASE = PriorityBasePolicy()
DATA = Path(recovery_rollout.__file__).parent / "data"


def junk_pair_community():
    """Two damaged distribution segments behind one substation: id 2 is a
    dead end taking 4 days, id 3 feeds the only cell and takes 3.  The
    base policy repairs by ascending id, so it starts with the dead end."""
    components = [
        comp(1, C.SUBSTATION),
        comp(2, C.DISTRIBUTION_SEGMENT,
             days={D.MINOR: 2.0, D.MODERATE: 4.0, D.EXTENSIVE: 5.0,
                   D.COMPLETE: 6.0}),
        comp(3, C.DISTRIBUTION_SEGMENT,
             days={D.MINOR: 1.5, D.MODERATE: 3.0, D.EXTENSIVE: 3.5,
                   D.COMPLETE: 4.0}),
        comp(4, C.WELL),
        comp(5, C.PIPELINE),
    ]
    edges = [(1, 2), (1, 3), (4, 5)]
    cells = [GridCell(id=1, population=900, centroid=(1.0, 0.5),
                      power_feed=3, water_feed=5)]
    retailers = [Retailer(id=1, capacity=90.0, centroid=(1.0, -0.5),
                          power_feed=3, water_feed=5)]
    return Community(components, edges, cells, retailers)


JUNK_DAMAGE = {2: D.MODERATE, 3: D.MODERATE}
JUNK_MDP = MdpConfig(n_e=1, n_w=1, gamma=1.0, alpha=1.0,
                     repair_model=RepairModel.REMAINING_WORK)


def detour_community():
    """Stochastic-mode sibling of the junk pair: the base policy's class
    order sends the electric crew to a 5-day dead-end transmission segment
    while the cell waits on a 1-day distribution repair; water needs a
    2-day pipeline repair either way."""
    components = [
        comp(1, C.SUBSTATION),
        comp(2, C.TRANSMISSION_SEGMENT,
             days={D.MINOR: 2.5, D.MODERATE: 5.0, D.EXTENSIVE: 7.0,
                   D.COMPLETE: 9.0}),
        comp(3, C.WELL),
        comp(4, C.PIPELINE,
             days={D.MINOR: 1.0, D.MODERATE: 2.0, D.EXTENSIVE: 3.0,
                   D.COMPLETE: 4.0}),
        comp(5, C.DISTRIBUTION_SEGMENT),
    ]
    edges = [(1, 2), (1, 5), (3, 4)]
    cells = [GridCell(id=1, population=800, centroid=(1.5, 0.0),
                      power_feed=5, water_feed=4)]
    retailers = [Retailer(id=1, capacity=80.0, centroid=(0.5, 1.0),
                          power_feed=5, water_feed=4)]
    return Community(components, edges, cells, retailers)


DETOUR_DAMAGE = {2: D.MODERATE, 4: D.MODERATE, 5: D.MODERATE}


def detour_mdp(repair_model):
    return MdpConfig(n_e=1, n_w=1, gamma=0.99, alpha=1.0,
                     repair_model=repair_model)


# --- base policy -------------------------------------------------------------


def test_base_prefers_transmission_over_substation():
    community = desk_community()
    config = MdpConfig(n_e=1, n_w=1)
    damage = damage_for(community, {1: D.MINOR, 2: D.MINOR, 3: D.MINOR})
    state = initial_state(community, damage, config)
    action = base_action(state, community, config, BASE)
    assert action.assigned_indices() == (1,)  # transmission id 2


def test_base_breaks_class_ties_by_id():
    community = junk_pair_community()
    config = MdpConfig(n_e=1, n_w=1)
    state = initial_state(community, damage_for(community, JUNK_DAMAGE), config)
    action = base_action(state, community, config, BASE)
    assert action.assigned_indices() == (1,)  # distribution id 2, not 3


def test_base_assigns_everything_when_crews_exceed_damage():
    community = desk_community()
    config = MdpConfig(n_e=4, n_w=3)
    damage = damage_for(
        community, {cid: D.MINOR for cid in (1, 2, 3, 4, 5, 6, 7)}
    )
    state = initial_state(community, damage, config)
    action = base_action(state, community, config, BASE)
    assert action.assigned_indices() == (0, 1, 2, 3, 4, 5, 6)


def test_base_respects_custom_class_order():
    community = desk_community()
    policy = PriorityBasePolicy(
        epn_priority=(C.SUBSTATION, C.TRANSMISSION_SEGMENT,
                      C.DISTRIBUTION_SEGMENT)
    )
    config = MdpConfig(n_e=1, n_w=1)
    damage = damage_for(community, {1: D.MINOR, 2: D.MINOR})
    state = initial_state(community, damage, config)
    action = base_action(state, community, config, policy)
    assert action.assigned_indices() == (0,)  # substation id 1 first now


def test_base_policy_validation():
    with pytest.raises(ValidationError):
        PriorityBasePolicy(epn_priority=(C.SUBSTATION,))
    with pytest.raises(ValidationError):
        PriorityBasePolicy(wn_priority=(C.WELL, C.WELL, C.PUMPING_PLANT,
                                        C.PIPELINE))


def test_base_action_terminal_raises():
    community = two_utility_community()
    config = MdpConfig(n_e=1, n_w=1)
    state = initial_state(community, damage_for(community, {}), config)
    with pytest.raises(TerminalState):
        base_action(state, community, config, BASE)


def _random_damage(rng, n):
    """Damage vector with a random share of components at random levels."""
    damaged = rng.random(n) < rng.random()
    levels = rng.integers(1, 5, size=n)
    return tuple(D(int(lv)) if hit else D.NONE for hit, lv in zip(damaged, levels))


def test_base_action_matches_sorting_reference():
    mini = load_scenario(str(DATA / "mini_gilroy.yaml")).community
    policies = [
        BASE,
        PriorityBasePolicy(
            epn_priority=tuple(reversed(BASE.epn_priority)),
            wn_priority=tuple(reversed(BASE.wn_priority)),
        ),
        PriorityBasePolicy(
            epn_priority=BASE.epn_priority[1:] + BASE.epn_priority[:1],
            wn_priority=BASE.wn_priority[2:] + BASE.wn_priority[:2],
        ),
    ]
    rng = np.random.default_rng(0)
    checked = 0
    for community, policy, n_e, n_w in itertools.product(
        (mini, desk_community()), policies, (1, 2, 3), (1, 2, 3)
    ):
        config = MdpConfig(n_e=n_e, n_w=n_w)
        for _ in range(45):
            damage = _random_damage(rng, community.n_components)
            state = initial_state(community, damage, config)
            if all(d == D.NONE for d in damage):
                with pytest.raises(TerminalState):
                    base_action(state, community, config, policy)
                continue
            assert base_action(state, community, config, policy) == (
                reference_base_action(damage, community, config, policy)
            )
            checked += 1
    assert checked >= 2_000


def test_base_action_keeps_no_state():
    community = load_scenario(str(DATA / "mini_gilroy.yaml")).community
    config = MdpConfig(n_e=2, n_w=2)
    rng = np.random.default_rng(1)
    damages: set[tuple[DamageState, ...]] = set()
    while len(damages) < 1_000:
        damage = _random_damage(rng, community.n_components)
        if any(d != D.NONE for d in damage):
            damages.add(damage)

    def stored_entries() -> int:
        return sum(
            len(value) for value in vars(community).values()
            if isinstance(value, (dict, list, set))
        )

    before = stored_entries()
    for damage in damages:
        base_action(initial_state(community, damage, config), community, config,
                    BASE)
    assert stored_entries() == before


# --- trajectory returns and Q estimates -------------------------------------


def test_trajectory_return_hand_computed():
    community = junk_pair_community()
    state = initial_state(community, damage_for(community, JUNK_DAMAGE), JUNK_MDP)
    junk_first = RepairAction((1,))
    good_first = RepairAction((2,))
    tables = _continuation_tables(state, BASE, JUNK_MDP, community)
    # repairing the dead end first: 4 days, then 3 more for the real feed
    assert trajectory_return(
        state, junk_first, JUNK_MDP, community, None, tables
    ) == pytest.approx(-7.0)
    assert trajectory_return(
        state, good_first, JUNK_MDP, community, None, tables
    ) == pytest.approx(-3.0)


def test_trajectory_return_discounting():
    community = junk_pair_community()
    mdp = MdpConfig(n_e=1, n_w=1, gamma=0.5, alpha=1.0,
                    repair_model=RepairModel.REMAINING_WORK)
    state = initial_state(community, damage_for(community, JUNK_DAMAGE), mdp)
    junk_first = RepairAction((1,))
    # first transition undiscounted, the follow-up step scaled by gamma
    assert trajectory_return(
        state, junk_first, mdp, community, None,
        _continuation_tables(state, BASE, mdp, community),
    ) == pytest.approx(-4.0 + 0.5 * -3.0)


def test_estimate_q_deterministic_single_trajectory():
    community = junk_pair_community()
    state = initial_state(community, damage_for(community, JUNK_DAMAGE), JUNK_MDP)
    est = estimate_q(
        state, RepairAction((2,)), RolloutConfig(), JUNK_MDP, community,
        lambda j: None, _continuation_tables(state, BASE, JUNK_MDP, community),
    )
    assert est == QEstimate(value=-3.0, std_error=0.0, n_trajectories=1,
                            returns=(-3.0,))


def _table_draws(community, root_seed=0, decision=0):
    tables = {}

    def draws_for_trajectory(j):
        if j not in tables:
            tables[j] = _repair_draws(
                community.n_components, root_seed, TAG_TRAJECTORY, decision, j
            )
        return tables[j].copy()

    return draws_for_trajectory


def test_estimate_q_adaptive_batching():
    community = detour_community()
    mdp = detour_mdp(RepairModel.EXPONENTIAL)
    state = initial_state(community, damage_for(community, DETOUR_DAMAGE), mdp)
    action = RepairAction((3, 4))
    tables = _continuation_tables(state, BASE, mdp, community)

    tight = RolloutConfig(n_mc_min=8, n_mc_max=64, se_threshold=1e-6)
    est = estimate_q(state, action, tight, mdp, community,
                     _table_draws(community), tables)
    assert est.n_trajectories == 64
    assert len(est.returns) == 64
    assert est.value == pytest.approx(float(np.mean(est.returns)))

    loose = RolloutConfig(n_mc_min=8, n_mc_max=64, se_threshold=1e9)
    est = estimate_q(state, action, loose, mdp, community,
                     _table_draws(community), tables)
    assert est.n_trajectories == 8
    assert est.std_error < 1e9


def test_worst_case_value_is_minimum_return():
    community = detour_community()
    mdp = detour_mdp(RepairModel.EXPONENTIAL)
    state = initial_state(community, damage_for(community, DETOUR_DAMAGE), mdp)
    action = RepairAction((3, 4))
    config = RolloutConfig(n_mc_min=16, n_mc_max=16, se_threshold=1e9,
                           mode=RolloutMode.WORST_CASE)
    tables = _continuation_tables(state, BASE, mdp, community)
    worst = estimate_q(state, action, config, mdp, community,
                       _table_draws(community, root_seed=3), tables)
    mean_cfg = RolloutConfig(n_mc_min=16, n_mc_max=16, se_threshold=1e9)
    mean = estimate_q(state, action, mean_cfg, mdp, community,
                      _table_draws(community, root_seed=3), tables)
    assert worst.returns == mean.returns  # shared tables, same trajectories
    assert worst.value == pytest.approx(min(worst.returns))
    assert worst.value <= mean.value + 1e-12


def test_estimate_q_replays_shared_draws():
    """Each trajectory starts from a copy of its table, so estimating the
    same action twice through one draws_for_trajectory replays the same
    returns."""
    community = detour_community()
    mdp = detour_mdp(RepairModel.EXPONENTIAL)
    state = initial_state(community, damage_for(community, DETOUR_DAMAGE), mdp)
    action = RepairAction((3, 4))
    config = RolloutConfig(n_mc_min=16, n_mc_max=16, se_threshold=1e9)
    draws = _table_draws(community, root_seed=8)
    tables = _continuation_tables(state, BASE, mdp, community)
    first = estimate_q(state, action, config, mdp, community, draws, tables)
    second = estimate_q(state, action, config, mdp, community, draws, tables)
    assert first.returns == second.returns
    assert len(set(first.returns)) > 1


def test_estimates_lie_near_the_exact_base_chain():
    """Every candidate scored in mini_gilroy's first decisions of episodes
    0-5 has a Monte-Carlo Q within 3 standard errors of the exact chain's.
    Under common random numbers the candidates of one decision share most
    of their error, so the z values of a decision are not independent."""
    scenario = load_scenario(str(DATA / "mini_gilroy.yaml"))
    community, mdp = scenario.community, scenario.mdp
    scored = 0
    for ep in range(6):
        state = initial_state(
            community, episode_damage(community, scenario.hazards, 7, ep), mdp
        )
        _, record = rollout_decision(
            state, scenario.base_policy, scenario.rollout, mdp, community,
            root_seed=7, decision_index=ep * 10_000,
        )
        for action, est in record.estimates:
            exact = exact_base_q(
                state, action, scenario.base_policy, mdp, community
            )
            assert abs(est.value - exact) <= 3.0 * est.std_error, (ep, action)
            scored += 1
    assert scored >= 200


@pytest.mark.parametrize("crews", [(1, 1), (2, 2)])
@pytest.mark.parametrize("objective", list(Objective))
def test_trajectory_return_matches_step_by_step_reference(objective, crews):
    """The mask engine behind trajectory_return against the loop over
    transition, base_action and is_terminal: every candidate of the first
    decision of mini_gilroy episodes 0-5, on 64 noise tables each, gives
    the same return and leaves the same draws, exactly."""
    scenario = load_scenario(str(DATA / "mini_gilroy.yaml"))
    community = scenario.community
    mdp = MdpConfig(n_e=crews[0], n_w=crews[1], objective=objective)
    n_tables = 64
    config = RolloutConfig(n_mc_min=n_tables, n_mc_max=n_tables,
                           se_threshold=1e-9)
    for episode in range(6):
        damage = episode_damage(community, scenario.hazards, scenario.seed,
                                episode)
        state = initial_state(community, damage, mdp)
        decision = episode * 10_000
        candidates = enumerate_actions(
            state, community, mdp, cap=scenario.rollout.action_cap,
            rng=np.random.default_rng(
                keyed_seed(scenario.seed, TAG_ACTION_SAMPLING, decision)
            ),
            must_include=base_action(state, community, mdp, BASE),
        )
        draws_for = _table_draws(community, scenario.seed, decision)
        tables = _continuation_tables(state, BASE, mdp, community)
        for action in candidates:
            expected = []
            for j in range(n_tables):
                draws, ref_draws = draws_for(j), draws_for(j)
                got = trajectory_return(state, action, mdp, community, draws,
                                        tables)
                want = reference_trajectory_return(
                    state, action, BASE, mdp, community, ref_draws
                )
                assert got == want, (episode, action, j)
                assert draws == ref_draws, (episode, action, j)
                expected.append(want)
            est = estimate_q(state, action, config, mdp, community,
                             draws_for, tables)
            assert est.returns == tuple(expected)


@pytest.mark.parametrize("water_ids_first", [False, True])
def test_trajectory_return_finishes_exact_ties_together(water_ids_first):
    """Equal repair means and equal draws make every step a tie; the
    continuation repairs every finisher in one step as transition does,
    whichever network the base policy lists first, and leaves the same
    draws behind."""
    one_day = dict.fromkeys((D.MINOR, D.MODERATE, D.EXTENSIVE, D.COMPLETE), 1.0)
    epn_ids, wn_ids = ((3, 4), (1, 2)) if water_ids_first else ((1, 2), (3, 4))
    community = Community(
        [comp(epn_ids[0], C.SUBSTATION, one_day),
         comp(epn_ids[1], C.DISTRIBUTION_SEGMENT, one_day),
         comp(wn_ids[0], C.WELL, one_day),
         comp(wn_ids[1], C.PIPELINE, one_day)],
        [epn_ids, wn_ids],
        [GridCell(id=1, population=100, centroid=(1.0, 0.0),
                  power_feed=epn_ids[1], water_feed=wn_ids[1])],
        [Retailer(id=1, capacity=10.0, centroid=(0.0, 1.0),
                  power_feed=epn_ids[1], water_feed=wn_ids[1])],
    )
    mdp = MdpConfig(n_e=1, n_w=1, objective=Objective.MAX_BENEFIT_RATE)
    state = initial_state(community, (D.MINOR,) * 4, mdp)
    # force the two low-priority components first, then base takes over
    first = RepairAction(tuple(sorted(
        community.index_of[c] for c in (epn_ids[1], wn_ids[1])
    )))
    draws, ref_draws = [1.0] * 4, [1.0] * 4
    assert trajectory_return(
        state, first, mdp, community, draws,
        _continuation_tables(state, BASE, mdp, community),
    ) == reference_trajectory_return(
        state, first, BASE, mdp, community, ref_draws
    )
    assert draws == ref_draws



@pytest.mark.parametrize("crews", [(1, 1), (2, 1)])
@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("source", ["oracle_demo", "desk_community"])
def test_remaining_work_trajectory_return_matches_step_by_step_reference(
    source, objective, crews, monkeypatch
):
    """Under remaining work the continuation runs on a copy of the next
    state's remaining work: every first action of 40 random damage
    vectors gives exactly the return of the loop over base_action and
    transition, and some later step finishes two components together."""
    scenario = load_scenario(str(DATA / "oracle_demo.yaml"))
    community = (
        scenario.community if source == "oracle_demo" else desk_community()
    )
    mdp = replace(scenario.mdp, objective=objective, n_e=crews[0], n_w=crews[1])
    real_transition = conftest.transition
    repaired_per_step: list[int] = []

    def counting_transition(state, action, *args):
        nxt, r = real_transition(state, action, *args)
        repaired_per_step.append(
            sum(1 for i in action.indices if not nxt.damage[i])
        )
        return nxt, r

    monkeypatch.setattr(conftest, "transition", counting_transition)
    rng = np.random.default_rng(29)
    joint_finishes = 0
    for _ in range(40):
        state = initial_state(
            community, _random_damage(rng, community.n_components), mdp
        )
        if is_terminal(state, community, mdp):
            continue
        tables = _continuation_tables(state, BASE, mdp, community)
        for action in enumerate_actions(state, community, mdp):
            repaired_per_step.clear()
            want = reference_trajectory_return(
                state, action, BASE, mdp, community, None
            )
            got = trajectory_return(state, action, mdp, community, None,
                                    tables)
            assert got == want, (state.damage, action)
            joint_finishes += any(n > 1 for n in repaired_per_step[1:])
    assert joint_finishes


@pytest.mark.parametrize("repair_model", list(RepairModel))
@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("source", ["oracle_demo", "desk_community",
                                    "mini_gilroy"])
def test_one_set_of_tables_serves_the_whole_decision(
    source, objective, repair_model
):
    """rollout_decision builds one _continuation_tables per decision, picks
    memo included, and every candidate and trajectory index runs on it.
    Visited here in shuffled order, each return equals the step-by-step
    reference and leaves the same draws, exactly.  Crew counts change from
    decision to decision on one community, and on mini_gilroy a cap of 12
    makes enumerate_actions sample."""
    if source == "desk_community":
        community = desk_community()
    else:
        community = load_scenario(str(DATA / f"{source}.yaml")).community
    stochastic = repair_model is RepairModel.EXPONENTIAL
    n_tables = 8 if stochastic else 1
    cap = 12 if source == "mini_gilroy" else 500
    rng = np.random.default_rng(30)
    # the same four non-terminal damage vectors for every crew count
    mdp = MdpConfig(n_e=1, n_w=1, objective=objective,
                    repair_model=repair_model)
    states = []
    while len(states) < 4:
        state = initial_state(
            community, _random_damage(rng, community.n_components), mdp
        )
        if not is_terminal(state, community, mdp):
            states.append(state)
    sampled = 0
    for crews in ((1, 1), (2, 1), (2, 2)):
        mdp = MdpConfig(n_e=crews[0], n_w=crews[1], objective=objective,
                        repair_model=repair_model)
        for decision, state in enumerate(states):
            candidates = enumerate_actions(
                state, community, mdp, cap=cap,
                rng=np.random.default_rng(decision),
                must_include=base_action(state, community, mdp, BASE),
            )
            sampled += len(candidates) < len(
                enumerate_actions(state, community, mdp, cap=10**6)
            )
            tables = _continuation_tables(state, BASE, mdp, community)
            jobs = [(a, j) for a in candidates for j in range(n_tables)]
            for k in rng.permutation(len(jobs)):
                action, j = jobs[k]
                draws = ref_draws = None
                if stochastic:
                    draws = _repair_draws(community.n_components, 30,
                                          TAG_TRAJECTORY, decision, j)
                    ref_draws = draws.copy()
                got = trajectory_return(state, action, mdp, community, draws,
                                        tables)
                want = reference_trajectory_return(
                    state, action, BASE, mdp, community, ref_draws
                )
                assert got == want, (crews, state.damage, action, j)
                assert draws == ref_draws, (crews, state.damage, action, j)
    assert sampled if source == "mini_gilroy" else not sampled


def test_rollout_config_validation():
    with pytest.raises(ValidationError):
        RolloutConfig(n_mc_min=0)
    with pytest.raises(ValidationError):
        RolloutConfig(n_mc_min=32, n_mc_max=8)
    with pytest.raises(ValidationError):
        RolloutConfig(se_threshold=0.0)


# --- rollout decisions -------------------------------------------------------


def test_rollout_overrides_base_on_deterministic_instance():
    community = junk_pair_community()
    state = initial_state(community, damage_for(community, JUNK_DAMAGE), JUNK_MDP)
    action, record = rollout_decision(
        state, BASE, RolloutConfig(), JUNK_MDP, community, root_seed=0
    )
    assert action.assigned_indices() == (2,)  # the real feed, not the dead end
    assert len(record.estimates) == 2
    by_action = {a.assigned_indices(): est for a, est in record.estimates}
    assert by_action[(2,)].value == pytest.approx(-3.0)
    assert by_action[(1,)].value == pytest.approx(-7.0)


def test_rollout_single_candidate_short_circuits():
    community = two_utility_community()
    mdp = MdpConfig(n_e=1, n_w=1)
    state = initial_state(community, damage_for(community, {1: D.MINOR}), mdp)
    action, record = rollout_decision(
        state, BASE, RolloutConfig(), mdp, community, root_seed=0
    )
    assert action.assigned_indices() == (0,)
    assert record.estimates == ()
    assert record.chosen == action


def test_rollout_decision_deterministic_given_seed():
    community = detour_community()
    mdp = detour_mdp(RepairModel.EXPONENTIAL)
    state = initial_state(community, damage_for(community, DETOUR_DAMAGE), mdp)
    config = RolloutConfig(n_mc_min=16, n_mc_max=32, se_threshold=0.5)
    first = rollout_decision(state, BASE, config, mdp, community,
                             root_seed=11, decision_index=3)
    second = rollout_decision(state, BASE, config, mdp, community,
                              root_seed=11, decision_index=3)
    assert first == second


@pytest.mark.parametrize("action_cap", [64, 8])
def test_scored_candidates_hold_the_base_action(action_cap, monkeypatch):
    """rollout_decision looks the base action's estimate up among the
    scored candidates.  On mini_gilroy episodes 0-1 every decision with
    estimates holds it, under the scenario's cap of 64, which enumerates
    every admissible action, and under a cap of 8, which samples."""
    scenario = load_scenario(str(DATA / "mini_gilroy.yaml"))
    community, mdp = scenario.community, scenario.mdp
    assert scenario.rollout.action_cap == 64
    config = replace(scenario.rollout, n_mc_min=8, n_mc_max=8,
                     action_cap=action_cap)
    real_decision = planner_module.rollout_decision
    decisions = []

    def recording_decision(state, *args, **kwargs):
        action, record = real_decision(state, *args, **kwargs)
        decisions.append((state, record))
        return action, record

    monkeypatch.setattr(planner_module, "rollout_decision", recording_decision)
    for ep in range(2):
        run_episode(
            PolicyKind.ROLLOUT,
            episode_damage(community, scenario.hazards, scenario.seed, ep),
            community, mdp, config, scenario.base_policy,
            root_seed=scenario.seed, episode_index=ep,
        )
    scored = sampled = 0
    for state, record in decisions:
        if not record.estimates:
            continue
        scored += 1
        sampled += len(record.estimates) < count_admissible(
            state, community, mdp
        )
        base = base_action(state, community, mdp, scenario.base_policy)
        assert base in dict(record.estimates), (state.damage, record.index)
    assert scored
    assert sampled if action_cap == 8 else not sampled


def test_rollout_beats_base_detour_on_most_seeds():
    """The lookahead must reroute the electric crew away from the dead end
    under Monte-Carlo noise for nearly every root seed, and its choice must
    match the exact schedule oracle on the deterministic twin."""
    community = detour_community()
    det = detour_mdp(RepairModel.REMAINING_WORK)
    damage = damage_for(community, DETOUR_DAMAGE)
    oracle_value, oracle_first = exhaustive_oracle(damage, community, det)
    assert oracle_value == pytest.approx(2.0)
    assert oracle_first.assigned_indices() == (3, 4)

    mdp = detour_mdp(RepairModel.EXPONENTIAL)
    state = initial_state(community, damage, mdp)
    config = RolloutConfig(n_mc_min=24, n_mc_max=48, se_threshold=0.5)
    hits = 0
    for root_seed in range(100):
        action, _ = rollout_decision(state, BASE, config, mdp, community,
                                     root_seed=root_seed)
        hits += action == oracle_first
    assert hits >= 95


def test_rollout_keeps_base_when_evidence_is_flat():
    """Two interchangeable dead ends: every candidate has the same value, so
    the decision must stick with the base action rather than chase noise."""
    components = [
        comp(1, C.SUBSTATION),
        comp(2, C.DISTRIBUTION_SEGMENT),
        comp(3, C.DISTRIBUTION_SEGMENT),
        comp(4, C.DISTRIBUTION_SEGMENT),
        comp(5, C.WELL),
        comp(6, C.PIPELINE),
    ]
    edges = [(1, 2), (1, 3), (1, 4), (5, 6)]
    cells = [GridCell(id=1, population=400, centroid=(1.0, 0.0),
                      power_feed=2, water_feed=6)]
    retailers = [Retailer(id=1, capacity=40.0, centroid=(0.0, 1.0),
                          power_feed=2, water_feed=6)]
    community = Community(components, edges, cells, retailers)
    mdp = MdpConfig(n_e=1, n_w=1, alpha=1.0)
    # identical dead ends 3 and 4; the cell feed 2 is already healthy
    state = initial_state(
        community, damage_for(community, {3: D.MODERATE, 4: D.MODERATE}), mdp
    )
    config = RolloutConfig(n_mc_min=16, n_mc_max=32, se_threshold=0.5)
    base = base_action(state, community, mdp, BASE)
    for root_seed in range(20):
        action, _ = rollout_decision(state, BASE, config, mdp, community,
                                     root_seed=root_seed)
        assert action == base


# --- restoration curves ------------------------------------------------------


def test_curve_arithmetic():
    curve = RestorationCurve(points=(
        (0.0, 0.0, 0.2, 0.5),
        (2.0, 100.0, 0.6, 0.5),
        (5.0, 300.0, 1.0, 1.0),
    ))
    assert curve.total_time == 5.0
    assert curve.area() == pytest.approx(0.0 * 2.0 + 100.0 * 3.0)
    assert curve.benefit_rate() == pytest.approx(300.0 / 5.0)


def test_curve_times_must_increase():
    with pytest.raises(ValidationError):
        RestorationCurve(points=((0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)))


def test_zero_length_curve_rate_is_initial_benefit():
    curve = RestorationCurve(points=((0.0, 250.0, 1.0, 1.0),))
    assert curve.total_time == 0.0
    assert curve.benefit_rate() == 250.0


# --- episodes ----------------------------------------------------------------


def test_episode_zero_damage():
    community = two_utility_community()
    mdp = MdpConfig(n_e=1, n_w=1, objective=Objective.MAX_BENEFIT_RATE)
    result = run_episode(
        PolicyKind.BASE, damage_for(community, {}), community, mdp,
        RolloutConfig(), BASE, root_seed=0,
    )
    assert result.total_time == 0.0
    assert result.steps == ()
    assert result.retailer_recovery == (0.0,)
    assert result.metric(Objective.MAX_BENEFIT_RATE) == pytest.approx(1000.0)


def test_episode_deterministic_base_hand_checked():
    community = two_utility_community()
    mdp = MdpConfig(n_e=1, n_w=1, alpha=1.0,
                    repair_model=RepairModel.REMAINING_WORK)
    # substation 3 days, well 1.5 days, one crew each working in parallel
    damage = damage_for(community, {1: D.MODERATE, 3: D.MODERATE})
    result = run_episode(
        PolicyKind.BASE, damage, community, mdp, RolloutConfig(), BASE,
        root_seed=0,
    )
    assert result.total_time == pytest.approx(3.0)
    assert [s.repaired for s in result.steps] == [(3,), (1,)]
    assert [s.time_days for s in result.steps] == pytest.approx([1.5, 3.0])
    times = [p[0] for p in result.curve.points]
    benefits = [p[1] for p in result.curve.points]
    assert times == pytest.approx([0.0, 1.5, 3.0])
    assert benefits == pytest.approx([0.0, 0.0, 1000.0])
    assert result.retailer_recovery == (pytest.approx(3.0),)


def test_episode_step_lists_simultaneous_finishers_ascending():
    # declared out of id order; the community sorts components by id
    components = [
        comp(5, C.PIPELINE),
        comp(4, C.PIPELINE),
        comp(3, C.WELL),
        comp(2, C.DISTRIBUTION_SEGMENT),
        comp(1, C.SUBSTATION),
    ]
    edges = [(1, 2), (3, 4), (4, 5)]
    cells = [GridCell(id=1, population=100, centroid=(1.0, 0.0),
                      power_feed=2, water_feed=5)]
    retailers = [Retailer(id=1, capacity=10.0, centroid=(0.0, 1.0),
                          power_feed=2, water_feed=5)]
    community = Community(components, edges, cells, retailers)
    mdp = MdpConfig(n_e=1, n_w=2, objective=Objective.MAX_BENEFIT_RATE,
                    repair_model=RepairModel.REMAINING_WORK)
    # both pipelines MODERATE: equal 1.0-day workloads finish together
    damage = damage_for(community, {4: D.MODERATE, 5: D.MODERATE})
    result = run_episode(
        PolicyKind.BASE, damage, community, mdp, RolloutConfig(), BASE,
        root_seed=0,
    )
    assert len(result.steps) == 1
    assert result.steps[0].assigned == (4, 5)
    assert result.steps[0].repaired == (4, 5)
    assert result.steps[0].time_days == pytest.approx(1.0, abs=1e-12)


def test_episode_stops_at_coverage_threshold():
    community = junk_pair_community()
    mdp = MdpConfig(n_e=1, n_w=1, alpha=0.8,
                    repair_model=RepairModel.REMAINING_WORK)
    # only the dead end is damaged; coverage already sits at 1.0 >= alpha
    damage = damage_for(community, {2: D.MODERATE})
    result = run_episode(
        PolicyKind.BASE, damage, community, mdp, RolloutConfig(), BASE,
        root_seed=0,
    )
    assert result.total_time == 0.0
    assert result.steps == ()


def short_full_service_community(dead_end: bool = False) -> Community:
    """substation 1 -> distribution 2 and well 3 -> pipeline 4 feed one
    cell of 1000 and three retailers whose gravity weights sum to one ulp
    below 1, so full service covers 999.9999999999999 people.  With
    dead_end, distribution 5 hangs off the substation and serves nobody."""
    components = [
        comp(1, C.SUBSTATION),
        comp(2, C.DISTRIBUTION_SEGMENT),
        comp(3, C.WELL),
        comp(4, C.PIPELINE),
    ]
    edges = [(1, 2), (3, 4)]
    if dead_end:
        components.append(comp(5, C.DISTRIBUTION_SEGMENT))
        edges.append((1, 5))
    cells = [GridCell(id=1, population=1000, centroid=(0.0, 0.0),
                      power_feed=2, water_feed=4)]
    retailers = [
        Retailer(id=i, capacity=10.0, centroid=xy, power_feed=2, water_feed=4)
        for i, xy in enumerate([(1.0, 1.0), (2.0, 1.0), (1.0, 1.0)], start=1)
    ]
    return Community(components, edges, cells, retailers)


SHORT_DAMAGE = {1: D.MODERATE, 3: D.MINOR}


@pytest.mark.parametrize("repair_model", list(RepairModel))
@pytest.mark.parametrize("policy", list(PolicyKind))
def test_full_alpha_is_met_at_full_service(policy, repair_model):
    # alpha = 1 is reached when everything is repaired, even though
    # rounding leaves the covered fraction one ulp below 1
    community = short_full_service_community()
    mdp = MdpConfig(n_e=1, n_w=1, alpha=1.0, repair_model=repair_model)
    result = run_episode(
        policy, damage_for(community, SHORT_DAMAGE), community, mdp,
        RolloutConfig(n_mc_min=4, n_mc_max=4), BASE, root_seed=0,
    )
    assert sorted(i for s in result.steps for i in s.repaired) == [1, 3]
    assert result.curve.points[-1][1] < community.total_population


def test_oracle_meets_full_alpha_at_full_service():
    community = short_full_service_community()
    mdp = MdpConfig(n_e=1, n_w=1, alpha=1.0,
                    repair_model=RepairModel.REMAINING_WORK)
    value, _ = exhaustive_oracle(
        damage_for(community, SHORT_DAMAGE), community, mdp
    )
    assert value == 3.0


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_full_alpha_leaves_a_dead_end_damaged(policy):
    community = short_full_service_community(dead_end=True)
    mdp = MdpConfig(n_e=1, n_w=1, alpha=1.0,
                    repair_model=RepairModel.REMAINING_WORK)
    damage = damage_for(community, {**SHORT_DAMAGE, 5: D.COMPLETE})
    result = run_episode(
        policy, damage, community, mdp, RolloutConfig(), BASE, root_seed=0,
    )
    assert result.total_time == 3.0
    assert all(5 not in s.assigned for s in result.steps)


def test_rollout_episode_beats_base_on_junk_pair():
    community = junk_pair_community()
    damage = damage_for(community, JUNK_DAMAGE)
    base_run = run_episode(
        PolicyKind.BASE, damage, community, JUNK_MDP, RolloutConfig(), BASE,
        root_seed=0,
    )
    rollout_run = run_episode(
        PolicyKind.ROLLOUT, damage, community, JUNK_MDP, RolloutConfig(), BASE,
        root_seed=0,
    )
    assert base_run.total_time == pytest.approx(7.0)
    assert rollout_run.total_time == pytest.approx(3.0)
    assert rollout_run.decisions  # audit trail recorded
    assert rollout_run.decisions[0].chosen.assigned_indices() == (2,)


def test_episode_decision_indices_key_episode_and_step():
    community = junk_pair_community()
    damage = damage_for(community, JUNK_DAMAGE)
    mdp = MdpConfig(n_e=1, n_w=1, gamma=1.0,
                    objective=Objective.MAX_BENEFIT_RATE,
                    repair_model=RepairModel.REMAINING_WORK)
    result = run_episode(
        PolicyKind.ROLLOUT, damage, community, mdp, RolloutConfig(), BASE,
        root_seed=0, episode_index=3,
    )
    assert [d.index for d in result.decisions] == [30_000, 30_001]


# --- episode driver ----------------------------------------------------------


def test_run_episodes_deterministic_hazard():
    community = detour_community()
    mdp = detour_mdp(RepairModel.REMAINING_WORK)
    hazards = {cid: ComponentHazard(fixed=D.NONE) for cid in (1, 3)}
    hazards.update({
        2: ComponentHazard(fixed=D.MODERATE),
        4: ComponentHazard(fixed=D.MODERATE),
        5: ComponentHazard(fixed=D.MODERATE),
    })
    results = run_episodes(
        PolicyKind.ROLLOUT, community, hazards, mdp, RolloutConfig(), BASE,
        n_episodes=3, root_seed=5,
    )
    metrics = [res.metric(mdp.objective) for res in results]
    assert metrics == pytest.approx([2.0, 2.0, 2.0])
    assert np.mean(metrics) == pytest.approx(2.0)
    assert np.std(metrics, ddof=1) == 0.0

    base_results = run_episodes(
        PolicyKind.BASE, community, hazards, mdp, RolloutConfig(), BASE,
        n_episodes=3, root_seed=5,
    )
    assert np.mean([res.metric(mdp.objective) for res in base_results]) == (
        pytest.approx(6.0)
    )


def test_oracle_gap_positive_when_worse_under_both_objectives():
    time_obj = Objective.MIN_TIME_TO_COVERAGE
    rate_obj = Objective.MAX_BENEFIT_RATE
    # 10% slower than the optimum, or 10% fewer persons per day
    assert oracle_gap(11.0, 10.0, time_obj) == pytest.approx(0.1)
    assert oracle_gap(900.0, 1000.0, rate_obj) == pytest.approx(0.1)
    assert oracle_gap(10.0, 10.0, time_obj) == 0.0
    assert oracle_gap(1000.0, 1000.0, rate_obj) == 0.0
    assert oracle_gap(5.0, 0.0, time_obj) == 0.0


# --- exhaustive schedule oracle ---------------------------------------------


def test_oracle_single_component():
    community = two_utility_community()
    mdp = MdpConfig(n_e=1, n_w=1, alpha=1.0,
                    repair_model=RepairModel.REMAINING_WORK)
    value, first = exhaustive_oracle(
        damage_for(community, {1: D.MODERATE}), community, mdp
    )
    assert value == pytest.approx(3.0)
    assert first.assigned_indices() == (0,)


def test_oracle_skips_dead_end():
    community = junk_pair_community()
    value, first = exhaustive_oracle(
        damage_for(community, JUNK_DAMAGE), community, JUNK_MDP
    )
    assert value == pytest.approx(3.0)
    assert first.assigned_indices() == (2,)


def test_oracle_never_beaten_by_base():
    community = detour_community()
    mdp = detour_mdp(RepairModel.REMAINING_WORK)
    damage = damage_for(community, DETOUR_DAMAGE)
    value, _ = exhaustive_oracle(damage, community, mdp)
    base_run = run_episode(
        PolicyKind.BASE, damage, community, mdp, RolloutConfig(), BASE,
        root_seed=0,
    )
    assert base_run.total_time == pytest.approx(6.0)
    assert value <= base_run.total_time + 1e-12


def test_oracle_rejects_stochastic_model():
    community = two_utility_community()
    with pytest.raises(ValidationError):
        exhaustive_oracle(
            damage_for(community, {1: D.MINOR}), community,
            MdpConfig(n_e=1, n_w=1),
        )


def test_oracle_guards_instance_size(monkeypatch):
    """A damaged substation and eight damaged segments behind it: with two
    electric crews the damaged-count guard refuses them; with one crew per
    network it does not apply, and the instance solves unless its nine
    crew assignments exceed the action bound."""
    components = [comp(1, C.SUBSTATION)]
    edges = []
    for cid in range(2, 10):
        components.append(comp(cid, C.DISTRIBUTION_SEGMENT))
        edges.append((1, cid))
    components += [comp(10, C.WELL), comp(11, C.PIPELINE)]
    edges.append((10, 11))
    cells = [GridCell(id=1, population=100, centroid=(1.0, 0.0),
                      power_feed=2, water_feed=11)]
    retailers = [Retailer(id=1, capacity=10.0, centroid=(0.0, 1.0),
                          power_feed=2, water_feed=11)]
    community = Community(components, edges, cells, retailers)
    mdp = MdpConfig(n_e=2, n_w=1, alpha=1.0,
                    repair_model=RepairModel.REMAINING_WORK)
    damage = damage_for(community, {cid: D.MINOR for cid in range(1, 10)})
    with pytest.raises(InstanceTooLarge, match="9 damaged components"):
        exhaustive_oracle(damage, community, mdp)
    # the substation (1 day) and the cell's feed, segment 2 (0.5 days),
    # in either order; the tie goes to the larger index
    value, first = exhaustive_oracle(damage, community, replace(mdp, n_e=1))
    assert value == pytest.approx(1.5)
    assert first.assigned_indices() == (1,)
    monkeypatch.setattr(planner_module, "_ORACLE_MAX_ACTIONS", 8)
    with pytest.raises(InstanceTooLarge, match="9 crew assignments"):
        exhaustive_oracle(damage, community, replace(mdp, n_e=1))


def test_oracle_guards_state_count(monkeypatch):
    community = desk_community()
    mdp = MdpConfig(n_e=1, n_w=1, alpha=1.0,
                    repair_model=RepairModel.REMAINING_WORK)
    damage = damage_for(community, {cid: D.MODERATE for cid in range(1, 8)})
    monkeypatch.setattr(planner_module, "_ORACLE_MAX_STATES", 3)
    with pytest.raises(InstanceTooLarge, match="remaining-work states"):
        exhaustive_oracle(damage, community, mdp)


@pytest.mark.parametrize("objective, lam", [
    (Objective.MIN_TIME_TO_COVERAGE, 0.0),
    (Objective.MAX_BENEFIT_RATE, 20_000.0),  # near episode 0's optimal rate
])
def test_oracle_memo_value_depends_only_on_its_key(objective, lam):
    """The DP's memo is keyed by remaining work alone, so shifting the
    start's elapsed time must leave every stored value and action bit for
    bit as it was (mini_gilroy episode 0: 1,240 states)."""
    scenario = load_scenario(str(DATA / "mini_gilroy.yaml"))
    community = scenario.community
    mdp = replace(scenario.mdp, objective=objective,
                  repair_model=RepairModel.REMAINING_WORK)
    damage = episode_damage(community, scenario.hazards, scenario.seed, 0)
    start = initial_state(community, damage, mdp)
    memo = _best_schedule(start, community, mdp, lam)
    shifted = replace(start, elapsed_time=1234.567)
    assert _best_schedule(shifted, community, mdp, lam) == memo


# episode -> (repr of the value, first action) on mini_gilroy (seed 7),
# taken from a DP that stepped through mdp.transition itself
PINNED_ORACLE = {
    Objective.MIN_TIME_TO_COVERAGE: {
        0: ("13.2", (9, 19)),
        3: ("6.5", (11, 18)),
        4: ("9.5", (11, 18)),
        7: ("7.1", (8, 18)),
        12: ("5.8999999999999995", (7, 18)),
        18: ("9.0", (9, 17)),
        26: ("2.3", (4, 19)),
    },
    Objective.MAX_BENEFIT_RATE: {
        0: ("22359.711262518318", (9, 17)),
        3: ("16355.664230421038", (10, 17)),
        4: ("10592.218265486257", (10, 18)),
        7: ("8779.1404153571", (7, 17)),
        12: ("21319.28135029177", (5, 15)),
        18: ("18918.423120806077", (1, 17)),
        26: ("38681.27566100329", (0, 18)),
    },
}


@pytest.mark.parametrize("objective", list(Objective))
def test_oracle_values_pinned_bit_for_bit(objective):
    """The DP's step is a copy of transition's arithmetic, so its values
    and first actions on seven mini_gilroy episodes are pinned to the
    last bit."""
    scenario = load_scenario(str(DATA / "mini_gilroy.yaml"))
    community = scenario.community
    mdp = replace(scenario.mdp, objective=objective,
                  repair_model=RepairModel.REMAINING_WORK)
    for ep, pinned in PINNED_ORACLE[objective].items():
        damage = episode_damage(community, scenario.hazards, scenario.seed, ep)
        value, first = exhaustive_oracle(damage, community, mdp)
        assert (repr(value), first.indices) == pinned, ep


@pytest.mark.parametrize("crews", [(1, 1), (2, 1)])
@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("source", ["oracle_demo", "desk_community"])
def test_oracle_matches_reference_search(source, objective, crews, monkeypatch):
    """26 random instances per case, 1-7 damaged: the DP's value is the
    depth-first search's optimum over every preemptive schedule, the
    search's best schedule that starts with the DP's first action is
    optimal too, and under the rate objective no rollout episode reads
    above the DP's value.  Read from the DP's own memos: with one crew per
    network no key holds more started components (0 < remaining work <
    its work at the start) in a network than it has crews, and no stored
    action drops a started component; with two electric crews both
    happen."""
    scenario = load_scenario(str(DATA / "oracle_demo.yaml"))
    community = (
        scenario.community if source == "oracle_demo" else desk_community()
    )
    mdp = replace(scenario.mdp, objective=objective, n_e=crews[0], n_w=crews[1])
    memos = []
    real_best_schedule = planner_module._best_schedule

    def recording_best_schedule(start, *args):
        memo = real_best_schedule(start, *args)
        memos.append((start.remaining_work, memo))
        return memo

    monkeypatch.setattr(planner_module, "_best_schedule", recording_best_schedule)
    networks = (
        (set(community.epn_indices), mdp.n_e), (set(community.wn_indices), mdp.n_w)
    )
    ids = [c.id for c in community.components]
    rng = np.random.default_rng(25)
    crowded = dropped = 0
    for i in range(26):
        while True:
            chosen = rng.choice(ids, size=1 + i % 7, replace=False)
            damage = damage_for(
                community, {int(c): D(int(rng.integers(1, 5))) for c in chosen}
            )
            start = initial_state(community, damage, mdp)
            if not is_terminal(start, community, mdp):
                break
        memos.clear()
        value, first = exhaustive_oracle(damage, community, mdp)
        for full_work, memo in memos:
            for key, (_, action) in memo.items():
                started = {
                    j for j, (w, w0) in enumerate(zip(key, full_work))
                    if 0.0 < w < w0
                }
                crowded += any(
                    len(started & members) > crews_in
                    for members, crews_in in networks
                )
                if action is not None:
                    dropped += not started.issubset(action.indices)
        optimum, _ = reference_exhaustive_oracle(damage, community, mdp)
        assert value == pytest.approx(optimum, rel=1e-12, abs=0.0), i
        via_first, _ = reference_exhaustive_oracle(
            damage, community, mdp, first=first
        )
        assert via_first == pytest.approx(optimum, rel=1e-12, abs=0.0), i
        if objective is Objective.MAX_BENEFIT_RATE:
            result = run_episode(
                PolicyKind.ROLLOUT, damage, community, mdp, scenario.rollout,
                scenario.base_policy, root_seed=i,
            )
            assert result.metric(objective) <= value, i
    # the two-crew DP also reaches and picks schedules that preempt
    assert (crowded == 0) == (crews == (1, 1))
    assert (dropped == 0) == (crews == (1, 1))


def test_two_crew_oracle_preempts():
    """oracle_demo, two electric crews: coverage 0.8 needs every damaged
    component.  Without preemption the electric jobs (1, 2, 1 and 1 days)
    take 3 days; with it 2.5, as the pipeline's completion at 0.5 days
    lets crews rotate.  So the one-crew filter must not apply here."""
    scenario = load_scenario(str(DATA / "oracle_demo.yaml"))
    community = scenario.community
    mdp = replace(scenario.mdp, n_e=2)
    damage = damage_for(community, {1: D.MINOR, 2: D.COMPLETE, 3: D.MODERATE,
                                    4: D.COMPLETE, 7: D.MINOR})
    value, _ = exhaustive_oracle(damage, community, mdp)
    optimum, _ = reference_exhaustive_oracle(damage, community, mdp)
    assert optimum == pytest.approx(2.5)
    assert value == pytest.approx(optimum, rel=1e-12, abs=0.0)


def test_oracle_rate_never_beaten_on_random_damage():
    """Under max_benefit_rate the oracle sums its area over the same
    segments as the restoration curve, so rollout never reads above the
    optimum, not even in the last bits: 50 random damage vectors of 1-6
    damaged components, at uniform levels, on oracle_demo."""
    scenario = load_scenario(str(DATA / "oracle_demo.yaml"))
    community = scenario.community
    mdp = replace(scenario.mdp, objective=Objective.MAX_BENEFIT_RATE)
    ids = [c.id for c in community.components]
    rng = np.random.default_rng(0)
    for i in range(50):
        while True:
            chosen = set(rng.choice(ids, size=int(rng.integers(1, 7)), replace=False))
            damage = tuple(
                D(int(rng.integers(1, 5))) if c.id in chosen else D.NONE
                for c in community.components
            )
            if not is_terminal(initial_state(community, damage, mdp), community, mdp):
                break
        optimum, _ = exhaustive_oracle(damage, community, mdp)
        result = run_episode(
            PolicyKind.ROLLOUT, damage, community, mdp, scenario.rollout,
            scenario.base_policy, root_seed=i,
        )
        assert result.metric(mdp.objective) <= optimum, i


def test_oracle_rate_runs_dinkelbach_past_the_largest_area():
    """Two electric crews, distribution segments 2 (2 days, powers the
    400-person cell and the retailer), 3 (4 days, the 300-person cell)
    and 4 (3 days, feeds nothing).  Starting on {2, 4} gives the largest
    area, 400 persons from day 2 to day 6 (rate 1600/6); starting on
    {2, 3} gives 400 from day 2 to 4 and 700 from 4 to 5, area 1500 and
    rate 300.  So the first pick of Dinkelbach's loop, at lam = 0, is not
    the optimum, and a second pick must replace it."""
    days = {2: 2.0, 3: 4.0, 4: 3.0}
    components = [comp(1, C.SUBSTATION)] + [
        comp(cid, C.DISTRIBUTION_SEGMENT, days=dict.fromkeys(DAMAGED_STATES, d))
        for cid, d in days.items()
    ] + [comp(5, C.WELL), comp(6, C.PIPELINE)]
    edges = [(1, 2), (1, 3), (1, 4), (5, 6)]
    cells = [
        GridCell(id=1, population=400, centroid=(1.0, 0.0),
                 power_feed=2, water_feed=6),
        GridCell(id=2, population=300, centroid=(1.0, 1.0),
                 power_feed=3, water_feed=6),
    ]
    retailers = [Retailer(id=1, capacity=10.0, centroid=(0.0, 0.0),
                          power_feed=2, water_feed=6)]
    community = Community(components, edges, cells, retailers)
    mdp = MdpConfig(n_e=2, n_w=1, objective=Objective.MAX_BENEFIT_RATE,
                    repair_model=RepairModel.REMAINING_WORK)
    damage = damage_for(community, dict.fromkeys(days, D.MINOR))
    value, first = exhaustive_oracle(damage, community, mdp)
    optimum, _ = reference_exhaustive_oracle(damage, community, mdp)
    assert optimum == pytest.approx(300.0)
    assert value == pytest.approx(optimum, rel=1e-12, abs=0.0)
    assert first.assigned_indices() == (1, 2)
    largest_area, _ = reference_exhaustive_oracle(
        damage, community, mdp, first=RepairAction((1, 3))
    )
    assert largest_area == pytest.approx(1600.0 / 6.0)


def test_oracle_computes_each_benefit_once(monkeypatch):
    """Every benefit the oracle computes is for a new outstanding set: the
    DP reads repeats from the benefit memo."""
    scenario = load_scenario(
        str(Path(recovery_rollout.__file__).parent / "data" / "oracle_demo.yaml")
    )
    community, mdp = scenario.community, scenario.mdp
    rng = np.random.default_rng(0)
    damage = tuple(
        D(int(s)) for s in rng.integers(1, 5, size=community.n_components)
    )
    real_mask = community_module.functional_mask
    masks = []

    def recording_mask(community, outstanding):
        masks.append(outstanding)
        return real_mask(community, outstanding)

    monkeypatch.setattr(community_module, "functional_mask", recording_mask)
    exhaustive_oracle(damage, community, mdp)
    assert len(masks) > 1
    assert len(set(masks)) == len(masks)


@pytest.mark.parametrize("refused", [False, True])
def test_oracle_leaves_the_benefit_memo_as_it_found_it(
    refused, count_mask_calls, monkeypatch
):
    """The oracle drops the benefit entries it adds, when it solves a
    mini_gilroy episode and when it refuses one partway through the DP,
    and keeps those that an episode added before it."""
    scenario = load_scenario(str(DATA / "mini_gilroy.yaml"))
    community = scenario.community
    mdp = replace(scenario.mdp, repair_model=RepairModel.REMAINING_WORK)
    damage = episode_damage(community, scenario.hazards, scenario.seed, 0)
    run_episode(PolicyKind.BASE, damage, community, mdp, scenario.rollout,
                scenario.base_policy, root_seed=scenario.seed)
    before = list(community._mask_benefit.items())
    assert before
    if refused:
        monkeypatch.setattr(planner_module, "_ORACLE_MAX_STATES", 50)
    calls = count_mask_calls()
    if refused:
        with pytest.raises(InstanceTooLarge, match="remaining-work states"):
            exhaustive_oracle(damage, community, mdp)
    else:
        exhaustive_oracle(damage, community, mdp)
    assert calls[0] > 0
    assert list(community._mask_benefit.items()) == before


def test_cached_benefit_reads_continuation_memo(count_mask_calls):
    community = desk_community()
    mdp = MdpConfig(n_e=1, n_w=1, objective=Objective.MAX_BENEFIT_RATE)
    damage = (D.MINOR,) * community.n_components
    state = initial_state(community, damage, mdp)
    first = base_action(state, community, mdp, BASE)
    trajectory_return(state, first, mdp, community,
                      _repair_draws(community.n_components, 0, 0),
                      _continuation_tables(state, BASE, mdp, community))
    # the rate objective runs the continuation to full repair: one
    # outstanding set per completion after the first, down to the empty one
    visited = list(community._mask_benefit)
    assert 0 in visited
    assert len(visited) >= community.n_components - 1
    calls = count_mask_calls()
    for mask in visited:
        # same outstanding set, other levels than the continuation saw
        probe = tuple(D.COMPLETE if mask >> i & 1 else D.NONE
                      for i in range(community.n_components))
        assert benefit_for_damage_cached(community, probe) == (
            community._mask_benefit[mask]
        )
    assert calls[0] == 0


def test_continuation_memo_holds_the_uncached_benefit(two_tiles, monkeypatch):
    """One rollout decision on two tiles of mini_gilroy from a cold memo,
    under the rate objective so trajectories run to full repair: every
    benefit the continuation grew from its carried functional set equals
    benefit_for_damage's full pass, bit for bit.  Through the planner's
    module globals the decision calls functional_mask once, for the
    tables' root set, and benefit_for_damage never."""
    community = two_tiles.community
    mdp = replace(two_tiles.mdp, objective=Objective.MAX_BENEFIT_RATE)
    state = initial_state(
        community,
        episode_damage(community, two_tiles.hazards, two_tiles.seed, 0),
        mdp,
    )
    assert not is_terminal(state, community, mdp)
    community._mask_benefit.clear()
    calls = {"functional_mask": 0, "benefit_for_damage": 0}

    def counted(name):
        real = getattr(planner_module, name)

        def count(*args):
            calls[name] += 1
            return real(*args)

        return count

    for name in calls:
        monkeypatch.setattr(planner_module, name, counted(name))
    config = RolloutConfig(n_mc_min=8, n_mc_max=8, action_cap=8)
    _, record = rollout_decision(state, BASE, config, mdp, community,
                                 root_seed=two_tiles.seed)
    assert len(record.estimates) > 1
    assert calls == {"functional_mask": 1, "benefit_for_damage": 0}
    assert len(community._mask_benefit) > 50
    for mask, benefit in community._mask_benefit.items():
        assert benefit == benefit_for_damage(community, mask), mask


def test_planner_keeps_no_community_alive():
    def plan_on_fresh_community():
        community = desk_community()
        damage = damage_for(community, {1: D.MINOR, 5: D.MODERATE})
        det = MdpConfig(n_e=1, n_w=1, alpha=1.0,
                        repair_model=RepairModel.REMAINING_WORK)
        state = initial_state(community, damage, det)
        base_action(state, community, det, BASE)
        rollout_decision(state, BASE, RolloutConfig(), det, community,
                         root_seed=0)
        exhaustive_oracle(damage, community, det)
        return weakref.ref(community)

    ref = plan_on_fresh_community()
    gc.collect()
    assert ref() is None


def test_rollout_decision_memo_is_scoped_to_the_decision():
    """The picks memo lives in the decision's continuation tables: a
    rollout decision adds no attribute to the community and no global to
    the planner module, and grows none of their containers except the
    community's benefit memo."""

    def snapshot(namespace, skip=()):
        return {
            name: (id(value),
                   len(value) if isinstance(value, (dict, list, set)) else None)
            for name, value in namespace.items() if name not in skip
        }

    scenario = load_scenario(str(DATA / "mini_gilroy.yaml"))
    community, mdp = scenario.community, MdpConfig(n_e=2, n_w=2)
    state = initial_state(
        community, episode_damage(community, scenario.hazards, 3, 0), mdp
    )
    config = RolloutConfig(n_mc_min=8, n_mc_max=8, action_cap=16)
    community_before = snapshot(vars(community), skip={"_mask_benefit"})
    module_before = snapshot(vars(planner_module))
    _, record = rollout_decision(state, BASE, config, mdp, community,
                                 root_seed=3)
    assert len(record.estimates) > 1
    assert community._mask_benefit
    assert snapshot(vars(community), skip={"_mask_benefit"}) == community_before
    assert snapshot(vars(planner_module)) == module_before
