"""Base policy, rollout lookahead, episode runner, and the schedule oracle."""

from __future__ import annotations

import gc
import itertools
import weakref
from pathlib import Path

import numpy as np
import pytest

import recovery_rollout
from recovery_rollout import community as community_module
from recovery_rollout.community import (
    Community,
    ComponentClass,
    DamageState,
    GridCell,
    Retailer,
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
    enumerate_actions,
    initial_state,
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

from conftest import (
    comp,
    damage_for,
    desk_community,
    reference_base_action,
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
    # repairing the dead end first: 4 days, then 3 more for the real feed
    assert trajectory_return(
        state, junk_first, BASE, JUNK_MDP, community, draws=None
    ) == pytest.approx(-7.0)
    assert trajectory_return(
        state, good_first, BASE, JUNK_MDP, community, draws=None
    ) == pytest.approx(-3.0)


def test_trajectory_return_discounting():
    community = junk_pair_community()
    mdp = MdpConfig(n_e=1, n_w=1, gamma=0.5, alpha=1.0,
                    repair_model=RepairModel.REMAINING_WORK)
    state = initial_state(community, damage_for(community, JUNK_DAMAGE), mdp)
    junk_first = RepairAction((1,))
    # first transition undiscounted, the follow-up step scaled by gamma
    assert trajectory_return(
        state, junk_first, BASE, mdp, community, draws=None
    ) == pytest.approx(-4.0 + 0.5 * -3.0)


def test_estimate_q_deterministic_single_trajectory():
    community = junk_pair_community()
    state = initial_state(community, damage_for(community, JUNK_DAMAGE), JUNK_MDP)
    est = estimate_q(
        state, RepairAction((2,)), BASE, RolloutConfig(), JUNK_MDP,
        community, draws_for_trajectory=lambda j: None,
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

    tight = RolloutConfig(n_mc_min=8, n_mc_max=64, se_threshold=1e-6)
    est = estimate_q(state, action, BASE, tight, mdp, community,
                     _table_draws(community))
    assert est.n_trajectories == 64
    assert len(est.returns) == 64
    assert est.value == pytest.approx(float(np.mean(est.returns)))

    loose = RolloutConfig(n_mc_min=8, n_mc_max=64, se_threshold=1e9)
    est = estimate_q(state, action, BASE, loose, mdp, community,
                     _table_draws(community))
    assert est.n_trajectories == 8
    assert est.std_error < 1e9


def test_worst_case_value_is_minimum_return():
    community = detour_community()
    mdp = detour_mdp(RepairModel.EXPONENTIAL)
    state = initial_state(community, damage_for(community, DETOUR_DAMAGE), mdp)
    action = RepairAction((3, 4))
    config = RolloutConfig(n_mc_min=16, n_mc_max=16, se_threshold=1e9,
                           mode=RolloutMode.WORST_CASE)
    worst = estimate_q(state, action, BASE, config, mdp, community,
                       _table_draws(community, root_seed=3))
    mean_cfg = RolloutConfig(n_mc_min=16, n_mc_max=16, se_threshold=1e9)
    mean = estimate_q(state, action, BASE, mean_cfg, mdp, community,
                      _table_draws(community, root_seed=3))
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
    first = estimate_q(state, action, BASE, config, mdp, community, draws)
    second = estimate_q(state, action, BASE, config, mdp, community, draws)
    assert first.returns == second.returns
    assert len(set(first.returns)) > 1


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
        for action in candidates:
            expected = []
            for j in range(n_tables):
                draws, ref_draws = draws_for(j), draws_for(j)
                got = trajectory_return(state, action, BASE, mdp, community,
                                        draws)
                want = reference_trajectory_return(
                    state, action, BASE, mdp, community, ref_draws
                )
                assert got == want, (episode, action, j)
                assert draws == ref_draws, (episode, action, j)
                expected.append(want)
            est = estimate_q(state, action, BASE, config, mdp, community,
                             draws_for)
            assert est.returns == tuple(expected)


@pytest.mark.parametrize("water_ids_first", [False, True])
def test_trajectory_return_breaks_completion_ties_by_lowest_index(
    water_ids_first,
):
    """Equal repair means and equal draws make every step a tie; transition
    repairs the lowest index first, whichever network the base policy
    lists first, and leaves the same draws behind."""
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
        state, first, BASE, mdp, community, draws
    ) == reference_trajectory_return(
        state, first, BASE, mdp, community, ref_draws
    )
    assert draws == ref_draws


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


def test_oracle_guards_instance_size():
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
    mdp = MdpConfig(n_e=1, n_w=1, alpha=1.0,
                    repair_model=RepairModel.REMAINING_WORK)
    damage = damage_for(community, {cid: D.MINOR for cid in range(1, 10)})
    with pytest.raises(InstanceTooLarge):
        exhaustive_oracle(damage, community, mdp)


def test_oracle_computes_each_benefit_once(monkeypatch):
    scenario = load_scenario(
        str(Path(recovery_rollout.__file__).parent / "data" / "oracle_demo.yaml")
    )
    community, mdp = scenario.community, scenario.mdp
    rng = np.random.default_rng(0)
    damage = tuple(
        D(int(s)) for s in rng.integers(1, 5, size=community.n_components)
    )
    real_mask = community_module.functional_mask
    calls = [0]

    def counting_mask(*args):
        calls[0] += 1
        return real_mask(*args)

    monkeypatch.setattr(community_module, "functional_mask", counting_mask)
    cached_before = len(community._benefit_cache)
    exhaustive_oracle(damage, community, mdp)
    new_entries = len(community._benefit_cache) - cached_before
    assert new_entries > 1
    assert calls[0] == new_entries


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
