"""State/action admissibility, transition mechanics, and rewards."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovery_rollout.community import (
    Community,
    ComponentClass,
    DamageState,
    GridCell,
    Retailer,
)
from recovery_rollout.errors import (
    InadmissibleAction,
    TerminalState,
    ValidationError,
)
from recovery_rollout.mdp import (
    MdpConfig,
    Objective,
    RecoveryState,
    RepairAction,
    RepairModel,
    count_admissible,
    coverage_fraction,
    damaged_indices,
    enumerate_actions,
    initial_state,
    is_terminal,
    reward,
)

from conftest import (
    FreshDraws,
    comp,
    damage_for,
    desk_community,
    step,
    two_utility_community,
)

C = ComponentClass
D = DamageState


def ladder_community(n_dists: int, n_pipes: int):
    """Substation 1 feeding a fan of distribution segments, and a well ->
    tank -> pipeline chain.  Sized by the caller to pin action counts."""
    components = [comp(1, C.SUBSTATION)]
    edges = []
    next_id = 2
    for _ in range(n_dists):
        components.append(comp(next_id, C.DISTRIBUTION_SEGMENT))
        edges.append((1, next_id))
        next_id += 1
    well = next_id
    tank = next_id + 1
    components.append(comp(well, C.WELL))
    components.append(comp(tank, C.WATER_TANK))
    edges.append((well, tank))
    prev = tank
    first_pipe = tank + 1
    for k in range(n_pipes):
        pid = first_pipe + k
        components.append(comp(pid, C.PIPELINE))
        edges.append((prev, pid))
        prev = pid
    cells = [
        GridCell(
            id=1,
            population=500,
            centroid=(1.0, 1.0),
            power_feed=2,
            water_feed=first_pipe,
        )
    ]
    retailers = [
        Retailer(
            id=1,
            capacity=50.0,
            centroid=(1.0, -1.0),
            power_feed=2,
            water_feed=first_pipe,
        )
    ]
    return Community(components, edges, cells, retailers)


def all_damaged(community, state=D.MODERATE):
    return damage_for(community, {c.id: state for c in community.components})


def greedy_action(state, community, config):
    """Lowest-index assignment with the required crew counts per network."""
    epn, wn = damaged_indices(state, community)
    picks = epn[: min(config.n_e, len(epn))] + wn[: min(config.n_w, len(wn))]
    return RepairAction(tuple(sorted(picks)))


# --- admissible action counting ---------------------------------------------


def test_count_four_epn_three_wn():
    community = ladder_community(n_dists=3, n_pipes=1)
    config = MdpConfig(n_e=2, n_w=1)
    state = initial_state(community, all_damaged(community), config)
    assert count_admissible(state, community, config) == 18  # C(4,2) * C(3,1)
    assert len(enumerate_actions(state, community, config)) == 18


def test_count_water_only():
    community = ladder_community(n_dists=1, n_pipes=3)
    config = MdpConfig(n_e=2, n_w=2)
    damage = damage_for(
        community, {cid: D.MINOR for cid in (3, 4, 5, 6, 7)}
    )
    state = initial_state(community, damage, config)
    assert count_admissible(state, community, config) == 10  # C(5,2)
    assert len(enumerate_actions(state, community, config)) == 10


def test_count_six_by_six():
    community = ladder_community(n_dists=5, n_pipes=4)
    config = MdpConfig(n_e=2, n_w=2)
    state = initial_state(community, all_damaged(community), config)
    assert count_admissible(state, community, config) == 225  # C(6,2)^2
    actions = enumerate_actions(state, community, config, cap=300)
    assert len(actions) == 225
    assert len({a.assigned_indices() for a in actions}) == 225


def test_enumerate_full_set_actions_are_admissible():
    community = ladder_community(n_dists=3, n_pipes=1)
    config = MdpConfig(n_e=2, n_w=1)
    state = initial_state(community, all_damaged(community), config)
    for action in enumerate_actions(state, community, config):
        draws = FreshDraws(np.random.default_rng(0))
        step(state, action, community, config, draws)  # must not raise


def test_enumerate_capped_sampling():
    community = ladder_community(n_dists=5, n_pipes=4)
    config = MdpConfig(n_e=2, n_w=2)
    state = initial_state(community, all_damaged(community), config)
    base = greedy_action(state, community, config)

    with pytest.raises(ValidationError):
        enumerate_actions(state, community, config, cap=16)

    sample = enumerate_actions(
        state, community, config, cap=16,
        rng=np.random.default_rng(7), must_include=base,
    )
    assert len(sample) == 16
    assert len({a.assigned_indices() for a in sample}) == 16
    assert base in sample

    again = enumerate_actions(
        state, community, config, cap=16,
        rng=np.random.default_rng(7), must_include=base,
    )
    assert sample == again


def test_sampled_candidates_hold_the_base_action_once():
    """EPN and WN indices interleave here (wells and pipelines sit between
    the distribution segments), so a sampled action must be compared with
    the base action in ascending index order."""
    components = [
        comp(1, C.SUBSTATION),
        comp(2, C.WELL),
        comp(3, C.DISTRIBUTION_SEGMENT),
        comp(4, C.PIPELINE),
        comp(5, C.DISTRIBUTION_SEGMENT),
        comp(6, C.PIPELINE),
    ]
    edges = [(1, 3), (1, 5), (2, 4), (2, 6)]
    cells = [GridCell(id=1, population=100, centroid=(1.0, 0.0),
                      power_feed=3, water_feed=4)]
    retailers = [Retailer(id=1, capacity=10.0, centroid=(0.0, 1.0),
                          power_feed=3, water_feed=4)]
    community = Community(components, edges, cells, retailers)
    config = MdpConfig(n_e=1, n_w=1)
    damage = damage_for(community, {cid: D.MINOR for cid in range(2, 7)})
    state = initial_state(community, damage, config)
    assert count_admissible(state, community, config) == 6
    base = greedy_action(state, community, config)
    assert base.indices == (1, 2)
    for seed in range(50):
        sample = enumerate_actions(
            state, community, config, cap=5,
            rng=np.random.default_rng(seed), must_include=base,
        )
        assert len({a.indices for a in sample}) == 5, seed
        assert sample.count(base) == 1, seed


def test_enumerate_terminal_state_raises():
    community = two_utility_community()
    config = MdpConfig(n_e=1, n_w=1)
    state = initial_state(community, damage_for(community, {}), config)
    with pytest.raises(TerminalState):
        enumerate_actions(state, community, config)


# --- admissibility checks ----------------------------------------------------


def test_assigning_undamaged_component_rejected():
    community = two_utility_community()
    config = MdpConfig(n_e=1, n_w=1)
    state = initial_state(
        community, damage_for(community, {1: D.MINOR, 3: D.MINOR}), config
    )
    bad = RepairAction((1, 2))  # component 2 is undamaged
    with pytest.raises(InadmissibleAction, match="not damaged"):
        step(state, bad, community, config, FreshDraws(np.random.default_rng(0)))


def test_wrong_crew_count_rejected():
    community = ladder_community(n_dists=3, n_pipes=1)
    config = MdpConfig(n_e=2, n_w=1)
    state = initial_state(community, all_damaged(community), config)
    short = RepairAction((0, 4))  # 1 EPN, 1 WN
    with pytest.raises(InadmissibleAction, match="crews"):
        step(state, short, community, config, FreshDraws(np.random.default_rng(0)))


def test_terminal_state_has_no_admissible_action():
    community = two_utility_community()
    config = MdpConfig(n_e=1, n_w=1)
    state = initial_state(community, damage_for(community, {}), config)
    noop = RepairAction(())
    with pytest.raises(InadmissibleAction, match="terminal"):
        step(state, noop, community, config, FreshDraws(np.random.default_rng(0)))


@pytest.mark.parametrize(
    "indices",
    [(0, 4), (2, 0), (0, 0)],
    ids=["out-of-range", "unsorted", "repeated"],
)
def test_malformed_indices_rejected(indices):
    community = two_utility_community()
    config = MdpConfig(n_e=1, n_w=1)
    state = initial_state(
        community, damage_for(community, {1: D.MINOR, 3: D.MINOR}), config
    )
    with pytest.raises(InadmissibleAction):
        step(
            state,
            RepairAction(indices),
            community,
            config,
            FreshDraws(np.random.default_rng(0)),
        )


# --- transition mechanics ----------------------------------------------------


def repaired_ids(community, state, nxt):
    """Ids of the components damaged in state and repaired in nxt."""
    return {
        community.components[i].id
        for i, (before, after) in enumerate(zip(state.damage, nxt.damage))
        if before is not D.NONE and after is D.NONE
    }


def test_exponential_completion_replays_raw_draw():
    community = two_utility_community()
    config = MdpConfig(n_e=1, n_w=1)
    # substation EXTENSIVE repairs in mean 7 days
    state = initial_state(community, damage_for(community, {1: D.EXTENSIVE}), config)
    action = RepairAction((0,))
    nxt, _ = step(state, action, community, config,
                  FreshDraws(np.random.default_rng(5)))
    expected = 7.0 * float(np.random.default_rng(5).standard_exponential())
    # the state starts at time zero, so elapsed time is the completion time
    assert nxt.elapsed_time == pytest.approx(expected, rel=1e-12)
    assert repaired_ids(community, state, nxt) == {1}
    assert nxt.damage[0] is D.NONE


def test_exponential_repairs_exactly_one():
    community = ladder_community(n_dists=3, n_pipes=1)
    config = MdpConfig(n_e=2, n_w=1)
    state = initial_state(community, all_damaged(community), config)
    action = greedy_action(state, community, config)
    nxt, _ = step(state, action, community, config,
                  FreshDraws(np.random.default_rng(9)))
    assert len(repaired_ids(community, state, nxt)) == 1
    before = sum(d != D.NONE for d in state.damage)
    after = sum(d != D.NONE for d in nxt.damage)
    assert after == before - 1


def test_exponential_transition_writes_back_outstanding_work():
    community = two_utility_community()
    config = MdpConfig(n_e=1, n_w=1)
    damage = damage_for(community, {1: D.EXTENSIVE, 3: D.EXTENSIVE})
    state = initial_state(community, damage, config)
    well_mean = community.repair_means[2][int(D.EXTENSIVE)]
    draws = [0.1, 0.5, 10.0, 0.5]
    nxt, _ = step(state, RepairAction((0, 2)), community, config, draws)
    # substation EXTENSIVE repairs in mean 7 days and finishes first
    completion = nxt.elapsed_time - state.elapsed_time
    assert completion == 7.0 * 0.1
    assert repaired_ids(community, state, nxt) == {1}
    # the finisher's entry is written as 0.0; the well's keeps its remainder
    assert draws == [0.0, 0.5, 10.0 - completion / well_mean, 0.5]


def test_exponential_transition_repairs_exact_ties_together():
    """Equal repair means and equal draws finish together: both assigned
    components are repaired in one step, and both entries read 0.0."""
    one_day = dict.fromkeys((D.MINOR, D.MODERATE, D.EXTENSIVE, D.COMPLETE), 1.0)
    community = Community(
        [comp(1, C.SUBSTATION, one_day),
         comp(2, C.DISTRIBUTION_SEGMENT, one_day),
         comp(3, C.WELL, one_day),
         comp(4, C.PIPELINE, one_day)],
        [(1, 2), (3, 4)],
        [GridCell(id=1, population=100, centroid=(1.0, 0.0),
                  power_feed=2, water_feed=4)],
        [Retailer(id=1, capacity=10.0, centroid=(0.0, 1.0),
                  power_feed=2, water_feed=4)],
    )
    config = MdpConfig(n_e=1, n_w=1)
    state = initial_state(community, (D.MINOR,) * 4, config)
    draws = [1.0] * 4
    nxt, _ = step(state, RepairAction((0, 2)), community, config, draws)
    assert nxt.elapsed_time == 1.0
    assert repaired_ids(community, state, nxt) == {1, 3}
    assert draws[0] == draws[2] == 0.0


def test_remaining_work_initialization():
    community = desk_community()
    config = MdpConfig(n_e=1, n_w=1, repair_model=RepairModel.REMAINING_WORK)
    damage = damage_for(community, {2: D.MODERATE, 7: D.COMPLETE})
    state = initial_state(community, damage, config)
    assert state.remaining_work is not None
    # transmission MODERATE mean is 1.0; pipeline COMPLETE is the fixture's 4.0
    expected = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 4.0)
    assert state.remaining_work == pytest.approx(expected, abs=1e-12)


def test_remaining_work_simultaneous_completion():
    components = [
        comp(1, C.SUBSTATION),
        comp(2, C.DISTRIBUTION_SEGMENT),
        comp(3, C.WELL),
        comp(4, C.PIPELINE),
        comp(5, C.PIPELINE),
    ]
    edges = [(1, 2), (3, 4), (4, 5)]
    cells = [GridCell(id=1, population=100, centroid=(1.0, 0.0),
                      power_feed=2, water_feed=5)]
    retailers = [Retailer(id=1, capacity=10.0, centroid=(0.0, 1.0),
                          power_feed=2, water_feed=5)]
    community = Community(components, edges, cells, retailers)
    config = MdpConfig(n_e=1, n_w=2, repair_model=RepairModel.REMAINING_WORK,
                       objective=Objective.MAX_BENEFIT_RATE)
    # both pipelines MODERATE: equal 1.0-day workloads finish together
    damage = damage_for(community, {4: D.MODERATE, 5: D.MODERATE})
    state = initial_state(community, damage, config)
    action = RepairAction((3, 4))
    nxt, _ = step(state, action, community, config,
                  FreshDraws(np.random.default_rng(0)))
    assert nxt.elapsed_time - state.elapsed_time == pytest.approx(1.0, abs=1e-12)
    assert repaired_ids(community, state, nxt) == {4, 5}
    assert is_terminal(nxt, community, config)


def test_remaining_work_partial_progress():
    community = two_utility_community()
    config = MdpConfig(n_e=1, n_w=1, repair_model=RepairModel.REMAINING_WORK)
    # substation MODERATE (3 days) vs well COMPLETE (26 days); only one
    # crew per network, both assigned, power finishes first
    damage = damage_for(community, {1: D.MODERATE, 3: D.COMPLETE})
    state = initial_state(community, damage, config)
    action = RepairAction((0, 2))
    nxt, _ = step(state, action, community, config,
                  FreshDraws(np.random.default_rng(0)))
    assert nxt.elapsed_time - state.elapsed_time == pytest.approx(3.0, abs=1e-12)
    assert repaired_ids(community, state, nxt) == {1}
    assert nxt.damage[2] is D.COMPLETE
    assert nxt.remaining_work[2] == pytest.approx(23.0, abs=1e-9)


# --- rewards, coverage, termination -----------------------------------------


def test_time_objective_reward_is_negated_duration():
    community = two_utility_community()
    config = MdpConfig(n_e=1, n_w=1)
    nxt = RecoveryState(damage=damage_for(community, {}), elapsed_time=4.0)
    assert reward(nxt, 2.5, community, config) == pytest.approx(-2.5)


def test_benefit_rate_reward():
    community = two_utility_community()
    config = MdpConfig(n_e=1, n_w=1, objective=Objective.MAX_BENEFIT_RATE)
    healed = RecoveryState(damage=damage_for(community, {}), elapsed_time=2.0)
    assert reward(healed, 2.0, community, config) == pytest.approx(500.0)
    broken = RecoveryState(
        damage=damage_for(community, {4: D.MINOR}), elapsed_time=2.0
    )
    assert reward(broken, 2.0, community, config) == pytest.approx(0.0)


def test_benefit_rate_rejects_zero_elapsed():
    community = two_utility_community()
    config = MdpConfig(n_e=1, n_w=1, objective=Objective.MAX_BENEFIT_RATE)
    nxt = RecoveryState(damage=damage_for(community, {}), elapsed_time=0.0)
    with pytest.raises(
        ValidationError, match="benefit rate undefined at zero elapsed time"
    ):
        reward(nxt, 1.0, community, config)


def test_coverage_fraction_partial():
    components = [
        comp(1, C.SUBSTATION),
        comp(2, C.TRANSMISSION_SEGMENT),
        comp(3, C.DISTRIBUTION_SEGMENT),
        comp(4, C.DISTRIBUTION_SEGMENT),
        comp(5, C.WELL),
        comp(6, C.PIPELINE),
    ]
    edges = [(1, 2), (2, 3), (2, 4), (5, 6)]
    cells = [
        GridCell(id=1, population=100, centroid=(1.0, 1.0),
                 power_feed=3, water_feed=6),
        GridCell(id=2, population=300, centroid=(1.0, -1.0),
                 power_feed=4, water_feed=6),
    ]
    retailers = [Retailer(id=1, capacity=40.0, centroid=(2.0, 0.0),
                          power_feed=4, water_feed=6)]
    community = Community(components, edges, cells, retailers)
    config = MdpConfig(n_e=1, n_w=1, alpha=0.7)
    state = initial_state(community, damage_for(community, {3: D.MINOR}), config)
    assert coverage_fraction(state, community) == pytest.approx(0.75)
    # threshold objective: 0.75 >= alpha terminates with damage outstanding
    assert is_terminal(state, community, config)
    full_cfg = MdpConfig(n_e=1, n_w=1, alpha=0.7,
                         objective=Objective.MAX_BENEFIT_RATE)
    assert not is_terminal(state, community, full_cfg)


def test_full_repair_objective_needs_every_component():
    components = [
        comp(1, C.SUBSTATION),
        comp(2, C.DISTRIBUTION_SEGMENT),
        comp(3, C.WELL),
        comp(4, C.WELL),
        comp(5, C.PIPELINE, any_supplier=True),
    ]
    edges = [(1, 2), (3, 5), (4, 5)]
    cells = [GridCell(id=1, population=100, centroid=(1.0, 0.0),
                      power_feed=2, water_feed=5)]
    retailers = [Retailer(id=1, capacity=10.0, centroid=(0.0, 1.0),
                          power_feed=2, water_feed=5)]
    community = Community(components, edges, cells, retailers)
    config = MdpConfig(n_e=1, n_w=1, objective=Objective.MAX_BENEFIT_RATE)
    # a redundant well down leaves coverage at 1.0 yet the episode continues
    state = initial_state(community, damage_for(community, {4: D.MINOR}), config)
    assert coverage_fraction(state, community) == pytest.approx(1.0)
    assert not is_terminal(state, community, config)
    healed = initial_state(community, damage_for(community, {}), config)
    assert is_terminal(healed, community, config)


def test_zero_damage_terminal_under_both_objectives():
    community = two_utility_community()
    for objective in Objective:
        config = MdpConfig(n_e=1, n_w=1, objective=objective)
        state = initial_state(community, damage_for(community, {}), config)
        assert is_terminal(state, community, config)


def test_config_validation():
    with pytest.raises(ValidationError):
        MdpConfig(n_e=0, n_w=1)
    with pytest.raises(ValidationError):
        MdpConfig(n_e=1, n_w=1, gamma=0.0)
    with pytest.raises(ValidationError):
        MdpConfig(n_e=1, n_w=1, gamma=1.2)
    with pytest.raises(ValidationError):
        MdpConfig(n_e=1, n_w=1, alpha=0.0)


# --- whole-episode invariants ------------------------------------------------

desk_damage = st.tuples(
    *([st.sampled_from(list(DamageState))] * 7)
).filter(lambda d: any(s != D.NONE for s in d))


@given(desk_damage, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_episode_monotone_and_bounded(damage, seed):
    community = desk_community()
    config = MdpConfig(n_e=1, n_w=1, objective=Objective.MAX_BENEFIT_RATE)
    state = initial_state(community, damage, config)
    draws = FreshDraws(np.random.default_rng(seed))
    initial_count = sum(d != D.NONE for d in damage)
    steps = 0
    while not is_terminal(state, community, config):
        action = greedy_action(state, community, config)
        nxt, _ = step(state, action, community, config, draws)
        for before, after in zip(state.damage, nxt.damage):
            assert after == before or after is D.NONE  # repairs never damage
        assert nxt.elapsed_time > state.elapsed_time
        state = nxt
        steps += 1
        assert steps <= initial_count
    assert steps == initial_count  # exponential mode fixes one per epoch


@given(desk_damage, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_negated_reward_sum_equals_elapsed_time(damage, seed):
    community = desk_community()
    config = MdpConfig(n_e=1, n_w=1, alpha=1.0)
    state = initial_state(community, damage, config)
    draws = FreshDraws(np.random.default_rng(seed))
    total = 0.0
    while not is_terminal(state, community, config):
        action = greedy_action(state, community, config)
        state, r = step(state, action, community, config, draws)
        total -= r
    assert total == pytest.approx(state.elapsed_time, rel=1e-9)
