"""Dependency cascades, gravity weights, and the benefit count."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recovery_rollout
from recovery_rollout.community import (
    Community,
    ComponentClass,
    DamageState,
    GridCell,
    Network,
    Retailer,
    benefit_for_damage,
    benefit_for_damage_cached,
    functional_mask,
    gravity_weights,
)
from recovery_rollout.errors import ValidationError
from recovery_rollout.scenario import load_scenario

from conftest import (
    benefit_count,
    comp,
    damage_for,
    desk_community,
    functional_set,
    iterative_removal_oracle,
    outstanding_mask,
    random_dag_community,
    service_status,
    two_utility_community,
)

N = DamageState.NONE
EXT = DamageState.EXTENSIVE
COMP = DamageState.COMPLETE


def test_minimal_power_chain_builds():
    community = Community(
        components=[
            comp(1, ComponentClass.SUBSTATION),
            comp(2, ComponentClass.DISTRIBUTION_SEGMENT),
            comp(3, ComponentClass.PIPELINE),
        ],
        edges=[(1, 2)],
        cells=[
            GridCell(id=1, population=10, centroid=(1.0, 0.0), power_feed=2,
                     water_feed=3)
        ],
        retailers=[
            Retailer(id=1, capacity=10.0, centroid=(0.0, 1.0), power_feed=2,
                     water_feed=3)
        ],
        gravity_exponent=2.0,
    )
    assert community.n_components == 3
    assert (
        community.components[community.index_of[2]].kind
        is ComponentClass.DISTRIBUTION_SEGMENT
    )


def test_dependency_cycle_rejected():
    with pytest.raises(
        ValidationError,
        match=re.escape("dependency cycle through components [1, 2, 3]"),
    ):
        Community(
            components=[
                comp(1, ComponentClass.DISTRIBUTION_SEGMENT),
                comp(2, ComponentClass.SUBSTATION),
                comp(3, ComponentClass.DISTRIBUTION_SEGMENT),
            ],
            edges=[(1, 2), (2, 3), (3, 1)],
            cells=[
                GridCell(id=1, population=1, centroid=(0.5, 0.5), power_feed=1,
                         water_feed=1)
            ],
            retailers=[],
        )


def test_epn_cannot_depend_on_water():
    with pytest.raises(
        ValidationError, match="EPN component 2 cannot depend on WN component 1"
    ):
        Community(
            components=[
                comp(1, ComponentClass.WELL),
                comp(2, ComponentClass.SUBSTATION),
            ],
            edges=[(1, 2)],
            cells=[
                GridCell(id=1, population=1, centroid=(0.5, 0.5), power_feed=2,
                         water_feed=1)
            ],
            retailers=[],
        )


def test_pipeline_cannot_depend_directly_on_epn():
    with pytest.raises(
        ValidationError, match="pipeline 2 cannot depend directly on EPN component 1"
    ):
        Community(
            components=[
                comp(1, ComponentClass.SUBSTATION),
                comp(2, ComponentClass.PIPELINE),
            ],
            edges=[(1, 2)],
            cells=[
                GridCell(id=1, population=1, centroid=(0.5, 0.5), power_feed=1,
                         water_feed=2)
            ],
            retailers=[],
        )


def test_nonpositive_repair_time_rejected():
    with pytest.raises(
        ValidationError, match="component 1: repair time for MINOR must be > 0"
    ):
        comp(
            1,
            ComponentClass.SUBSTATION,
            days={
                DamageState.MINOR: 0.0,
                DamageState.MODERATE: 1.0,
                DamageState.EXTENSIVE: 2.0,
                DamageState.COMPLETE: 3.0,
            },
        )


def test_dangling_feed_rejected():
    with pytest.raises(
        ValidationError, match="cell 1: feed references unknown component 99"
    ):
        Community(
            components=[comp(1, ComponentClass.DISTRIBUTION_SEGMENT)],
            edges=[],
            cells=[
                GridCell(id=1, population=1, centroid=(0.5, 0.5), power_feed=1,
                         water_feed=99)
            ],
            retailers=[],
        )


def test_all_undamaged_means_all_functional(two_utility):
    damage = damage_for(two_utility, {})
    assert functional_set(two_utility, damage) == {1, 2, 3, 4}


def test_damaged_substation_takes_down_dependents(desk):
    damage = damage_for(desk, {1: COMP})
    # everything hangs off substation 1, directly or transitively
    assert functional_set(desk, damage) == set()


def test_damaged_tank_breaks_pipeline_but_not_power(desk):
    damage = damage_for(desk, {6: EXT})
    functional = functional_set(desk, damage)
    assert 7 not in functional
    assert {1, 2, 3, 4, 5} <= functional


def test_or_junction_survives_one_dead_supplier():
    community = Community(
        components=[
            comp(1, ComponentClass.WELL),
            comp(2, ComponentClass.WELL),
            comp(3, ComponentClass.PIPELINE, any_supplier=True),
            comp(4, ComponentClass.DISTRIBUTION_SEGMENT),
        ],
        edges=[(1, 3), (2, 3)],
        cells=[
            GridCell(id=1, population=1, centroid=(0.5, 0.5), power_feed=4,
                     water_feed=3)
        ],
        retailers=[
            Retailer(id=1, capacity=1.0, centroid=(1.5, 1.5), power_feed=4,
                     water_feed=3)
        ],
    )
    one_down = damage_for(community, {1: COMP})
    both_down = damage_for(community, {1: COMP, 2: COMP})
    assert 3 in functional_set(community, one_down)
    assert 3 not in functional_set(community, both_down)


def test_service_status_reads_feeds(desk):
    damage = damage_for(desk, {4: EXT})
    status = service_status(desk, functional_set(desk, damage))
    assert status.cells[0] == (True, True)
    assert status.cells[1] == (False, True)
    assert status.retailers[0] == (True, True)


def test_gravity_single_retailer_weight_is_one(two_utility):
    weights = gravity_weights(two_utility)
    assert weights == ((1.0,),)


def test_gravity_distance_ratio():
    # equal capacities at distances 1 km and 2 km, exponent 2:
    # 1/1 : 1/4 normalizes to 0.8 / 0.2
    community = Community(
        components=[
            comp(1, ComponentClass.DISTRIBUTION_SEGMENT),
            comp(2, ComponentClass.PIPELINE),
        ],
        edges=[],
        cells=[
            GridCell(id=1, population=100, centroid=(0.0, 0.0), power_feed=1,
                     water_feed=2)
        ],
        retailers=[
            Retailer(id=1, capacity=50.0, centroid=(1.0, 0.0), power_feed=1,
                     water_feed=2),
            Retailer(id=2, capacity=50.0, centroid=(2.0, 0.0), power_feed=1,
                     water_feed=2),
        ],
        gravity_exponent=2.0,
    )
    row = gravity_weights(community)[0]
    assert row == pytest.approx((0.8, 0.2), abs=1e-12)


def test_gravity_capacity_ratio():
    community = Community(
        components=[
            comp(1, ComponentClass.DISTRIBUTION_SEGMENT),
            comp(2, ComponentClass.PIPELINE),
        ],
        edges=[],
        cells=[
            GridCell(id=1, population=100, centroid=(0.0, 0.0), power_feed=1,
                     water_feed=2)
        ],
        retailers=[
            Retailer(id=1, capacity=300.0, centroid=(0.0, 1.0), power_feed=1,
                     water_feed=2),
            Retailer(id=2, capacity=100.0, centroid=(0.0, -1.0), power_feed=1,
                     water_feed=2),
        ],
    )
    row = gravity_weights(community)[0]
    assert row == pytest.approx((0.75, 0.25), abs=1e-12)


def test_gravity_zero_distance_rejected():
    with pytest.raises(
        ValidationError,
        match="cell 1 is co-located with retailer 1; offset one of the centroids",
    ):
        Community(
            components=[
                comp(1, ComponentClass.DISTRIBUTION_SEGMENT),
                comp(2, ComponentClass.PIPELINE),
            ],
            edges=[],
            cells=[
                GridCell(id=1, population=1, centroid=(1.0, 1.0), power_feed=1,
                         water_feed=2)
            ],
            retailers=[
                Retailer(id=1, capacity=10.0, centroid=(1.0, 1.0), power_feed=1,
                         water_feed=2)
            ],
        )


def test_benefit_partial_retailer_weights():
    # one cell of 100 people, weights (0.8, 0.2); only retailer 1 is fully
    # served, so the expected count is 100 * 0.8
    community = Community(
        components=[
            comp(1, ComponentClass.DISTRIBUTION_SEGMENT),
            comp(2, ComponentClass.PIPELINE),
            comp(3, ComponentClass.PIPELINE),
        ],
        edges=[],
        cells=[
            GridCell(id=1, population=100, centroid=(0.0, 0.0), power_feed=1,
                     water_feed=2)
        ],
        retailers=[
            Retailer(id=1, capacity=50.0, centroid=(1.0, 0.0), power_feed=1,
                     water_feed=2),
            Retailer(id=2, capacity=50.0, centroid=(2.0, 0.0), power_feed=1,
                     water_feed=3),
        ],
    )
    damage = damage_for(community, {3: COMP})
    assert benefit_for_damage(
        community, outstanding_mask(community, damage)
    ) == pytest.approx(80.0)


def test_benefit_zero_without_any_full_retailer(desk):
    damage = damage_for(desk, {7: EXT})
    assert benefit_for_damage(desk, outstanding_mask(desk, damage)) == 0.0


def test_benefit_full_restoration_is_total_population(desk):
    damage = damage_for(desk, {})
    assert benefit_for_damage(
        desk, outstanding_mask(desk, damage)
    ) == pytest.approx(1000.0)


def test_benefit_count_matches_mask_path(desk):
    damage = damage_for(desk, {4: EXT})
    status = service_status(desk, functional_set(desk, damage))
    expected = benefit_count(desk, status, desk.weights)
    assert benefit_for_damage(
        desk, outstanding_mask(desk, damage)
    ) == pytest.approx(expected)


def assert_benefit_matches_reference(community, rng, n_sets):
    """benefit_for_damage on random outstanding sets equals the set-based
    benefit oracle fed the fixed-point cascade, exactly."""
    n = community.n_components
    for _ in range(n_sets):
        p = rng.random()
        damage = tuple(
            DamageState(int(rng.integers(1, 5))) if rng.random() < p else N
            for _ in range(n)
        )
        functional = iterative_removal_oracle(community, damage)
        expected = benefit_count(
            community, service_status(community, functional), community.weights
        )
        assert benefit_for_damage(community, outstanding_mask(community, damage)) == (
            expected
        )


def test_benefit_matches_set_reference_on_mini_gilroy():
    community = load_scenario(
        str(Path(recovery_rollout.__file__).parent / "data" / "mini_gilroy.yaml")
    ).community
    assert any(c.any_supplier for c in community.components)
    assert_benefit_matches_reference(community, np.random.default_rng(0), 1000)


def test_benefit_matches_set_reference_on_random_dags():
    """random_dag_community's graphs with cells and retailers fed from
    random EPN components, so the benefit reads the cascade, OR-junctions
    included."""
    rng = np.random.default_rng(1)
    or_junctions = 0
    for _ in range(40):
        dag = random_dag_community(rng, max_nodes=20)
        epn = [c.id for c in dag.components if c.network is Network.EPN]
        water = dag.components[-1].id
        cells = [
            GridCell(id=k, population=int(rng.integers(1, 100)),
                     centroid=(float(k), 1.0),
                     power_feed=int(rng.choice(epn)), water_feed=water)
            for k in range(1, 6)
        ]
        retailers = [
            Retailer(id=k, capacity=float(rng.integers(1, 10)),
                     centroid=(float(k) + 0.5, -1.0),
                     power_feed=int(rng.choice(epn)), water_feed=water)
            for k in range(1, 4)
        ]
        community = Community(
            list(dag.components), list(dag.edges), cells, retailers
        )
        or_junctions += sum(c.any_supplier for c in community.components)
        assert_benefit_matches_reference(community, rng, 30)
    assert or_junctions > 0


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_functional_set_matches_iterative_removal(seed):
    rng = np.random.default_rng(seed)
    community = random_dag_community(rng, max_nodes=20)
    damage = tuple(
        DamageState(int(rng.integers(0, 5))) if rng.random() < 0.4 else N
        for _ in range(community.n_components)
    )
    assert functional_set(community, damage) == iterative_removal_oracle(
        community, damage
    )


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_worsening_damage_never_adds_function(seed):
    rng = np.random.default_rng(seed)
    community = random_dag_community(rng, max_nodes=15)
    base = [
        DamageState(int(rng.integers(0, 3))) for _ in range(community.n_components)
    ]
    worse = [
        DamageState(min(4, int(s) + int(rng.integers(0, 3)))) for s in base
    ]
    fs_base = functional_set(community, tuple(base))
    fs_worse = functional_set(community, tuple(worse))
    assert fs_worse <= fs_base
    assert benefit_for_damage(
        community, outstanding_mask(community, worse)
    ) <= benefit_for_damage(community, outstanding_mask(community, base)) + 1e-9


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_single_repair_never_shrinks_functional_set(seed):
    rng = np.random.default_rng(seed)
    community = random_dag_community(rng, max_nodes=15)
    damage = [
        DamageState(int(rng.integers(0, 5))) for _ in range(community.n_components)
    ]
    damaged = [i for i, s in enumerate(damage) if s != N]
    if not damaged:
        return
    target = damaged[int(rng.integers(0, len(damaged)))]
    before = functional_set(community, tuple(damage))
    repaired = list(damage)
    repaired[target] = N
    after = functional_set(community, tuple(repaired))
    assert before <= after


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gravity_rows_normalized_and_benefit_bounded(seed):
    rng = np.random.default_rng(seed)
    community = random_dag_community(rng, max_nodes=12)
    for row in community.weights:
        assert abs(sum(row) - 1.0) <= 1e-12
    damage = tuple(
        DamageState(int(rng.integers(0, 5))) for _ in range(community.n_components)
    )
    value = benefit_for_damage(community, outstanding_mask(community, damage))
    assert 0.0 <= value <= community.total_population + 1e-9


@pytest.mark.parametrize("owner", ["component", "cell", "retailer"])
def test_duplicate_ids_rejected(owner):
    components = [
        comp(1, ComponentClass.DISTRIBUTION_SEGMENT),
        comp(2, ComponentClass.PIPELINE),
    ]
    cells = [
        GridCell(id=1, population=1, centroid=(0.5, 0.5), power_feed=1,
                 water_feed=2)
    ]
    retailers = [
        Retailer(id=1, capacity=1.0, centroid=(1.5, 0.5), power_feed=1,
                 water_feed=2)
    ]
    twin = {"component": components, "cell": cells, "retailer": retailers}[owner]
    twin.append(twin[0])
    with pytest.raises(ValidationError, match=f"duplicate {owner} id 1"):
        Community(components, [], cells, retailers)


def test_functional_mask_index_alignment(desk):
    damage = damage_for(desk, {5: COMP})
    functional = functional_mask(desk, outstanding_mask(desk, damage))
    by_id = {
        desk.components[i].id: bool(functional >> i & 1)
        for i in range(desk.n_components)
    }
    assert by_id == {1: True, 2: True, 3: True, 4: True, 5: False, 6: False,
                     7: False}


def test_cached_benefit_keyed_by_outstanding_set(count_mask_calls):
    community = desk_community()
    calls = count_mask_calls()
    D = DamageState
    light = damage_for(community, {1: D.MINOR, 5: D.MODERATE})
    heavy = damage_for(community, {1: COMP, 5: D.EXTENSIVE})
    first = benefit_for_damage_cached(community, light)
    second = benefit_for_damage_cached(community, heavy)
    assert len(community._mask_benefit) == 1
    assert calls[0] == 1
    assert second == first == benefit_for_damage(
        community, outstanding_mask(community, heavy)
    )
