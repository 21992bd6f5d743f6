"""Shared builders for desk-scale test communities.

Tests construct tiny networks in code rather than loading scenario files,
so each case pins exactly the structure it exercises.  The bundled YAML
fixtures are only touched by the scenario/CLI tests and the acceptance
suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from recovery_rollout import community as community_module
from recovery_rollout.community import (
    Community,
    Component,
    ComponentClass,
    DamageState,
    GridCell,
    Retailer,
    benefit_for_damage,
    benefit_for_damage_cached,
    functional_mask,
)
from recovery_rollout.errors import InstanceTooLarge, TerminalState, ValidationError
from recovery_rollout.mdp import (
    MdpConfig,
    Objective,
    RecoveryState,
    RepairAction,
    RepairModel,
    check_admissible,
    coverage_threshold,
    enumerate_actions,
    initial_state,
    is_terminal,
    transition,
)
from recovery_rollout.planner import (
    PriorityBasePolicy,
    _base_picks,
    _continuation_tables,
)

PIPE_DAYS = {
    DamageState.MINOR: 0.5,
    DamageState.MODERATE: 1.0,
    DamageState.EXTENSIVE: 2.0,
    DamageState.COMPLETE: 4.0,
}


def comp(
    cid: int,
    kind: ComponentClass,
    days: dict[DamageState, float] | None = None,
    any_supplier: bool = False,
) -> Component:
    from recovery_rollout.community import DAMAGED_STATES, DEFAULT_REPAIR_DAYS

    if days is None:
        if kind is ComponentClass.PIPELINE:
            days = PIPE_DAYS
        else:
            days = dict(zip(DAMAGED_STATES, DEFAULT_REPAIR_DAYS[kind]))
    return Component(
        id=cid, kind=kind, mean_repair_days=dict(days), any_supplier=any_supplier
    )


def damage_for(community: Community, states: dict[int, DamageState]):
    """Damage vector in index order from a sparse id -> state mapping."""
    return tuple(
        states.get(c.id, DamageState.NONE) for c in community.components
    )


def two_utility_community() -> Community:
    """Smallest community with both networks live: substation 1 ->
    distribution 2 powers everything; well 3 -> pipeline 4 supplies water.
    One cell, one retailer."""
    components = [
        comp(1, ComponentClass.SUBSTATION),
        comp(2, ComponentClass.DISTRIBUTION_SEGMENT),
        comp(3, ComponentClass.WELL),
        comp(4, ComponentClass.PIPELINE),
    ]
    edges = [(1, 2), (3, 4)]
    cells = [
        GridCell(id=1, population=1000, centroid=(1.0, 0.0), power_feed=2, water_feed=4)
    ]
    retailers = [
        Retailer(id=1, capacity=100.0, centroid=(1.0, 1.0), power_feed=2, water_feed=4)
    ]
    return Community(components, edges, cells, retailers)


def desk_community() -> Community:
    """Seven components mirroring the bundled deterministic fixture:
    substation 1 -> transmission 2 -> distributions 3, 4; well 5 (powered
    by 3) -> tank 6 -> pipeline 7.  Two cells (600 and 400 people), one
    retailer on feeds 3 / 7."""
    components = [
        comp(1, ComponentClass.SUBSTATION),
        comp(2, ComponentClass.TRANSMISSION_SEGMENT),
        comp(3, ComponentClass.DISTRIBUTION_SEGMENT),
        comp(4, ComponentClass.DISTRIBUTION_SEGMENT),
        comp(5, ComponentClass.WELL),
        comp(6, ComponentClass.WATER_TANK),
        comp(7, ComponentClass.PIPELINE),
    ]
    edges = [(1, 2), (2, 3), (2, 4), (3, 5), (5, 6), (6, 7)]
    cells = [
        GridCell(id=1, population=600, centroid=(2.2, 0.8), power_feed=3, water_feed=7),
        GridCell(id=2, population=400, centroid=(2.2, -0.8), power_feed=4, water_feed=7),
    ]
    retailers = [
        Retailer(id=1, capacity=100.0, centroid=(2.4, 0.3), power_feed=3, water_feed=7)
    ]
    return Community(components, edges, cells, retailers)


def random_dag_community(rng: np.random.Generator, max_nodes: int = 30) -> Community:
    """Random acyclic EPN-only dependency graph for functionality-oracle
    checks.  Edges only go from lower to higher index, so acyclicity holds
    by construction; roughly a quarter of multi-supplier nodes are
    OR-junctions."""
    n = int(rng.integers(2, max_nodes + 1))
    components = []
    edges: list[tuple[int, int]] = []
    any_flags: dict[int, bool] = {}
    for i in range(1, n + 1):
        suppliers = [j for j in range(1, i) if rng.random() < 0.25]
        any_flags[i] = len(suppliers) > 1 and rng.random() < 0.25
        components.append(
            comp(
                i,
                ComponentClass.DISTRIBUTION_SEGMENT,
                any_supplier=any_flags[i],
            )
        )
        edges.extend((j, i) for j in suppliers)
    # water side + service plumbing kept constant; the oracle only reads
    # the EPN subgraph
    components.append(comp(n + 1, ComponentClass.PIPELINE))
    cells = [
        GridCell(
            id=1, population=10, centroid=(0.5, 0.5), power_feed=1, water_feed=n + 1
        )
    ]
    retailers = [
        Retailer(
            id=1, capacity=5.0, centroid=(1.5, 0.0), power_feed=1, water_feed=n + 1
        )
    ]
    return Community(components, edges, cells, retailers)


def outstanding_mask(community: Community, damage: tuple[DamageState, ...]) -> int:
    """Bitmask of the damaged component indices (bit i is index i)."""
    return sum(1 << i for i in range(community.n_components) if damage[i])


def functional_set(
    community: Community, damage: tuple[DamageState, ...]
) -> frozenset[int]:
    """Ids of functional components under the given damage vector, read
    off the package's functional bitmask."""
    functional = functional_mask(community, outstanding_mask(community, damage))
    return frozenset(
        community.components[i].id
        for i in range(community.n_components)
        if functional >> i & 1
    )


def iterative_removal_oracle(
    community: Community, damage: tuple[DamageState, ...]
) -> frozenset[int]:
    """Fixed point by repeated sweeps: start from all undamaged components,
    drop any whose supplier support fails (every supplier for AND nodes, all
    suppliers for OR nodes), repeat until stable."""
    suppliers: list[list[int]] = [[] for _ in range(community.n_components)]
    for supplier, dependent in community.edges:
        suppliers[community.index_of[dependent]].append(community.index_of[supplier])
    alive = {
        i
        for i in range(community.n_components)
        if damage[i] == DamageState.NONE
    }
    changed = True
    while changed:
        changed = False
        for i in sorted(alive):
            sup = suppliers[i]
            if not sup:
                continue
            if community.components[i].any_supplier:
                ok = any(s in alive for s in sup)
            else:
                ok = all(s in alive for s in sup)
            if not ok:
                alive.remove(i)
                changed = True
    return frozenset(community.components[i].id for i in sorted(alive))


@dataclass(frozen=True)
class ServiceStatus:
    """Utility availability per cell and per retailer, aligned with the
    community's cell/retailer ordering.  Each entry is (has_power, has_water)."""

    cells: tuple[tuple[bool, bool], ...]
    retailers: tuple[tuple[bool, bool], ...]


def service_status(community: Community, functional: frozenset[int]) -> ServiceStatus:
    """Utility availability for every cell and retailer, looked up from the
    functional set of component ids."""
    fn = functional
    cells = tuple(
        (cell.power_feed in fn, cell.water_feed in fn) for cell in community.cells
    )
    retailers = tuple(
        (r.power_feed in fn, r.water_feed in fn) for r in community.retailers
    )
    return ServiceStatus(cells=cells, retailers=retailers)


def benefit_count(
    community: Community,
    status: ServiceStatus,
    weights: tuple[tuple[float, ...], ...],
) -> float:
    """Set-based benefit oracle, independent of the mask path: expected
    number of people with power, water, and access to a fully served
    retailer.  A retailer missing either utility contributes nothing."""
    total = 0.0
    for ci, (has_power, has_water) in enumerate(status.cells):
        if not (has_power and has_water):
            continue
        row = weights[ci]
        served = 0.0
        for ri, (r_power, r_water) in enumerate(status.retailers):
            if r_power and r_water:
                served += row[ri]
        total += community.populations[ci] * served
    return total


class FreshDraws:
    """Memoryless stand-in for transition's noise list: every read redraws
    and every write is discarded.  The per-step law is the same as the
    work-tracking list's."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def __getitem__(self, component_index: int) -> float:
        return float(self.rng.standard_exponential())

    def __setitem__(self, component_index: int, value: float) -> None:
        pass


def reference_base_action(
    damage: tuple[DamageState, ...],
    community: Community,
    config: MdpConfig,
    policy: PriorityBasePolicy,
) -> RepairAction:
    """The base rule by sorting: per network, order the damaged indices by
    (class rank in the policy, component id) and take the first k, where k
    is that network's crew count."""
    comps = community.components
    picked: list[int] = []
    for order, crews in (
        (policy.epn_priority, config.n_e),
        (policy.wn_priority, config.n_w),
    ):
        rank = {kind: r for r, kind in enumerate(order)}
        damaged = [
            i for i in range(community.n_components)
            if damage[i] != DamageState.NONE and comps[i].kind in rank
        ]
        damaged.sort(key=lambda i: (rank[comps[i].kind], comps[i].id))
        picked.extend(damaged[:crews])
    return RepairAction(tuple(sorted(picked)))


def reference_trajectory_return(
    state: RecoveryState,
    first_action: RepairAction,
    base_policy: PriorityBasePolicy,
    mdp: MdpConfig,
    community: Community,
    draws: list[float] | None,
) -> float:
    """Rollout trajectory by the public step functions: force first_action,
    then reference_base_action and transition until is_terminal,
    discounting each later reward by one more factor of gamma."""
    x, total = transition(state, first_action, community, mdp, draws)
    disc = 1.0
    while not is_terminal(x, community, mdp):
        action = reference_base_action(x.damage, community, mdp, base_policy)
        x, r = transition(x, action, community, mdp, draws)
        disc *= mdp.gamma
        total += disc * r
    return total


def exact_base_q(
    state: RecoveryState,
    action: RepairAction,
    base_policy: PriorityBasePolicy,
    mdp: MdpConfig,
    community: Community,
) -> float:
    """Exact expected return of forcing action at state and then following
    the base policy, for the time objective under exponential repairs.
    The outstanding set is then a continuous-time Markov chain: with rates
    lam_i = 1/m_i over the assigned components and Lam their sum, a step
    lasts 1/Lam in expectation and repairs i with probability lam_i/Lam, so
        V(m) = -1/Lam + gamma * sum_i (lam_i/Lam) * V(m without i),
    with V = 0 once benefit/population reaches coverage_threshold.  Q is
    the same formula with action's indices as the picks.  The picks come
    from _continuation_tables and _base_picks, as in the Monte-Carlo
    continuation and base_action."""
    if (mdp.objective is not Objective.MIN_TIME_TO_COVERAGE
            or mdp.repair_model is not RepairModel.EXPONENTIAL):
        raise ValidationError("the chain covers the time objective under "
                              "exponential repairs")
    mask, networks, _ = _continuation_tables(state, base_policy, mdp, community)
    unit = {i: m for order, _ in networks for _, i, m in order}
    threshold = coverage_threshold(community, mdp)
    values: dict[int, float] = {}

    def chain(m: int, picks) -> float:
        rates = [(1 << i, 1.0 / unit[i]) for i in picks]
        lam = sum(rate for _, rate in rates)
        return -1.0 / lam + mdp.gamma * sum(
            rate / lam * value(m ^ bit) for bit, rate in rates
        )

    def value(m: int) -> float:
        if m not in values:
            benefit = benefit_for_damage(community, m)
            values[m] = (
                0.0 if benefit / community.total_population >= threshold
                else chain(m, [i for _, i, _ in _base_picks(m, networks)])
            )
        return values[m]

    return chain(mask, action.indices)


REFERENCE_MAX_DAMAGED = 8
REFERENCE_MAX_SCHEDULES = 1_000_000


def reference_exhaustive_oracle(
    damage: tuple[DamageState, ...],
    community: Community,
    mdp: MdpConfig,
    first: RepairAction | None = None,
) -> tuple[float, RepairAction]:
    """Exact optimum over every preemptive schedule by depth-first search,
    the reference for planner.exhaustive_oracle.  Deterministic repair
    model only; guarded to desk scale.  Returns the natural objective value
    (days for the time objective, persons per day for the benefit
    objective) and an optimal first action.  With first given, only
    schedules that start with it are searched."""
    if mdp.repair_model is not RepairModel.REMAINING_WORK:
        raise ValidationError("oracle needs the deterministic repair model")
    n_damaged = sum(1 for d in damage if d)
    if n_damaged > REFERENCE_MAX_DAMAGED:
        raise InstanceTooLarge(
            f"{n_damaged} damaged components exceed the oracle bound "
            f"{REFERENCE_MAX_DAMAGED}"
        )
    minimize = mdp.objective is Objective.MIN_TIME_TO_COVERAGE
    sign = 1.0 if minimize else -1.0
    visited = [0]

    def search(
        state: RecoveryState, area: float, only: RepairAction | None = None
    ) -> tuple[float, RepairAction | None]:
        if is_terminal(state, community, mdp):
            if minimize:
                return state.elapsed_time, None
            if state.elapsed_time == 0.0:
                return benefit_for_damage_cached(community, state.damage), None
            return area / state.elapsed_time, None
        best = math.inf * sign
        best_action: RepairAction | None = None
        actions = (
            [only] if only is not None
            else enumerate_actions(
                state, community, mdp, cap=REFERENCE_MAX_SCHEDULES
            )
        )
        benefit_now = benefit_for_damage_cached(community, state.damage)
        for action in actions:
            visited[0] += 1
            if visited[0] > REFERENCE_MAX_SCHEDULES:
                raise InstanceTooLarge(
                    "schedule enumeration exceeded the oracle bound"
                )
            nxt, _ = transition(state, action, community, mdp, None)
            elapsed = nxt.elapsed_time - state.elapsed_time
            value, _ = search(nxt, area + benefit_now * elapsed)
            if sign * value < sign * best or (
                value == best
                and best_action is not None
                and action.indices > best_action.indices
            ):
                best = value
                best_action = action
        assert best_action is not None
        return best, best_action

    value, best_first = search(initial_state(community, damage, mdp), 0.0, first)
    if best_first is None:
        raise TerminalState("initial state is already terminal")
    return value, best_first


def step(
    state: RecoveryState,
    action: RepairAction,
    community: Community,
    config: MdpConfig,
    draws: list[float] | FreshDraws | None,
) -> tuple[RecoveryState, float]:
    """transition with the admissibility check in front."""
    check_admissible(state, action, community, config)
    return transition(state, action, community, config, draws)


@pytest.fixture
def two_utility():
    return two_utility_community()


@pytest.fixture
def desk():
    return desk_community()


@pytest.fixture
def count_mask_calls(monkeypatch):
    """Call it to start counting the functional_mask calls that go through
    the community module (the benefit path); it returns a one-element list
    holding the count."""

    def start() -> list[int]:
        real_mask = community_module.functional_mask
        calls = [0]

        def counting_mask(*args):
            calls[0] += 1
            return real_mask(*args)

        monkeypatch.setattr(community_module, "functional_mask", counting_mask)
        return calls

    return start

