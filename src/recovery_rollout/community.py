"""Interdependent infrastructure model: networks, population grid, retailers.

The community is a directed acyclic dependency graph over electrical (EPN)
and water (WN) components.  A component is functional when it is undamaged
and its suppliers are functional; service to grid cells and retailers is
read off the functional set, and the benefitted-population count weights
cells onto retailers with a gravity model.  Sets of components are int
bitmasks over component indices (bit i is index i): the cascade maps the
outstanding set to the functional set, and the benefit is a function of
the outstanding set alone.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from .errors import ValidationError


class Network(enum.Enum):
    EPN = "epn"
    WN = "wn"


class ComponentClass(enum.Enum):
    SUBSTATION = "substation"
    TRANSMISSION_SEGMENT = "transmission"
    DISTRIBUTION_SEGMENT = "distribution"
    WATER_TANK = "water_tank"
    WELL = "well"
    PUMPING_PLANT = "pumping_plant"
    PIPELINE = "pipeline"

    # identity hash agrees with == for singleton members; Enum.__hash__ runs in Python
    __hash__ = object.__hash__

    @property
    def network(self) -> Network:
        if self in (
            ComponentClass.SUBSTATION,
            ComponentClass.TRANSMISSION_SEGMENT,
            ComponentClass.DISTRIBUTION_SEGMENT,
        ):
            return Network.EPN
        return Network.WN


class DamageState(enum.IntEnum):
    """Ordered damage levels; NONE means fully functional."""

    NONE = 0
    MINOR = 1
    MODERATE = 2
    EXTENSIVE = 3
    COMPLETE = 4


DAMAGED_STATES = (
    DamageState.MINOR,
    DamageState.MODERATE,
    DamageState.EXTENSIVE,
    DamageState.COMPLETE,
)

# Expected repair durations in days, by class and damage state
# (minor, moderate, extensive, complete).  Pipelines carry no default:
# scenarios must supply repair times for them explicitly.
DEFAULT_REPAIR_DAYS: dict[ComponentClass, tuple[float, float, float, float]] = {
    ComponentClass.SUBSTATION: (1.0, 3.0, 7.0, 30.0),
    ComponentClass.TRANSMISSION_SEGMENT: (0.5, 1.0, 1.0, 2.0),
    ComponentClass.DISTRIBUTION_SEGMENT: (0.5, 1.0, 1.0, 1.0),
    ComponentClass.WATER_TANK: (1.2, 3.1, 93.0, 155.0),
    ComponentClass.WELL: (0.8, 1.5, 10.5, 26.0),
    ComponentClass.PUMPING_PLANT: (0.9, 3.1, 13.5, 35.0),
}


@dataclass(frozen=True)
class Component:
    """One repairable element of the EPN or WN.

    ``any_supplier=True`` marks a virtual OR-junction: it is functional when
    undamaged and at least one supplier is functional, which expresses
    redundant feeds that a pure AND graph cannot.
    """

    id: int
    kind: ComponentClass
    mean_repair_days: dict[DamageState, float]
    any_supplier: bool = False

    @property
    def network(self) -> Network:
        return self.kind.network

    def __post_init__(self) -> None:
        previous = 0.0
        for state in DAMAGED_STATES:
            if state not in self.mean_repair_days:
                raise ValidationError(
                    f"component {self.id}: missing repair time for {state.name}"
                )
            days = float(self.mean_repair_days[state])
            if days <= 0.0:
                raise ValidationError(
                    f"component {self.id}: repair time for {state.name} must be > 0"
                )
            if days < previous:
                raise ValidationError(
                    f"component {self.id}: repair times must not decrease with severity"
                )
            previous = days


@dataclass(frozen=True)
class GridCell:
    id: int
    population: int
    centroid: tuple[float, float]
    power_feed: int
    water_feed: int


@dataclass(frozen=True)
class Retailer:
    id: int
    capacity: float
    centroid: tuple[float, float]
    power_feed: int
    water_feed: int

    def __post_init__(self) -> None:
        if self.capacity <= 0.0:
            raise ValidationError(f"retailer {self.id}: capacity must be > 0")


class Community:
    """Validated, immutable composition of components, dependency edges,
    cells and retailers, with derived index structures precomputed for
    simulation.  Edges run supplier -> dependent and are hard
    AND-dependencies unless the dependent is an OR-junction.

    The cascade and the service checks work on bitmasks: `cascade` holds
    each component's supplier bitmask in topological order, and
    `cell_feeds` / `retailer_feeds` each one's pair of feeds.  Construction
    raises a ValidationError naming any broken invariant; attributes are
    read-only by convention.  The benefit memo, keyed by outstanding-set
    bitmask, is a plain dict on the community, so it lives and dies with
    it.
    """

    def __init__(
        self,
        components: list[Component],
        edges: list[tuple[int, int]],
        cells: list[GridCell],
        retailers: list[Retailer],
        gravity_exponent: float = 2.0,
    ) -> None:
        if gravity_exponent <= 0.0:
            raise ValidationError("gravity_exponent must be > 0")
        self.components: tuple[Component, ...] = tuple(
            sorted(components, key=lambda c: c.id)
        )
        self.edges: tuple[tuple[int, int], ...] = tuple(
            (int(s), int(d)) for s, d in edges
        )
        self.cells: tuple[GridCell, ...] = tuple(sorted(cells, key=lambda c: c.id))
        self.retailers: tuple[Retailer, ...] = tuple(
            sorted(retailers, key=lambda r: r.id)
        )
        self.gravity_exponent = float(gravity_exponent)

        # each tuple is sorted by id, so a repeated id sits next to its twin
        for owner, items in (
            ("component", self.components),
            ("cell", self.cells),
            ("retailer", self.retailers),
        ):
            for prev, item in zip(items, items[1:]):
                if prev.id == item.id:
                    raise ValidationError(f"duplicate {owner} id {item.id}")
        self.index_of: dict[int, int] = {
            comp.id: idx for idx, comp in enumerate(self.components)
        }
        n = len(self.components)
        self.index_bits: tuple[int, ...] = tuple(1 << i for i in range(n))

        self._validate_edges()
        supplier_bits = [0] * n
        for supplier, dependent in self.edges:
            supplier_bits[self.index_of[dependent]] |= 1 << self.index_of[supplier]
        # the cascade in topological order: per component its bit, its
        # suppliers' bitmask, and whether one functional supplier suffices
        # (an OR-junction with suppliers)
        self.cascade: tuple[tuple[int, int, bool], ...] = tuple(
            (1 << i, supplier_bits[i],
             self.components[i].any_supplier and bool(supplier_bits[i]))
            for i in self._toposort()
        )

        self.network_of: tuple[Network, ...] = tuple(
            c.network for c in self.components
        )
        # per class, its component indices ascending (so also by id)
        by_class: dict[ComponentClass, list[int]] = {k: [] for k in ComponentClass}
        for idx, comp in enumerate(self.components):
            by_class[comp.kind].append(idx)
        self.indices_by_class: dict[ComponentClass, tuple[int, ...]] = {
            k: tuple(ix) for k, ix in by_class.items()
        }
        self.epn_indices: tuple[int, ...] = tuple(
            i for i in range(n) if self.network_of[i] is Network.EPN
        )
        self.wn_indices: tuple[int, ...] = tuple(
            i for i in range(n) if self.network_of[i] is Network.WN
        )
        # repair_means[idx][state] with index 0 (NONE) unused
        self.repair_means: tuple[tuple[float, ...], ...] = tuple(
            (math.nan,) + tuple(c.mean_repair_days[s] for s in DAMAGED_STATES)
            for c in self.components
        )

        self._validate_feeds()
        # per cell and per retailer, the bitmask of its power and water
        # feeds: served when both are functional
        self.cell_feeds, self.retailer_feeds = (
            tuple(
                1 << self.index_of[x.power_feed] | 1 << self.index_of[x.water_feed]
                for x in owners
            )
            for owners in (self.cells, self.retailers)
        )
        self.populations: tuple[int, ...] = tuple(c.population for c in self.cells)
        self.total_population: int = sum(self.populations)

        self.weights: tuple[tuple[float, ...], ...] = gravity_weights(self)
        # the covered fraction with nothing damaged: 1 up to rounding in
        # the weights, which can leave it one ulp short
        self.full_coverage: float = (
            benefit_for_damage(self, 0) / self.total_population
            if self.total_population
            else 1.0
        )
        # outstanding sets recur heavily across simulated trajectories, so
        # benefit_for_damage_cached and the planner's base-policy
        # continuation share one benefit memo keyed by the outstanding-set
        # bitmask sum(itertools.compress(index_bits, damage)): bit i is set
        # when component index i is damaged
        self._mask_benefit: dict[int, float] = {}

    @property
    def n_components(self) -> int:
        return len(self.components)

    def _validate_edges(self) -> None:
        for supplier, dependent in self.edges:
            for cid in (supplier, dependent):
                if cid not in self.index_of:
                    raise ValidationError(
                        f"dependency edge ({supplier} -> {dependent}) references "
                        f"unknown component {cid}"
                    )
            sup = self.components[self.index_of[supplier]]
            dep = self.components[self.index_of[dependent]]
            if dep.network is Network.EPN and sup.network is not Network.EPN:
                raise ValidationError(
                    f"EPN component {dependent} cannot depend on "
                    f"{sup.network.value.upper()} component {supplier}"
                )
            if dep.kind is ComponentClass.PIPELINE and sup.network is not Network.WN:
                raise ValidationError(
                    f"pipeline {dependent} cannot depend directly on "
                    f"EPN component {supplier}"
                )

    def _toposort(self) -> tuple[int, ...]:
        n = len(self.components)
        indegree = [0] * n
        dependents: list[list[int]] = [[] for _ in range(n)]
        for supplier, dependent in self.edges:
            s, d = self.index_of[supplier], self.index_of[dependent]
            indegree[d] += 1
            dependents[s].append(d)
        frontier = sorted(i for i in range(n) if indegree[i] == 0)
        order: list[int] = []
        while frontier:
            i = frontier.pop(0)
            order.append(i)
            for d in dependents[i]:
                indegree[d] -= 1
                if indegree[d] == 0:
                    frontier.append(d)
        if len(order) != n:
            stuck = sorted(self.components[i].id for i in range(n) if indegree[i] > 0)
            raise ValidationError(f"dependency cycle through components {stuck}")
        return tuple(order)

    def _validate_feeds(self) -> None:
        for cell in self.cells:
            self._check_feed("cell", cell.id, cell.power_feed, Network.EPN)
            self._check_feed("cell", cell.id, cell.water_feed, Network.WN)
        for retailer in self.retailers:
            self._check_feed("retailer", retailer.id, retailer.power_feed, Network.EPN)
            self._check_feed("retailer", retailer.id, retailer.water_feed, Network.WN)

    def _check_feed(self, owner: str, owner_id: int, feed: int, network: Network) -> None:
        if feed not in self.index_of:
            raise ValidationError(
                f"{owner} {owner_id}: feed references unknown component {feed}"
            )
        actual = self.components[self.index_of[feed]].network
        if actual is not network:
            raise ValidationError(
                f"{owner} {owner_id}: {network.value} feed points at a "
                f"{actual.value} component ({feed})"
            )


def functional_mask(community: Community, outstanding: int) -> int:
    """Bitmask of the functional components (bit i is component index i)
    when the components in the bitmask `outstanding` await repair: each is
    functional when not outstanding and all (or, for an OR-junction, at
    least one) of its suppliers are functional; one with no suppliers works
    once repaired.  Well defined because the graph is acyclic; computed in
    one topological pass."""
    functional = 0
    for bit, suppliers, any_one in community.cascade:
        if outstanding & bit:
            continue
        up = functional & suppliers
        if up if any_one else up == suppliers:
            functional |= bit
    return functional


def gravity_weights(community: Community) -> tuple[tuple[float, ...], ...]:
    """Cell-by-retailer shopping weights: capacity times inverse-power
    distance, normalized so each row sums to one."""
    if not community.retailers:
        raise ValidationError("community has no retailers")
    p = community.gravity_exponent
    rows: list[tuple[float, ...]] = []
    for cell in community.cells:
        raw: list[float] = []
        for retailer in community.retailers:
            dx = cell.centroid[0] - retailer.centroid[0]
            dy = cell.centroid[1] - retailer.centroid[1]
            dist = math.hypot(dx, dy)
            if dist == 0.0:
                raise ValidationError(
                    f"cell {cell.id} is co-located with retailer {retailer.id}; "
                    "offset one of the centroids"
                )
            raw.append(retailer.capacity * dist**-p)
        total = sum(raw)
        rows.append(tuple(w / total for w in raw))
    return tuple(rows)


def benefit_for_damage(community: Community, outstanding: int) -> float:
    """Benefit count of the outstanding-set bitmask `outstanding`, uncached:
    the miss path of the mask-keyed benefit memo."""
    functional = functional_mask(community, outstanding)
    ret_ok = [functional & feeds == feeds for feeds in community.retailer_feeds]
    if not any(ret_ok):
        return 0.0
    total = 0.0
    weights = community.weights
    for ci, feeds in enumerate(community.cell_feeds):
        if functional & feeds == feeds:
            row = weights[ci]
            served = 0.0
            for ri, ok in enumerate(ret_ok):
                if ok:
                    served += row[ri]
            total += community.populations[ci] * served
    return total


def benefit_for_damage_cached(
    community: Community, damage: tuple[DamageState, ...]
) -> float:
    """Benefit count memoized in community._mask_benefit under the
    outstanding-set bitmask of `damage`, so damage vectors that differ only
    in levels share one entry."""
    memo = community._mask_benefit
    key = sum(itertools.compress(community.index_bits, damage))
    value = memo.get(key)
    if value is None:
        value = memo[key] = benefit_for_damage(community, key)
    return value
