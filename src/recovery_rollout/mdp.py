"""Recovery MDP: states, repair actions, and the stochastic transition
simulator.

A state is the damage vector plus elapsed time.  An action assigns each
network's repair crews to damaged components of that network.  A step draws
repair times, advances time to the first completion, repairs that component,
and pays a reward that depends on the configured objective.  Scheduling is
preemptive: crews are reassigned from scratch at every decision epoch, which
is lossless for exponential repair times.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .community import (
    Community,
    DamageState,
    Network,
    benefit_for_damage_cached,
)
from .errors import (
    InadmissibleAction,
    TerminalState,
    ValidationError,
    ZeroElapsedTime,
    ZeroPopulation,
)


class Objective(enum.Enum):
    # reach the coverage threshold as fast as possible
    MIN_TIME_TO_COVERAGE = "min_time_to_coverage"
    # maximize benefitted persons per day over the full recovery
    MAX_BENEFIT_RATE = "max_benefit_rate"


class RepairModel(enum.Enum):
    EXPONENTIAL = "exponential"
    REMAINING_WORK = "remaining_work"


@dataclass(frozen=True)
class MdpConfig:
    n_e: int
    n_w: int
    gamma: float = 0.99
    objective: Objective = Objective.MIN_TIME_TO_COVERAGE
    alpha: float = 0.8
    repair_model: RepairModel = RepairModel.EXPONENTIAL

    def __post_init__(self) -> None:
        if self.n_e < 1 or self.n_w < 1:
            raise ValidationError("each network needs at least one repair crew")
        if not 0.0 < self.gamma <= 1.0:
            raise ValidationError("gamma must be in (0, 1]")
        if not 0.0 < self.alpha <= 1.0:
            raise ValidationError("alpha must be in (0, 1]")


@dataclass(frozen=True)
class RecoveryState:
    """Damage per component (community index order), elapsed days, and, in
    remaining-work mode, outstanding repair effort per component."""

    damage: tuple[DamageState, ...]
    elapsed_time: float = 0.0
    remaining_work: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.elapsed_time < 0.0:
            raise ValidationError("elapsed_time must be >= 0")
        if self.remaining_work is not None:
            if len(self.remaining_work) != len(self.damage):
                raise ValidationError("remaining_work length must match damage")
            for state, work in zip(self.damage, self.remaining_work):
                if work < 0.0:
                    raise ValidationError("remaining_work entries must be >= 0")
                if state and work == 0.0:
                    raise ValidationError(
                        "damaged components need positive remaining_work"
                    )


@dataclass(frozen=True)
class RepairAction:
    """Crew assignment as the ascending indices of the components the crews
    repair; admissible when they are damaged and each network's count
    equals min(crews, damaged)."""

    indices: tuple[int, ...]

    def assigned_indices(self) -> tuple[int, ...]:
        return self.indices


def initial_state(
    community: Community,
    damage: tuple[DamageState, ...],
    config: MdpConfig,
) -> RecoveryState:
    """State at time zero; in remaining-work mode each damaged component
    starts with its full expected repair effort outstanding."""
    if len(damage) != community.n_components:
        raise ValidationError("damage vector length must match component count")
    remaining: tuple[float, ...] | None = None
    if config.repair_model is RepairModel.REMAINING_WORK:
        remaining = tuple(
            community.repair_means[i][int(d)] if d else 0.0
            for i, d in enumerate(damage)
        )
    return RecoveryState(damage=tuple(damage), remaining_work=remaining)


def damaged_indices(
    state: RecoveryState, community: Community
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(EPN, WN) indices of currently damaged components, ascending."""
    damage = state.damage
    epn = tuple(i for i in community.epn_indices if damage[i])
    wn = tuple(i for i in community.wn_indices if damage[i])
    return epn, wn


def count_admissible(
    state: RecoveryState, community: Community, config: MdpConfig
) -> int:
    """Number of admissible crew assignments, the product of per-network
    k-subset counts."""
    epn, wn = damaged_indices(state, community)
    return math.comb(len(epn), min(config.n_e, len(epn))) * math.comb(
        len(wn), min(config.n_w, len(wn))
    )


def check_admissible(
    state: RecoveryState,
    action: RepairAction,
    community: Community,
    config: MdpConfig,
) -> None:
    """Raises InadmissibleAction unless the action is valid in this state."""
    indices = action.indices
    if any(not 0 <= i < community.n_components for i in indices):
        raise InadmissibleAction("component index out of range")
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise InadmissibleAction("indices must be ascending and distinct")
    for i in indices:
        if not state.damage[i]:
            raise InadmissibleAction(
                f"component {community.components[i].id} is not damaged"
            )
    epn, wn = damaged_indices(state, community)
    if not epn and not wn:
        raise InadmissibleAction("state is terminal; no admissible action exists")
    n_epn = sum(community.network_of[i] is Network.EPN for i in indices)
    n_wn = len(indices) - n_epn
    want_e = min(config.n_e, len(epn))
    want_w = min(config.n_w, len(wn))
    if n_epn != want_e or n_wn != want_w:
        raise InadmissibleAction(
            f"assignment uses ({n_epn}, {n_wn}) crews, expected ({want_e}, {want_w})"
        )


def enumerate_actions(
    state: RecoveryState,
    community: Community,
    config: MdpConfig,
    cap: int = 500,
    rng: np.random.Generator | None = None,
    must_include: RepairAction | None = None,
) -> list[RepairAction]:
    """All admissible actions when their count fits under cap, otherwise cap
    distinct uniform samples that always include must_include (the base
    action).  Deterministic given the rng seed."""
    epn, wn = damaged_indices(state, community)
    if not epn and not wn:
        raise TerminalState("no damaged components; nothing to assign")
    k_e = min(config.n_e, len(epn))
    k_w = min(config.n_w, len(wn))
    total = math.comb(len(epn), k_e) * math.comb(len(wn), k_w)

    if total <= cap:
        return [
            RepairAction(tuple(sorted(e_sub + w_sub)))
            for e_sub in itertools.combinations(epn, k_e)
            for w_sub in itertools.combinations(wn, k_w)
        ]

    if rng is None:
        raise ValidationError(
            f"{total} admissible actions exceed cap {cap}; an rng is required "
            "for sampling"
        )
    chosen = [must_include] if must_include is not None else []
    seen = {action.indices for action in chosen}
    while len(chosen) < cap:
        e_sub = rng.choice(len(epn), size=k_e, replace=False)
        w_sub = rng.choice(len(wn), size=k_w, replace=False)
        indices = tuple(sorted([epn[i] for i in e_sub] + [wn[i] for i in w_sub]))
        if indices in seen:
            continue
        seen.add(indices)
        chosen.append(RepairAction(indices))
    return chosen


def coverage_fraction(state: RecoveryState, community: Community) -> float:
    """Fraction of the population currently benefitting from both utilities
    and a served retailer."""
    if community.total_population <= 0:
        raise ZeroPopulation("community population is zero")
    return (
        benefit_for_damage_cached(community, state.damage)
        / community.total_population
    )


def is_terminal(
    state: RecoveryState, community: Community, config: MdpConfig
) -> bool:
    """Coverage objective: coverage has reached alpha, or the coverage of
    full service where that is lower (rounding in the gravity weights can
    leave it one ulp below 1, and alpha = 1 is met there).  Rate
    objective: nothing is damaged."""
    if config.objective is Objective.MIN_TIME_TO_COVERAGE:
        coverage = coverage_fraction(state, community)
        return coverage >= config.alpha or coverage >= community.full_coverage
    return not any(state.damage)  # NONE is the only falsy level


def reward(
    next_state: RecoveryState,
    completion_time: float,
    community: Community,
    config: MdpConfig,
) -> float:
    """Obj1: negated completion time, so maximizing return minimizes total
    time.  Obj2: benefitted persons per day of elapsed repair time."""
    if config.objective is Objective.MIN_TIME_TO_COVERAGE:
        return -completion_time
    if next_state.elapsed_time <= 0.0:
        raise ZeroElapsedTime("benefit rate undefined at zero elapsed time")
    return (
        benefit_for_damage_cached(community, next_state.damage)
        / next_state.elapsed_time
    )


def transition(
    state: RecoveryState,
    action: RepairAction,
    community: Community,
    config: MdpConfig,
    draws: list[float] | None,
) -> tuple[RecoveryState, float]:
    """One decision epoch: run the assigned repairs until the first
    completion, repair the finisher(s), advance elapsed time, pay reward.
    Returns (next_state, reward); the repaired components are the assigned
    ones whose level in next_state is NONE.  The action is not checked
    (see check_admissible).

    Under exponential repair times, draws[i] is component i's outstanding
    repair requirement in unit-mean-exponential units.  Each assigned entry
    is read once, and the non-finishers' entries are written back minus the
    progress made.  Tracking the outstanding requirement across epochs is
    distributionally identical to redrawing fresh times after every
    preemption (memorylessness), but it lets two simulations that start
    from copies of one list face exactly the same repair workloads, which
    is what makes paired comparisons low-variance.  The deterministic
    repair model draws no noise, so draws may be None there."""
    assigned = action.indices
    damage = list(state.damage)

    if config.repair_model is RepairModel.EXPONENTIAL:
        best_i = -1
        best_t = math.inf
        work = []
        for i in assigned:
            mean = community.repair_means[i][int(damage[i])]
            u = draws[i]
            work.append((i, mean, u))
            t = mean * u
            if t < best_t:
                best_t = t
                best_i = i
        completion = best_t
        for i, mean, u in work:
            if i != best_i:
                draws[i] = u - completion / mean
        damage[best_i] = DamageState.NONE
        next_remaining: tuple[float, ...] | None = None
    else:
        remaining = list(state.remaining_work or ())
        if not remaining:
            raise ValidationError(
                "remaining-work repair model needs remaining_work in the state"
            )
        completion = min(remaining[i] for i in assigned)
        for i in assigned:
            left = remaining[i] - completion
            if left <= 1e-12:
                left = 0.0
                damage[i] = DamageState.NONE
            remaining[i] = left
        next_remaining = tuple(remaining)

    next_state = RecoveryState(
        damage=tuple(damage),
        elapsed_time=state.elapsed_time + completion,
        remaining_work=next_remaining,
    )
    return next_state, reward(next_state, completion, community, config)
