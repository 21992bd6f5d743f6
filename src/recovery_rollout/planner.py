"""Base policy, rollout decision engine, episode runner and driver, and an
exact schedule oracle (dynamic programming over remaining-work states) that
rollout is checked against.

The rollout policy scores each candidate first action by simulating the base
policy afterwards and picking the best estimated Q-value.  All randomness is
derived from an integer root seed through tagged SeedSequence keys, so every
stream is a pure function of (root, purpose, indices) and results do not
depend on execution order.  The one exception: worst-case mode's paired
bootstrap (_paired_se) resamples from a fixed default_rng(0).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .community import (
    Community,
    ComponentClass,
    DamageState,
    Network,
    benefit_for_damage,
    benefit_for_damage_cached,
    functional_mask,
)
from .errors import InstanceTooLarge, TerminalState, ValidationError
from .hazard import ComponentHazard, sample_initial_damage
from .mdp import (
    MdpConfig,
    Objective,
    RecoveryState,
    RepairAction,
    RepairModel,
    count_admissible,
    coverage_threshold,
    enumerate_actions,
    initial_state,
    is_terminal,
    transition,
)

# stream tags; every rng in a run is keyed (root_seed, tag, *indices)
TAG_DAMAGE = 1
TAG_EPISODE_REPAIR = 2
TAG_ACTION_SAMPLING = 3
TAG_TRAJECTORY = 4

# relative width of the Q-value band treated as a tie between candidates
_TIE_BAND_REL = 1e-3

# deviation from the base action needs this many standard errors of evidence
_DEVIATION_Z = 2.0


def keyed_seed(root_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=[int(root_seed), *key])


def _repair_draws(n_components: int, root_seed: int, *key: int) -> list[float]:
    """One unit-exponential repair requirement per component, drawn from
    the stream keyed (root_seed, *key); see mdp.transition."""
    rng = np.random.default_rng(keyed_seed(root_seed, *key))
    return rng.standard_exponential(n_components).tolist()


class RolloutMode(enum.Enum):
    MEAN = "mean"
    WORST_CASE = "worst"


class PolicyKind(enum.Enum):
    BASE = "base"
    ROLLOUT = "rollout"


_EPN_CLASSES = frozenset(
    c for c in ComponentClass if c.network is Network.EPN
)
_WN_CLASSES = frozenset(c for c in ComponentClass if c.network is Network.WN)


@dataclass(frozen=True)
class PriorityBasePolicy:
    """Fixed expert ordering over component classes; within a class, lower
    component id first.  _continuation_tables states it, _base_picks walks it."""

    epn_priority: tuple[ComponentClass, ...] = (
        ComponentClass.TRANSMISSION_SEGMENT,
        ComponentClass.SUBSTATION,
        ComponentClass.DISTRIBUTION_SEGMENT,
    )
    wn_priority: tuple[ComponentClass, ...] = (
        ComponentClass.WELL,
        ComponentClass.WATER_TANK,
        ComponentClass.PUMPING_PLANT,
        ComponentClass.PIPELINE,
    )

    def __post_init__(self) -> None:
        if set(self.epn_priority) != _EPN_CLASSES or len(self.epn_priority) != 3:
            raise ValidationError(
                "epn_priority must list each electrical class exactly once"
            )
        if set(self.wn_priority) != _WN_CLASSES or len(self.wn_priority) != 4:
            raise ValidationError(
                "wn_priority must list each water class exactly once"
            )


def base_action(
    state: RecoveryState,
    community: Community,
    config: MdpConfig,
    policy: PriorityBasePolicy,
) -> RepairAction:
    """The base policy at `state`: _base_picks on the state's
    _continuation_tables, as ascending indices.  Nothing is kept."""
    mask, networks, _ = _continuation_tables(state, policy, config, community)
    if not mask:
        raise TerminalState("no damaged components; no base action exists")
    return RepairAction(tuple(sorted(i for _, i, _ in _base_picks(mask, networks))))


@dataclass(frozen=True)
class RolloutConfig:
    """Sampling knobs.  Every trajectory runs the base policy after the
    first action until a terminal state; there is no truncation."""

    n_mc_min: int = 32
    n_mc_max: int = 2048
    se_threshold: float = 0.05
    mode: RolloutMode = RolloutMode.MEAN
    action_cap: int = 500

    def __post_init__(self) -> None:
        if self.n_mc_min < 1 or self.n_mc_max < self.n_mc_min:
            raise ValidationError("need 1 <= n_mc_min <= n_mc_max")
        if self.se_threshold <= 0.0:
            raise ValidationError("se_threshold must be > 0")
        if self.action_cap < 1:
            raise ValidationError("action_cap must be >= 1")


@dataclass(frozen=True)
class QEstimate:
    """value is the sample mean of returns, or in worst-case mode the
    smallest signed return (the longest time under the time objective,
    the lowest rate under the benefit objective).  returns keeps the raw
    per-trajectory values so callers can form paired comparisons across
    candidates that shared the same noise."""

    value: float
    std_error: float
    n_trajectories: int
    returns: tuple[float, ...]


@dataclass(frozen=True)
class DecisionRecord:
    """Audit record for one rollout decision: every candidate with its
    estimate.  estimates is empty when only one action was admissible."""

    index: int
    chosen: RepairAction
    estimates: tuple[tuple[RepairAction, QEstimate], ...]


def _continuation_tables(
    state: RecoveryState,
    base_policy: PriorityBasePolicy,
    mdp: MdpConfig,
    community: Community,
) -> tuple:
    """What the base-policy continuation from `state` reads, built once per
    decision: the outstanding set as a bitmask (bit i is component index
    i); per network its crew count and its outstanding components as (bit,
    index, m), m being transition's unit of work: the repair mean, or 1.0
    under remaining work; and an empty picks memo that _base_continuation
    fills.  The lists are the one statement of the base policy's order:
    the policy's classes in priority order, then ascending index (that is,
    ascending id) within a class.  Levels only ever drop to NONE inside an
    episode, so the units and the memoized picks stay valid for every
    state the continuation reaches, and the memo lives as long as the
    tables."""
    damage = state.damage
    repair_means = community.repair_means
    unit = mdp.repair_model is RepairModel.REMAINING_WORK
    epn, wn = (
        [(1 << i, i, 1.0 if unit else repair_means[i][int(damage[i])])
         for kind in order for i in community.indices_by_class[kind]
         if damage[i]]
        for order in (base_policy.epn_priority, base_policy.wn_priority)
    )
    mask = sum(itertools.compress(community.index_bits, damage))
    return mask, ((epn, mdp.n_e), (wn, mdp.n_w)), {}


def _base_picks(mask: int, networks: tuple) -> tuple:
    """The base policy at the outstanding set `mask`, for base_action and
    _base_continuation alike: each network's first outstanding (bit, index,
    m) in its list's order, up to its crew count."""
    picks = []
    for order, crews in networks:
        for pick in order:
            if mask & pick[0]:
                picks.append(pick)
                crews -= 1
                if not crews:
                    break
    return tuple(picks)


def _base_continuation(
    mask: int,
    elapsed: float,
    total: float,
    draws: list[float],
    tables: tuple,
    mdp: MdpConfig,
    community: Community,
) -> float:
    """Add to `total` the discounted rewards of following the base policy
    from the non-terminal outstanding set `mask` at time `elapsed`, with
    `draws` holding each component's outstanding work in the units of
    `tables` (see transition).  Each step is base_action's _base_picks, then
    transition, term for term, then is_terminal's coverage_threshold: the
    same work read and written back, the same finishers, completion time
    and reward, so returns and work come out bit-identical.  The picks are
    memoized by mask in the tables' picks memo, which also maps each picks
    tuple to itself so that sets with the same picks share one tuple; the
    priority lists are scanned only on a miss.  Benefits are memoized by
    mask in community._mask_benefit, which outlives the decision and is
    shared with benefit_for_damage_cached, so the two memos stay apart."""
    _, networks, picks_memo = tables
    gamma = mdp.gamma
    rate = mdp.objective is Objective.MAX_BENEFIT_RATE
    threshold = coverage_threshold(community, mdp)
    population = community.total_population
    memo = community._mask_benefit
    disc = 1.0
    while True:
        picks = picks_memo.get(mask)
        if picks is None:
            picks = _base_picks(mask, networks)
            picks = picks_memo[mask] = picks_memo.setdefault(picks, picks)
        completion = math.inf
        for _, i, m in picks:
            t = m * draws[i]
            if t < completion:
                completion = t
        for bit, i, m in picks:
            left = draws[i] - completion / m
            if left <= 1e-12:
                left = 0.0
                mask ^= bit
            draws[i] = left
        elapsed += completion
        benefit = memo.get(mask)
        if benefit is None:
            benefit = memo[mask] = benefit_for_damage(community, mask)
        disc *= gamma
        if rate:
            total += disc * (benefit / elapsed)
            if not mask:
                return total
        else:
            total += disc * -completion
            if benefit / population >= threshold:
                return total


def trajectory_return(
    state: RecoveryState,
    first_action: RepairAction,
    mdp: MdpConfig,
    community: Community,
    draws: list[float] | None,
    tables: tuple,
) -> float:
    """Discounted return of forcing first_action now and then following the
    base policy until a terminal state.  `tables`, the
    _continuation_tables of `state`, is the base policy; every trajectory
    from `state` may share them.  The first step goes through transition
    and is_terminal; the rest runs in _base_continuation on `tables`.
    Under remaining work the continuation steps a copy of the next state's
    remaining_work, and draws may be None."""
    x, total = transition(state, first_action, community, mdp, draws)
    if is_terminal(x, community, mdp):
        return total
    mask = tables[0]
    for i in first_action.indices:
        if not x.damage[i]:
            mask ^= 1 << i
    if x.remaining_work is not None:
        draws = list(x.remaining_work)
    return _base_continuation(
        mask, x.elapsed_time, total, draws, tables, mdp, community
    )


def estimate_q(
    state: RecoveryState,
    action: RepairAction,
    rollout_config: RolloutConfig,
    mdp: MdpConfig,
    community: Community,
    draws_for_trajectory,
    tables: tuple,
) -> QEstimate:
    """Monte-Carlo Q-estimate with adaptive sample size: batches of
    n_mc_min trajectories until the standard error of the mean drops below
    se_threshold or n_mc_max is reached.  draws_for_trajectory(j) supplies
    the noise for trajectory j; sharing those across candidate actions is
    what implements common random numbers.  A deterministic repair model
    needs a single trajectory.  `tables`, the _continuation_tables of
    `state`, is the base policy every trajectory follows after `action`;
    rollout_decision builds them once for all its candidates."""
    if mdp.repair_model is RepairModel.REMAINING_WORK:
        value = trajectory_return(state, action, mdp, community, None, tables)
        return QEstimate(
            value=value, std_error=0.0, n_trajectories=1, returns=(value,)
        )

    returns: list[float] = []
    while True:
        batch_end = min(
            len(returns) + rollout_config.n_mc_min, rollout_config.n_mc_max
        )
        for j in range(len(returns), batch_end):
            returns.append(
                trajectory_return(
                    state, action, mdp, community, draws_for_trajectory(j),
                    tables,
                )
            )
        n = len(returns)
        if n >= 2:
            se = float(np.std(returns, ddof=1)) / math.sqrt(n)
        else:
            se = math.inf
        if se < rollout_config.se_threshold or n >= rollout_config.n_mc_max:
            break
    if rollout_config.mode is RolloutMode.WORST_CASE:
        value = min(returns)
    else:
        value = float(np.mean(returns))
    return QEstimate(
        value=value, std_error=se, n_trajectories=n, returns=tuple(returns)
    )


def _paired_se(a: QEstimate, b: QEstimate, mode: RolloutMode) -> float:
    """Noise scale of the difference between two estimates whose trajectories
    shared noise tables index-by-index.  Mean mode: standard error of the
    paired mean difference, far tighter than the marginal errors under
    common random numbers.  Worst-case mode: the value is a minimum, whose
    difference is much noisier than the mean's, so use a paired bootstrap
    over the shared indices (fixed seed keeps decisions reproducible)."""
    m = min(len(a.returns), len(b.returns))
    if m < 2:
        return 0.0
    if mode is RolloutMode.WORST_CASE:
        av = np.asarray(a.returns[:m])
        bv = np.asarray(b.returns[:m])
        idx = np.random.default_rng(0).integers(0, m, size=(256, m))
        diffs = av[idx].min(axis=1) - bv[idx].min(axis=1)
        return float(np.std(diffs, ddof=1))
    diff = np.subtract(a.returns[:m], b.returns[:m])
    return float(np.std(diff, ddof=1)) / math.sqrt(m)


def rollout_decision(
    state: RecoveryState,
    base_policy: PriorityBasePolicy,
    rollout_config: RolloutConfig,
    mdp: MdpConfig,
    community: Community,
    root_seed: int,
    decision_index: int = 0,
) -> tuple[RepairAction, DecisionRecord]:
    """One-step lookahead: enumerate candidate actions, estimate Q for each
    under shared noise, return the argmax.  The base action is kept unless
    the top estimate beats it by more than the tie band plus the paired
    noise.  Among the candidates within the tie band of the top, the one
    with the lexicographically largest indices wins, which puts crews on
    the highest-index components."""
    base = base_action(state, community, mdp, base_policy)
    action_rng = np.random.default_rng(
        keyed_seed(root_seed, TAG_ACTION_SAMPLING, decision_index)
    )
    candidates = enumerate_actions(
        state,
        community,
        mdp,
        cap=rollout_config.action_cap,
        rng=action_rng,
        must_include=base,
    )
    noise: dict[int, list[float]] = {}

    def draws_for_trajectory(j: int) -> list[float]:
        table = noise.get(j)
        if table is None:
            table = noise[j] = _repair_draws(
                community.n_components, root_seed, TAG_TRAJECTORY,
                decision_index, j,
            )
        return table.copy()

    # enumerate_actions always returns the base action among the candidates,
    # so a lone candidate is the base action and needs no estimate
    scored: list[tuple[RepairAction, QEstimate]] = []
    best_action = base
    if len(candidates) > 1:
        tables = _continuation_tables(state, base_policy, mdp, community)
        scored = [
            (action, estimate_q(
                state, action, rollout_config, mdp, community,
                draws_for_trajectory, tables,
            ))
            for action in candidates
        ]
        base_est = dict(scored)[base]
        # Deviating from the base action requires evidence above the estimator
        # noise, else Monte-Carlo flutter would erode the not-worse guarantee.
        # Noise is the paired standard error against the base estimate (the
        # candidates shared their trajectory tables), plus a resolution band;
        # within the band, ties go to the lexicographically largest indices.
        _, top_est = max(scored, key=lambda pair: pair[1].value)
        top = top_est.value
        band = _TIE_BAND_REL * max(1.0, abs(top))
        se = _paired_se(top_est, base_est, rollout_config.mode)
        if top - base_est.value > band + _DEVIATION_Z * se:
            tied = [(action, est) for action, est in scored if est.value >= top - band]
            best_action, _ = max(tied, key=lambda pair: pair[0].indices)
    record = DecisionRecord(
        index=decision_index,
        chosen=best_action,
        estimates=tuple(scored),
    )
    return best_action, record


@dataclass(frozen=True)
class RestorationCurve:
    """Step-function history of (time_days, benefitted_persons, epn_frac,
    wn_frac), one point per decision epoch starting at time zero."""

    points: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self) -> None:
        times = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("curve times must strictly increase")

    @property
    def total_time(self) -> float:
        return self.points[-1][0] if self.points else 0.0

    def area(self) -> float:
        """Integral of benefitted persons over time (step function, left
        value holds until the next point)."""
        total = 0.0
        for (t0, b0, _, _), (t1, _, _, _) in zip(self.points, self.points[1:]):
            total += b0 * (t1 - t0)
        return total

    def benefit_rate(self) -> float:
        """Area divided by total time; for a zero-length episode, the
        constant initial benefit."""
        if self.total_time == 0.0:
            return self.points[0][1] if self.points else 0.0
        return self.area() / self.total_time


@dataclass(frozen=True)
class StepRecord:
    time_days: float
    assigned: tuple[int, ...]
    repaired: tuple[int, ...]
    reward: float


@dataclass(frozen=True)
class EpisodeResult:
    curve: RestorationCurve
    steps: tuple[StepRecord, ...]
    decisions: tuple[DecisionRecord, ...]
    # first time each retailer had both utilities; inf if never during
    # the episode (possible under the coverage objective)
    retailer_recovery: tuple[float, ...]

    @property
    def total_time(self) -> float:
        return self.curve.total_time

    def metric(self, objective: Objective) -> float:
        if objective is Objective.MIN_TIME_TO_COVERAGE:
            return self.total_time
        return self.curve.benefit_rate()


def _observe(
    community: Community,
    state: RecoveryState,
    retailer_recovery: list[float],
) -> tuple[float, float, float, float]:
    """Curve point for the state; also backfills retailer recovery times."""
    functional = functional_mask(
        community, sum(itertools.compress(community.index_bits, state.damage))
    )
    for ri, feeds in enumerate(community.retailer_feeds):
        if retailer_recovery[ri] == math.inf and functional & feeds == feeds:
            retailer_recovery[ri] = state.elapsed_time
    epn_frac, wn_frac = (
        sum(functional >> i & 1 for i in ix) / len(ix) if ix else 1.0
        for ix in (community.epn_indices, community.wn_indices)
    )
    return (
        state.elapsed_time,
        benefit_for_damage_cached(community, state.damage),
        epn_frac,
        wn_frac,
    )


def run_episode(
    policy: PolicyKind,
    damage: tuple[DamageState, ...],
    community: Community,
    mdp: MdpConfig,
    rollout_config: RolloutConfig,
    base_policy: PriorityBasePolicy,
    root_seed: int,
    episode_index: int = 0,
) -> EpisodeResult:
    """Run one episode to termination.  Repair noise comes from a per-episode
    draw table keyed only by (root_seed, episode_index), so base and rollout
    runs of the same episode face identical repair-time randomness."""
    state = initial_state(community, damage, mdp)
    env_draws = (
        _repair_draws(
            community.n_components, root_seed, TAG_EPISODE_REPAIR, episode_index
        )
        if mdp.repair_model is RepairModel.EXPONENTIAL
        else None
    )

    retailer_recovery = [math.inf] * len(community.retailers)
    points = [_observe(community, state, retailer_recovery)]
    steps: list[StepRecord] = []
    decisions: list[DecisionRecord] = []
    while not is_terminal(state, community, mdp):
        if policy is PolicyKind.BASE:
            action = base_action(state, community, mdp, base_policy)
        else:
            action, record = rollout_decision(
                state, base_policy, rollout_config, mdp, community,
                root_seed=root_seed,
                decision_index=episode_index * 10_000 + len(steps),
            )
            decisions.append(record)
        state, r = transition(state, action, community, mdp, env_draws)
        points.append(_observe(community, state, retailer_recovery))
        # indices follow id order, so both id tuples come out ascending
        comps = community.components
        steps.append(
            StepRecord(
                time_days=state.elapsed_time,
                assigned=tuple(comps[i].id for i in action.indices),
                repaired=tuple(
                    comps[i].id for i in action.indices if not state.damage[i]
                ),
                reward=r,
            )
        )
    return EpisodeResult(
        curve=RestorationCurve(points=tuple(points)),
        steps=tuple(steps),
        decisions=tuple(decisions),
        retailer_recovery=tuple(retailer_recovery),
    )


def episode_damage(
    community: Community,
    hazards: dict[int, ComponentHazard],
    root_seed: int,
    episode_index: int,
) -> tuple[DamageState, ...]:
    """Initial damage of episode episode_index, drawn from the stream keyed
    (root_seed, TAG_DAMAGE, episode_index)."""
    rng = np.random.default_rng(keyed_seed(root_seed, TAG_DAMAGE, episode_index))
    return sample_initial_damage(community, hazards, rng)


def run_episodes(
    policy: PolicyKind,
    community: Community,
    hazards: dict[int, ComponentHazard],
    mdp: MdpConfig,
    rollout_config: RolloutConfig,
    base_policy: PriorityBasePolicy,
    n_episodes: int,
    root_seed: int,
) -> list[EpisodeResult]:
    """Episodes 0..n_episodes-1 under one policy.  Episode index keys both
    the damage draw and the repair noise, so calling this for base and
    rollout with the same seed gives paired episodes."""
    return [
        run_episode(
            policy, episode_damage(community, hazards, root_seed, ep),
            community, mdp, rollout_config, base_policy,
            root_seed=root_seed, episode_index=ep,
        )
        for ep in range(n_episodes)
    ]


# applies only when some network has more than one crew
_ORACLE_MAX_DAMAGED = 8
# crew assignments the DP scores per state, checked at the start, where
# there are the most
_ORACLE_MAX_ACTIONS = 500
# memo entries of one DP pass, about 0.6 kB each on a 20-component
# community: mini_gilroy episode 22 (seed 7, 18 damaged, one crew per
# network) reaches the bound after 1.6-1.8 s of CPU at 93 MB peak
# process RSS under either objective; its other episodes 0-29 take
# 200-78,928 states
_ORACLE_MAX_STATES = 100_000


def _best_schedule(
    start: RecoveryState, community: Community, mdp: MdpConfig, lam: float
) -> dict[tuple[float, ...], tuple[float, RepairAction | None]]:
    """Memo of the schedule DP from start: remaining work -> (best value
    to go, its first action; None at a terminal state).  The value is
    sum w(s)*dt over the rest of the schedule, with w = -1 under the time
    objective and w = B(s) - lam under the rate objective.  Exact ties go
    to the lexicographically largest indices.

    The DP steps on work tuples and builds no RecoveryState, and no
    RepairAction except the one stored per state.  A state is its key
    plus the outstanding-set bitmask (bit i is component index i), whose
    benefit is read from community._mask_benefit, as in is_terminal and
    _base_continuation.  A network's choices are the k-subsets of its
    outstanding components in enumerate_actions's order, or, with one crew
    per network, its started component alone (see exhaustive_oracle).  An
    edge is transition's arithmetic with unit 1.0: the completion is the
    least assigned work, each assigned entry drops by it, and an entry
    left at or below 1e-12 becomes 0.0 and leaves the set.  Each step is
    weighted by that completion, so a stored value depends on the key
    alone."""
    minimize = mdp.objective is Objective.MIN_TIME_TO_COVERAGE
    non_preemptive = mdp.n_e == mdp.n_w == 1
    threshold = coverage_threshold(community, mdp)
    population = community.total_population
    benefits = community._mask_benefit
    bits = community.index_bits
    full_work = start.remaining_work
    networks = (
        (community.epn_indices, mdp.n_e), (community.wn_indices, mdp.n_w)
    )
    memo: dict[tuple[float, ...], tuple[float, RepairAction | None]] = {}

    def benefit_of(mask: int) -> float:
        benefit = benefits.get(mask)
        if benefit is None:
            benefit = benefits[mask] = benefit_for_damage(community, mask)
        return benefit

    def solve(key: tuple[float, ...], mask: int) -> float:
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        if (
            benefit_of(mask) / population >= threshold if minimize
            else not mask
        ):
            memo[key] = (0.0, None)
            return 0.0
        if len(memo) >= _ORACLE_MAX_STATES:
            raise InstanceTooLarge(
                f"more than {_ORACLE_MAX_STATES} remaining-work states; "
                "the instance exceeds the oracle bound"
            )
        weight = -1.0 if minimize else benefit_of(mask) - lam
        choices = []
        for members, crews in networks:
            outstanding = [i for i in members if mask & bits[i]]
            # with one crew per network, that crew finishes what it
            # started (see exhaustive_oracle)
            started = non_preemptive and tuple(
                i for i in outstanding if key[i] < full_work[i]
            )
            choices.append([started] if started else itertools.combinations(
                outstanding, min(crews, len(outstanding))
            ))
        best = -math.inf
        best_indices: tuple[int, ...] = ()
        for e_sub, w_sub in itertools.product(*choices):
            indices = tuple(sorted(e_sub + w_sub))
            completion = min(key[i] for i in indices)
            work = list(key)
            left_mask = mask
            for i in indices:
                left = key[i] - completion
                if left <= 1e-12:
                    left = 0.0
                    left_mask ^= bits[i]
                work[i] = left
            value = weight * completion + solve(tuple(work), left_mask)
            if value > best or (value == best and indices > best_indices):
                best = value
                best_indices = indices
        memo[key] = (best, RepairAction(best_indices))
        return best

    solve(full_work, sum(itertools.compress(bits, start.damage)))
    return memo


def _replay(
    start: RecoveryState,
    memo: dict[tuple[float, ...], tuple[float, RepairAction | None]],
    community: Community,
    mdp: MdpConfig,
) -> tuple[float, RepairAction]:
    """Objective value and first action of the memo's schedule, stepped
    forward through transition.  The area sums benefit times elapsed-time
    differences in order, the segments of RestorationCurve.area()."""
    first = memo[start.remaining_work][1]
    state = start
    area = 0.0
    while (action := memo[state.remaining_work][1]) is not None:
        nxt, _ = transition(state, action, community, mdp, None)
        area += benefit_for_damage_cached(community, state.damage) * (
            nxt.elapsed_time - state.elapsed_time
        )
        state = nxt
    if mdp.objective is Objective.MIN_TIME_TO_COVERAGE:
        return state.elapsed_time, first
    return area / state.elapsed_time, first


def exhaustive_oracle(
    damage: tuple[DamageState, ...],
    community: Community,
    mdp: MdpConfig,
) -> tuple[float, RepairAction]:
    """Exact optimum over every preemptive schedule, by dynamic programming
    over remaining-work states.  Deterministic repair model only; guarded
    by the number of memo states and of crew assignments, and with more
    than one crew in a network by the number of damaged components.
    Returns the natural objective value (days for the time objective,
    persons per day for the benefit objective) and an optimal first
    action.

    With one crew per network the DP searches only schedules that finish
    what they start, and loses nothing: repairing each network's
    components without preemption, in the order some schedule completes
    them, completes each no later, since the network's one crew must
    first have done its work and that of every component completed
    before it.  Benefit only grows with repairs, so coverage reaches alpha
    no later and the area under the curve is no smaller, while the rate
    objective's total time, the larger network's total work, stays put.
    With two crews in a network preemption can win, so there the DP
    searches every schedule.

    A component is damaged exactly when its remaining work is positive,
    and its damage level is already folded into that work, so the
    remaining-work vector alone keys the memo; the value to go does not
    depend on elapsed time.  The time objective maximizes -(time to go).
    The rate objective, area over total time, is a ratio: Dinkelbach's
    method (1967) maximizes area - lam * time for lam = 0, sets lam to the
    ratio of the schedule found, and repeats until the ratio stops rising.
    The value returned is a forward replay of the chosen schedule, so it
    comes from the same arithmetic as the restoration curve of that
    schedule.  The benefit entries it adds to community._mask_benefit,
    one per outstanding set visited, are dropped when it returns or raises."""
    if mdp.repair_model is not RepairModel.REMAINING_WORK:
        raise ValidationError("oracle needs the deterministic repair model")
    n_damaged = sum(1 for d in damage if d)
    if n_damaged > _ORACLE_MAX_DAMAGED and not mdp.n_e == mdp.n_w == 1:
        raise InstanceTooLarge(
            f"{n_damaged} damaged components exceed the oracle bound "
            f"{_ORACLE_MAX_DAMAGED}"
        )
    # popitem drops the newest entry, so the memo ends as it began
    memo = community._mask_benefit
    entries = len(memo)
    try:
        start = initial_state(community, damage, mdp)
        if is_terminal(start, community, mdp):
            raise TerminalState("initial state is already terminal")
        n_actions = count_admissible(start, community, mdp)
        if n_actions > _ORACLE_MAX_ACTIONS:
            raise InstanceTooLarge(
                f"{n_actions} crew assignments exceed the oracle bound "
                f"{_ORACLE_MAX_ACTIONS}"
            )
        best = _replay(
            start, _best_schedule(start, community, mdp, 0.0), community, mdp
        )
        if mdp.objective is Objective.MIN_TIME_TO_COVERAGE:
            return best
        while True:
            pick = _replay(
                start, _best_schedule(start, community, mdp, best[0]),
                community, mdp,
            )
            if pick[0] <= best[0]:
                return best
            best = pick
    finally:
        while len(memo) > entries:
            memo.popitem()


def objective_gain(objective: Objective, before: float, after: float) -> float:
    """How much better `after` scores than `before`: days saved under the
    time objective, persons per day gained under the benefit objective."""
    if objective is Objective.MIN_TIME_TO_COVERAGE:
        return before - after
    return after - before


def oracle_gap(achieved: float, optimum: float, objective: Objective) -> float:
    """Relative shortfall of an achieved metric behind the oracle optimum,
    positive when worse."""
    if optimum <= 0.0:
        return 0.0
    return objective_gain(objective, achieved, optimum) / optimum
