"""The four benchmark workloads and the correctness checks on their outputs.

Every workload draws its inputs from the --seed rng.  A workload runs a
fixed set of operations per repetition; each repetition builds its
Scenario afresh, so the planner's memo caches start empty as in a CLI run.
The input size is fixed while the seed still picks the earthquakes: the
cost of an episode varies about tenfold with its initial damage, so plain
random sets of ten episodes differ by 20-30% in cost from seed to seed.
Workloads that draw earthquakes one by one take one of each quantile of
the work size (see work_size); the CLI workload, whose episodes come as a
set from one seed, takes a set whose total work size is near its mean.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

import recovery_rollout
from recovery_rollout import cli, mdp as mdp_mod, planner, scenario as scenario_mod
from recovery_rollout.community import DamageState
from recovery_rollout.errors import InadmissibleAction
from recovery_rollout.hazard import sample_initial_damage
from recovery_rollout.mdp import Objective
from recovery_rollout.planner import PolicyKind

from layertrace import arg_getter, rebind, undo

DATA = Path(recovery_rollout.__file__).parent / "data"
MINI = DATA / "mini_gilroy.yaml"
ORACLE = DATA / "oracle_demo.yaml"

NOT_WORSE_TOL = -1e-9
ORACLE_GAP_LIMIT = 0.05
REFERENCE_DRAWS = 2000
SAMPLE_INTERVAL = 1.0
SIZE_TOLERANCE = 0.015


# -- recording ---------------------------------------------------------


@dataclass
class Decision:
    op: object
    start: float
    seconds: float
    args: dict
    action: object
    record: object


@dataclass
class Episode:
    op: object
    policy: PolicyKind
    damage: tuple
    community: object
    mdp: object
    result: object


class Recorder:
    """Times every rollout_decision call from outside and keeps each
    decision and episode for the checks.  Installed at every module
    attribute bound to the two functions, like the layer probes."""

    DECISION_ARGS = ("state", "base_policy", "rollout_config", "mdp", "community")
    EPISODE_ARGS = ("policy", "damage", "community", "mdp", "episode_index")

    def __init__(self) -> None:
        self.decisions: list[Decision] = []
        self.episodes: list[Episode] = []
        self.op: object = None
        self.sampler = None
        # (start, end) of sampler calls; excluded from the repetition's time
        self.pauses: list[tuple[float, float]] = []
        self._last_sample = -math.inf
        self._undo: list = []

    def clear(self) -> None:
        self.decisions.clear()
        self.episodes.clear()
        self.pauses.clear()

    def boundary(self) -> None:
        """Between operations: call the sampler at most once per
        SAMPLE_INTERVAL.  Spreading the set-up samples over the run keeps
        setup_s from reading only the start of the run."""
        now = time.perf_counter()
        if self.sampler is None or now - self._last_sample < SAMPLE_INTERVAL:
            return
        self.sampler()
        self._last_sample = time.perf_counter()
        self.pauses.append((now, self._last_sample))

    def install(self) -> None:
        decide = planner.rollout_decision
        run = planner.run_episode
        dget = {n: arg_getter(decide, n) for n in self.DECISION_ARGS}
        eget = {n: arg_getter(run, n) for n in self.EPISODE_ARGS}
        clock = time.perf_counter

        def timed_decision(*args, **kwargs):
            t0 = clock()
            action, record = decide(*args, **kwargs)
            seconds = clock() - t0
            self.decisions.append(
                Decision(
                    self.op, t0, seconds,
                    {n: g(args, kwargs) for n, g in dget.items()},
                    action, record,
                )
            )
            return action, record

        def recorded_episode(*args, **kwargs):
            self.boundary()
            a = {n: g(args, kwargs) for n, g in eget.items()}
            outer = self.op
            self.op = a["episode_index"]
            try:
                result = run(*args, **kwargs)
            finally:
                self.op = outer
            self.episodes.append(
                Episode(a["episode_index"], a["policy"], a["damage"],
                        a["community"], a["mdp"], result)
            )
            return result

        timed_decision.__wrapped__ = decide
        recorded_episode.__wrapped__ = run
        self._undo = [
            (decide, rebind(decide, timed_decision)),
            (run, rebind(run, recorded_episode)),
        ]

    def uninstall(self) -> None:
        for fn, changed in self._undo:
            undo(changed, fn)
        self._undo = []


# -- checks ------------------------------------------------------------


def episode_problem(ep: Episode) -> str | None:
    """Why an episode's output is wrong, or None."""
    objective = ep.mdp.objective
    metric = ep.result.metric(objective)
    if not math.isfinite(metric):
        return f"episode {ep.op}: metric {metric} is not finite"
    if objective is Objective.MIN_TIME_TO_COVERAGE:
        final_benefit = ep.result.curve.points[-1][1]
        coverage = final_benefit / ep.community.total_population
        if coverage < ep.mdp.alpha - 1e-12:
            return f"episode {ep.op}: final coverage {coverage} < alpha"
    else:
        damaged = {
            c.id
            for c, d in zip(ep.community.components, ep.damage)
            if d != DamageState.NONE
        }
        repaired = {cid for s in ep.result.steps for cid in s.repaired}
        if repaired != damaged:
            return f"episode {ep.op}: repaired {sorted(repaired)} != damaged"
    return None


def decision_problem(d: Decision) -> str | None:
    a = d.args
    try:
        mdp_mod.check_admissible(a["state"], d.action, a["community"], a["mdp"])
    except InadmissibleAction as exc:
        return f"decision {d.op}: chosen action inadmissible ({exc})"
    if d.record.estimates:
        base = planner.base_action(
            a["state"], a["community"], a["mdp"], a["base_policy"]
        )
        if all(action != base for action, _ in d.record.estimates):
            return f"decision {d.op}: base action not among scored candidates"
    return None


def decision_stats(decisions: list[Decision]) -> dict[str, float | None]:
    """Per-layer ratios read off the decision records."""
    scored = [d for d in decisions if d.record.estimates]
    if not decisions:
        return {}
    estimates = [
        (est, d.args["rollout_config"])
        for d in scored
        for _, est in d.record.estimates
    ]
    trajectories = sum(est.n_trajectories for est, _ in estimates)
    deviated = sum(
        d.action != planner.base_action(
            d.args["state"], d.args["community"], d.args["mdp"],
            d.args["base_policy"],
        )
        for d in scored
    )
    return {
        "planner.rollout_decision.candidates_mean": float(
            np.mean([max(1, len(d.record.estimates)) for d in decisions])
        ),
        "planner.rollout_decision.deviation_frac": (
            deviated / len(scored) if scored else None
        ),
        "planner.estimate_q.at_cap_frac": (
            sum(est.n_trajectories >= cfg.n_mc_max for est, cfg in estimates)
            / len(estimates)
            if estimates
            else None
        ),
        "planner.trajectories_per_decision": (
            trajectories / len(scored) if scored else None
        ),
        "trajectories": trajectories,
    }


# -- input generation --------------------------------------------------


def n_damaged(damage) -> int:
    return sum(d != DamageState.NONE for d in damage)


def work_size(scenario, damage) -> int:
    """Rollout work an initial state implies: the candidates scored at the
    first decision (capped as the planner caps them) times the number of
    damaged components, which bounds trajectory length."""
    community, mdp = scenario.community, scenario.mdp
    state = mdp_mod.initial_state(community, damage, mdp)
    candidates = min(
        mdp_mod.count_admissible(state, community, mdp), scenario.rollout.action_cap
    )
    return candidates * n_damaged(damage)


def reference_sizes(scenario) -> list[int]:
    """Sorted work sizes of a fixed reference sample of earthquakes, the
    same for every seed."""
    rng = np.random.default_rng(0)
    return sorted(
        work_size(scenario, sample_initial_damage(scenario.community, scenario.hazards, rng))
        for _ in range(REFERENCE_DRAWS)
    )


def matched_set(scenario, draw_set, n: int) -> list[tuple]:
    """First set of n earthquakes from draw_set() whose total work size is
    within SIZE_TOLERANCE of n times the mean size.  For inputs drawn as a
    set, such as the episodes of one CLI seed."""
    target = n * float(np.mean(reference_sizes(scenario)))
    while True:
        damages = draw_set()
        total = sum(work_size(scenario, d) for d in damages)
        if abs(total - target) <= SIZE_TOLERANCE * target:
            return damages


def stratified_set(scenario, rng, n: int) -> list[tuple]:
    """n earthquakes whose work sizes are the n quantiles, at (i + 0.5)/n,
    of the reference sizes; the seed picks the earthquake of each size."""
    sizes = reference_sizes(scenario)
    damages = []
    for i in range(n):
        target = sizes[int((i + 0.5) * len(sizes) / n)]
        while True:
            damage = sample_initial_damage(scenario.community, scenario.hazards, rng)
            if work_size(scenario, damage) == target:
                damages.append(damage)
                break
    return damages


def digest(parts) -> str:
    return hashlib.sha256(repr(list(parts)).encode()).hexdigest()[:16]


@dataclass
class RepOutcome:
    ops: list
    failed: dict = field(default_factory=dict)  # op -> reason
    quality: dict = field(default_factory=dict)
    digest: str = ""


def paired_quality(
    episodes: list[Episode], objective: Objective
) -> dict[str, float]:
    """rollout_gain_pct as cmd_compare computes improvement_pct, and the
    share of paired episodes where rollout is not worse than base."""
    by_op: dict = {}
    for ep in episodes:
        by_op.setdefault(ep.op, {})[ep.policy] = ep.result.metric(objective)
    pairs = [
        (m[PolicyKind.BASE], m[PolicyKind.ROLLOUT])
        for _, m in sorted(by_op.items())
        if len(m) == 2
    ]
    base_mean = float(np.mean([b for b, _ in pairs]))
    roll_mean = float(np.mean([r for _, r in pairs]))
    minimize = objective is Objective.MIN_TIME_TO_COVERAGE
    if base_mean == 0.0:
        gain = 0.0
    elif minimize:
        gain = (base_mean - roll_mean) / base_mean * 100.0
    else:
        gain = (roll_mean - base_mean) / base_mean * 100.0
    diffs = [(b - r) if minimize else (r - b) for b, r in pairs]
    return {
        "rollout_gain_pct": gain,
        "rollout_not_worse_frac": float(np.mean([x >= NOT_WORSE_TOL for x in diffs])),
    }


def episode_digest(rec: Recorder) -> str:
    return digest(
        sorted(
            (str(ep.op), ep.policy.value, repr(ep.result.metric(ep.mdp.objective)))
            for ep in rec.episodes
        )
        + [(str(d.op), d.action.assigned_indices()) for d in rec.decisions]
    )


# -- workloads ---------------------------------------------------------


class Workload:
    name = ""
    op_label = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.work = work
        self.rng = np.random.default_rng(seed)

    def setup(self):
        """Scenario build as a user's run pays it; timed for setup_s."""
        raise NotImplementedError

    def rep(self, rec: Recorder) -> RepOutcome:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class MiniCompare(Workload):
    name = "mini-compare"
    op_label = "paired base+rollout episode"
    EPISODES = 12

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.cli_seed = self._pick_cli_seed()

    def setup(self):
        return scenario_mod.load_scenario(str(MINI))

    def _pick_cli_seed(self) -> int:
        """First seed drawn from the rng whose compare episodes, as
        `sample-damage` reports them, form a size-matched set."""
        scenario = self.setup()
        out = self.work / "damage"
        chosen = []

        def draw_set():
            chosen[:] = [int(self.rng.integers(2**62))]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([
                    "sample-damage", "--scenario", str(MINI), "--seed",
                    str(chosen[0]), "--episodes", str(self.EPISODES),
                    "--out", str(out),
                ])
            if code != 0:
                raise RuntimeError(f"sample-damage exited with {code}")
            damages: dict[int, list] = {}
            with open(out / "damage_samples.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    damages.setdefault(int(row["episode"]), []).append(
                        DamageState[row["damage_state"].upper()]
                    )
            return [tuple(d) for _, d in sorted(damages.items())]

        self.damages = matched_set(scenario, draw_set, self.EPISODES)
        return chosen[0]

    def describe(self):
        counts = [n_damaged(d) for d in self.damages]
        return f"compare --seed {self.cli_seed} --episodes {self.EPISODES} on {MINI.name}, damaged {counts}"

    def rep(self, rec):
        out_dir = self.work / "compare"
        ops = list(range(self.EPISODES))
        outcome = RepOutcome(ops=ops)
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = cli.main([
                    "compare", "--scenario", str(MINI), "--seed", str(self.cli_seed),
                    "--episodes", str(self.EPISODES), "--out", str(out_dir),
                ])
        except Exception as exc:  # a crash fails every op of the repetition
            code, captured = None, io.StringIO(repr(exc))
        if code != 0:
            outcome.failed = {op: f"compare failed: {captured.getvalue().strip()}" for op in ops}
            return outcome
        summary = (out_dir / "compare_summary.txt").read_text()
        match = re.search(r"^improvement_pct = (\S+)$", summary, re.M)
        objective = rec.episodes[0].mdp.objective
        outcome.quality = paired_quality(rec.episodes, objective)
        outcome.quality["rollout_gain_pct"] = float(match.group(1)) if match else math.nan
        outcome.digest = digest([summary, episode_digest(rec)])
        return outcome


class MiniRate(Workload):
    name = "mini-rate"
    op_label = "paired base+rollout episode"
    EPISODES = 7

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.root_seed = int(self.rng.integers(2**62))
        self.damages = stratified_set(self.setup(), self.rng, self.EPISODES)

    def setup(self):
        return scenario_mod.load_scenario(str(MINI))

    def describe(self):
        counts = [n_damaged(d) for d in self.damages]
        return f"{self.EPISODES} episodes on {MINI.name}, root seed {self.root_seed}, damaged {counts}"

    def rep(self, rec):
        scenario = self.setup()
        mdp = replace(scenario.mdp, objective=Objective.MAX_BENEFIT_RATE)
        outcome = RepOutcome(ops=list(range(self.EPISODES)))
        for ep, damage in enumerate(self.damages):
            try:
                for policy in (PolicyKind.BASE, PolicyKind.ROLLOUT):
                    planner.run_episode(
                        policy, damage, scenario.community, mdp, scenario.rollout,
                        scenario.base_policy, root_seed=self.root_seed,
                        episode_index=ep,
                    )
            except Exception as exc:
                outcome.failed[ep] = repr(exc)
        outcome.quality = paired_quality(rec.episodes, mdp.objective)
        outcome.digest = episode_digest(rec)
        return outcome


def tiled_scenario_text(tiles: int = 4, id_stride: int = 100, dx: float = 6.0) -> str:
    """mini_gilroy repeated `tiles` times side by side, with two crews per
    network.  Tiles share no dependency edges; the gravity model lets
    every cell shop at every tile's retailers."""
    raw = yaml.safe_load(MINI.read_text())
    doc = {k: v for k, v in raw.items()
           if k not in ("components", "edges", "cells", "retailers", "hazard")}
    doc["name"] = f"{raw['name']}-x{tiles}"
    comps, edges, cells, retailers, hazards = [], [], [], [], {}
    for t in range(tiles):
        off = t * id_stride

        def shift(point):
            return [point[0] + dx * t, point[1]]

        for c in raw["components"]:
            c2 = dict(c, id=c["id"] + off)
            if "location" in c:
                c2["location"] = shift(c["location"])
            comps.append(c2)
        edges += [[s + off, d + off] for s, d in raw["edges"]]
        for key, out in (("cells", cells), ("retailers", retailers)):
            for r in raw[key]:
                out.append(dict(
                    r, id=r["id"] + off, centroid=shift(r["centroid"]),
                    power_feed=r["power_feed"] + off,
                    water_feed=r["water_feed"] + off,
                ))
        for cid, h in raw["hazard"]["components"].items():
            hazards[int(cid) + off] = h
    doc.update(components=comps, edges=edges, cells=cells, retailers=retailers,
               hazard={"components": hazards})
    doc["mdp"] = dict(raw["mdp"], n_e=2, n_w=2)

    class NoAliases(yaml.SafeDumper):
        def ignore_aliases(self, data):
            return True

    return yaml.dump(doc, Dumper=NoAliases, sort_keys=False)


class GridLarge(Workload):
    name = "grid-large"
    op_label = "rollout decision on an initial state"
    DECISIONS = 3

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.root_seed = int(self.rng.integers(2**62))
        self.damages = stratified_set(self.setup(), self.rng, self.DECISIONS)

    def setup(self):
        path = self.work / "grid_large.yaml"
        path.write_text(tiled_scenario_text())
        return scenario_mod.load_scenario(str(path))

    def describe(self):
        counts = [n_damaged(d) for d in self.damages]
        return f"{self.DECISIONS} initial-state decisions on {MINI.name} x4, root seed {self.root_seed}, damaged {counts}"

    def rep(self, rec):
        scenario = self.setup()
        outcome = RepOutcome(ops=list(range(self.DECISIONS)))
        for i, damage in enumerate(self.damages):
            rec.boundary()
            rec.op = i
            try:
                state = mdp_mod.initial_state(scenario.community, damage, scenario.mdp)
                planner.rollout_decision(
                    state, scenario.base_policy, scenario.rollout, scenario.mdp,
                    scenario.community, root_seed=self.root_seed, decision_index=i,
                )
            except Exception as exc:
                outcome.failed[i] = repr(exc)
        rec.op = None
        outcome.digest = episode_digest(rec)
        return outcome


class OracleDesk(Workload):
    name = "oracle-desk"
    op_label = "oracle instance"
    PER_K = 40  # instances per damaged count 1..7

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.root_seed = int(self.rng.integers(2**62))
        scenario = self.setup()
        self.damages = [
            self._draw(scenario, 1 + i % 7) for i in range(7 * self.PER_K)
        ]

    def setup(self):
        return scenario_mod.load_scenario(str(ORACLE))

    def _draw(self, scenario, k: int) -> tuple:
        """k damaged components with uniform damage states, redrawn while
        the initial state is already terminal."""
        community, mdp = scenario.community, scenario.mdp
        ids = [c.id for c in community.components]
        while True:
            chosen = {int(c) for c in self.rng.choice(ids, size=k, replace=False)}
            damage = tuple(
                DamageState(int(self.rng.integers(1, 5))) if c in chosen
                else DamageState.NONE
                for c in ids
            )
            state = mdp_mod.initial_state(community, damage, mdp)
            if not mdp_mod.is_terminal(state, community, mdp):
                return damage

    def describe(self):
        return f"{len(self.damages)} instances on {ORACLE.name} ({self.PER_K} per damaged count 1-7), root seed {self.root_seed}"

    def rep(self, rec):
        scenario = self.setup()
        community, mdp = scenario.community, scenario.mdp
        minimize = mdp.objective is Objective.MIN_TIME_TO_COVERAGE
        outcome = RepOutcome(ops=list(range(len(self.damages))))
        gaps, optima = [], []
        for i, damage in enumerate(self.damages):
            rec.boundary()
            try:
                optimum, _ = planner.exhaustive_oracle(damage, community, mdp)
                result = planner.run_episode(
                    PolicyKind.ROLLOUT, damage, community, mdp, scenario.rollout,
                    scenario.base_policy, root_seed=self.root_seed, episode_index=i,
                )
            except Exception as exc:
                outcome.failed[i] = repr(exc)
                continue
            achieved = result.metric(mdp.objective)
            excess = (achieved - optimum) if minimize else (optimum - achieved)
            gap = excess / optimum if optimum > 0.0 else 0.0
            optima.append(repr(optimum))
            gaps.append(gap)
            if excess < NOT_WORSE_TOL:
                outcome.failed[i] = f"rollout {achieved} beats the optimum {optimum}"
            elif gap > ORACLE_GAP_LIMIT:
                outcome.failed[i] = f"gap {gap:.4f} exceeds {ORACLE_GAP_LIMIT}"
        if gaps:
            outcome.quality = {"oracle_gap_pct_max": max(gaps) * 100.0}
        outcome.digest = digest([optima, episode_digest(rec)])
        return outcome


WORKLOADS = {w.name: w for w in (MiniCompare, MiniRate, GridLarge, OracleDesk)}
