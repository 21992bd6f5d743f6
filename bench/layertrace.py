"""Layer tracing from outside the package.

A probe replaces a function at every module attribute bound to it, so the
call goes through the probe whichever module the caller resolves the name
in (``from x import f`` binds ``f`` once per importing module).  Probes
keep only aggregates: per function the call count, the inclusive time and
the self time.  Self time is measured with an explicit call stack: a
frame's self time is its duration minus the time of the probed calls made
inside it.  A function that no longer exists is reported as missing; its
metrics are ``None``.
"""

from __future__ import annotations

import inspect
import sys
import time

PACKAGE = "recovery_rollout"


def package_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def rebind(fn, replacement) -> list[tuple[object, str]]:
    """Point every package attribute bound to fn at replacement; return the
    (module, attribute) pairs changed, for undo()."""
    changed = []
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def undo(changed: list[tuple[object, str]], fn) -> None:
    for module, attr in changed:
        setattr(module, attr, fn)


def lookup(module_name: str, func_name: str):
    module = sys.modules.get(f"{PACKAGE}.{module_name}")
    return getattr(module, func_name, None) if module is not None else None


def arg_getter(fn, name: str):
    """Fetch argument `name` of a call to fn from (args, kwargs), or None
    when fn has no such parameter."""
    params = list(inspect.signature(inspect.unwrap(fn)).parameters)
    if name not in params:
        return None
    pos = params.index(name)

    def get(args, kwargs):
        return args[pos] if pos < len(args) else kwargs.get(name)

    return get


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class LayerTracer:
    """Probes the layer functions listed in TARGETS.  Counters beyond
    calls and time are kept in `counts`, keyed by name."""

    TARGETS = (
        ("scenario", "load_scenario"),
        ("hazard", "sample_initial_damage"),
        ("community", "functional_mask"),
        ("community", "benefit_for_damage"),
        ("community", "benefit_for_damage_cached"),
        ("mdp", "transition"),
        ("mdp", "is_terminal"),
        ("mdp", "enumerate_actions"),
        ("planner", "base_action"),
        ("planner", "trajectory_return"),
        ("planner", "estimate_q"),
        ("planner", "rollout_decision"),
        ("planner", "run_episode"),
        ("planner", "exhaustive_oracle"),
        ("cli", "main"),
    )

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.missing: set[str] = set()
        self.counts: dict[str, int] = {}
        # stack entries are [name, time spent in probed children]
        self._stack: list[list] = []
        self._active: dict[str, int] = {}
        self._seen_states: set = set()
        self._installed: list[tuple[object, list]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for module_name, func_name in self.TARGETS:
            name = f"{module_name}.{func_name}"
            fn = lookup(module_name, func_name)
            if fn is None:
                self.missing.add(name)
                continue
            self.stats[name] = Stat()
            probe = self._probe(name, fn, self._hook_for(name, fn))
            self._installed.append((fn, rebind(fn, probe)))

    def uninstall(self) -> None:
        for fn, changed in reversed(self._installed):
            undo(changed, fn)
        self._installed.clear()

    def reset(self) -> None:
        """Zero all aggregates, e.g. between repetitions."""
        for name in self.stats:
            self.stats[name] = Stat()
        self.counts.clear()
        self._seen_states.clear()

    def _bump(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def _probe(self, name: str, fn, hook):
        stats = self.stats
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        def probe(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] -= 1
                st = stats[name]
                st.calls += 1
                st.total += dt
                st.self_time += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(args, kwargs, result)
            return result

        probe.__wrapped__ = fn
        return probe

    # -- per-layer counters ---------------------------------------------

    def _parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _hook_for(self, name: str, fn):
        if name == "community.benefit_for_damage":

            def hook(args, kwargs, result):
                if self._parent() == "community.benefit_for_damage_cached":
                    self._bump("benefit_cache.misses")

            return hook
        if name == "mdp.transition":

            def hook(args, kwargs, result):
                if self._parent() == "planner.trajectory_return":
                    self._bump("transition.in_trajectory")
                if self._active.get("planner.exhaustive_oracle"):
                    self._bump("transition.in_oracle")

            return hook
        if name == "mdp.enumerate_actions":
            count = lookup("mdp", "count_admissible")
            get_state = arg_getter(fn, "state")
            get_comm = arg_getter(fn, "community")
            get_cfg = arg_getter(fn, "config")
            if count is None or None in (get_state, get_comm, get_cfg):
                return None

            def hook(args, kwargs, result):
                total = count(
                    get_state(args, kwargs), get_comm(args, kwargs),
                    get_cfg(args, kwargs),
                )
                if total > len(result):
                    self._bump("enumerate_actions.sampled")

            return hook
        if name == "planner.base_action":
            get_state = arg_getter(fn, "state")
            get_comm = arg_getter(fn, "community")
            get_cfg = arg_getter(fn, "config")
            if None in (get_state, get_comm, get_cfg):
                return None
            seen = self._seen_states

            def hook(args, kwargs, result):
                cfg = get_cfg(args, kwargs)
                key = (
                    id(get_comm(args, kwargs)),
                    get_state(args, kwargs).damage,
                    cfg.n_e,
                    cfg.n_w,
                )
                if key not in seen:
                    seen.add(key)
                    self._bump("base_action.distinct")

            return hook
        return None

    # -- report -----------------------------------------------------------

    def self_seconds(self) -> float:
        return sum(s.self_time for s in self.stats.values())

    def layer_metrics(self) -> dict[str, float | None]:
        """Per-layer metrics named <module>.<function>.<stat>; derived
        ratios are None when the function they read is missing or was
        never called."""
        out: dict[str, float | None] = {}

        def stat(name):
            return self.stats.get(name)

        def ratio(num, den):
            if num is None or den is None or den == 0:
                return None
            return num / den

        def calls(name):
            s = stat(name)
            return s.calls if s is not None else None

        for module_name, func_name in self.TARGETS:
            name = f"{module_name}.{func_name}"
            s = stat(name)
            out[f"{name}.calls"] = s.calls if s else None
            out[f"{name}.self_s"] = s.self_time if s else None

        c = self.counts
        lookups = calls("community.benefit_for_damage_cached")
        misses = c.get("benefit_cache.misses", 0) if lookups is not None else None
        miss_rate = ratio(misses, lookups)
        out["community.benefit_cache.hit_rate"] = (
            None if miss_rate is None else 1.0 - miss_rate
        )
        tr = stat("mdp.transition")
        out["mdp.transition.us_per_call"] = (
            ratio(tr.total * 1e6, tr.calls) if tr else None
        )
        out["mdp.enumerate_actions.sampled_frac"] = ratio(
            c.get("enumerate_actions.sampled", 0),
            calls("mdp.enumerate_actions"),
        )
        distinct = (
            c.get("base_action.distinct", 0)
            if "planner.base_action" in self.stats
            else None
        )
        out["planner.base_action.distinct_states"] = distinct
        dup_rate = ratio(distinct, calls("planner.base_action"))
        out["planner.base_action.memo_hit_rate"] = (
            None if dup_rate is None else 1.0 - dup_rate
        )
        traj = calls("planner.trajectory_return")
        out["planner.transitions_per_trajectory"] = ratio(
            c.get("transition.in_trajectory", 0) if traj is not None else None,
            traj,
        )
        out["planner.exhaustive_oracle.transitions"] = (
            c.get("transition.in_oracle", 0)
            if "planner.exhaustive_oracle" in self.stats
            and "mdp.transition" in self.stats
            else None
        )
        return out
