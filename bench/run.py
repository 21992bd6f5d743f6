"""Benchmark of the recovery_rollout planner: one workload per run.

    python3 bench/run.py --workload mini-compare --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --write-json      # regenerate BENCHMARK.json from SPEC

Each run is a fresh process, so memory and the memo caches start cold, as
in a CLI run.  With --trace 0 the run repeats the workload's fixed set of
operations until --seconds have passed, checks every output, and reports
the end-to-end metrics.  With --trace 1 it runs the set once untraced and
twice with every layer function probed, and reports per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object.  See bench/NOTES.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

E2E = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("decision_ms_mean", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

PER_LAYER = [
    (f"{module}.{func}.{stat}", unit, "lower")
    for module, func in (
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
    for stat, unit in (("calls", "count"), ("self_s", "s"))
] + [
    ("community.benefit_cache.hit_rate", "ratio", "higher"),
    ("mdp.transition.us_per_call", "us", "lower"),
    ("mdp.enumerate_actions.sampled_frac", "ratio", "lower"),
    ("planner.base_action.memo_hit_rate", "ratio", "higher"),
    ("planner.base_action.distinct_states", "count", "lower"),
    ("planner.transitions_per_trajectory", "count", "lower"),
    ("planner.trajectories_per_decision", "count", "lower"),
    ("planner.trajectories_per_s", "1/s", "higher"),
    ("planner.estimate_q.at_cap_frac", "ratio", "lower"),
    ("planner.rollout_decision.candidates_mean", "count", "lower"),
    ("planner.rollout_decision.deviation_frac", "ratio", "higher"),
    ("planner.exhaustive_oracle.transitions", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.accounted_frac", "ratio", "higher"),
]

WORKLOAD_WHY = {
    "mini-compare": "CLI compare on mini_gilroy: short trajectories, >99% cache hits, per-trajectory Python overhead dominates",
    "mini-rate": "paired episodes under max_benefit_rate: reward reads benefit/time every step, trajectories run to full repair",
    "grid-large": "mini_gilroy tiled 4x, 2 crews/network: sampled action sets, ~48-step trajectories, memo hit rates fall",
    "oracle-desk": "exhaustive oracle plus deterministic rollout on desk instances: DFS, remaining-work branch, uncached benefit",
}

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 24,
    "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
    "end_to_end": [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in E2E
    ],
    "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
}


def environment() -> str:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"python={platform.python_version()} numpy={version('numpy')} "
        f"scipy={version('scipy')} pyyaml={version('PyYAML')} "
        f"nproc={nproc} cpu={cpu!r}"
    )


def fmt(value, unit: str = "") -> str:
    if value is None:
        return "null"
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"{text} {unit}".rstrip()


def check_rep(outcome, rec, workloads) -> dict:
    """Merge check failures into the repetition's failed ops."""
    failed = dict(outcome.failed)
    problems = [(ep.op, workloads.episode_problem(ep)) for ep in rec.episodes]
    problems += [(d.op, workloads.decision_problem(d)) for d in rec.decisions]
    for op, problem in problems:
        if problem is not None:
            failed.setdefault(op, problem)
    return failed


def e2e_values(reps, wall_key, decision_key, setup_times) -> dict:
    decision_s = [s for r in reps for s in r[decision_key]]
    p90 = statistics.quantiles(decision_s, n=10)[8] if len(decision_s) >= 2 else math.inf
    beyond = sum(s > p90 for s in decision_s)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median(r["ops"] / r[wall_key] for r in reps),
        "decision_ms_mean": statistics.fmean(decision_s) * 1e3,
        "decision_ms_p50": statistics.median(decision_s) * 1e3,
        "decision_ms_p90": p90 * 1e3 if beyond >= 10 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decisions": len(decision_s),
        "beyond_p90": beyond,
    }


def run(args) -> int:
    if not (SRC / "recovery_rollout" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import recovery_rollout

    if Path(recovery_rollout.__file__).resolve().parent != SRC / "recovery_rollout":
        print(f"error: imported {recovery_rollout.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import calibrate
    import layertrace
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work, workloads, layertrace, calibrate)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


def measure(args, work: Path, workloads, layertrace, calibrate) -> int:
    print(f"env {environment()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    print(f"workload {wl.name} seed {args.seed}: {wl.describe()}")
    print(f"operation: {wl.op_label}")

    speed = calibrate.SpeedLog()
    if not args.trace:
        speed.start()
    try:
        reps, setups = repeat(args, wl, workloads, layertrace, speed)
    finally:
        speed.stop()
    report(args, reps, setups, speed)
    return 0


def repeat(args, wl, workloads, layertrace, speed):
    """Run the workload's set: untraced until args.seconds have passed, or
    once untraced and twice traced.  Returns the repetitions and the
    (start, end) of every set-up sample."""
    clock = time.perf_counter
    setups = []

    def sample_setup() -> None:
        t0 = clock()
        wl.setup()
        setups.append((t0, clock()))

    if not args.trace:
        for _ in range(SETUP_REPEATS):
            sample_setup()

    rec = workloads.Recorder()
    rec.install()
    tracer = layertrace.LayerTracer()
    reps = []

    def span(measure, a, b):
        """measure(a, b) without the set-up samples taken inside it."""
        return measure(a, b) - sum(measure(p, q) for p, q in rec.pauses if a <= p < b)

    start = clock()
    while True:
        traced = args.trace and len(reps) > 0
        if traced and not tracer.stats:
            tracer.install()
        tracer.reset()
        rec.clear()
        rec.sampler = None if args.trace else sample_setup
        t0 = clock()
        outcome = wl.rep(rec)
        t1 = clock()
        wall = span(speed.active, t0, t1)
        rep = {
            "wall": wall,
            "scaled_wall": span(speed.scaled, t0, t1),
            "ops": len(outcome.ops),
            "quality": outcome.quality,
            "digest": outcome.digest,
            "decision_s": [speed.active(d.start, d.start + d.seconds) for d in rec.decisions],
            "decision_scaled": [speed.scaled(d.start, d.start + d.seconds) for d in rec.decisions],
        }
        if traced:
            rep["layers"] = tracer.layer_metrics()
            rep["self_s"] = tracer.self_seconds()
        rep["stats"] = workloads.decision_stats(rec.decisions)
        rep["failed"] = check_rep(outcome, rec, workloads)
        reps.append(rep)
        print(
            f"rep {len(reps)}{' traced' if traced else ''}: {rep['ops']} ops in "
            f"{wall:.3f} s ({rep['scaled_wall']:.3f} s at reference speed), "
            f"{len(rep['failed'])} failed, digest {rep['digest']}"
        )
        for op, reason in sorted(rep["failed"].items(), key=lambda kv: str(kv[0])):
            print(f"  FAILED op {op}: {reason}")
        if args.trace:
            if len(reps) == 3:
                break
        elif clock() - start + wall > args.seconds:
            break
    tracer.uninstall()
    rec.uninstall()
    return reps, setups


def report(args, reps, setups, speed) -> None:
    """Print the human-readable lines and, last, the JSON result."""
    attempted = sum(r["ops"] for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    correct = failed == 0
    first = reps[0]
    print(f"attempted {attempted} failed {failed} failed_frac {fmt(failed / attempted, 'ratio')}")
    print(f"digest stable across reps: {len({r['digest'] for r in reps}) == 1}")
    for name in ("rollout_gain_pct", "rollout_not_worse_frac", "oracle_gap_pct_max"):
        unit = "ratio" if name.endswith("frac") else "%"
        print(f"metric {name} = {fmt(first['quality'].get(name), unit)}")

    if args.trace:
        base, t1, t2 = reps
        distinct = [r["layers"].get("planner.base_action.distinct_states") for r in (t1, t2)]
        cold = distinct[0] == distinct[1]
        print(f"cold caches: distinct base-action states per traced rep {distinct} equal={cold}")
        correct = correct and cold
        values = dict(t1["layers"])
        values.update({k: v for k, v in t1["stats"].items() if k != "trajectories"})
        values["planner.trajectories_per_s"] = t1["stats"].get("trajectories", 0) / base["wall"]
        values["trace.overhead_pct"] = (t1["wall"] / base["wall"] - 1.0) * 100.0
        values["trace.accounted_frac"] = t1["self_s"] / t1["wall"]
        metrics = {}
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": values.get(name), "unit": unit}
            print(f"layer {name} = {fmt(values.get(name), unit)}")
    else:
        raw = e2e_values(reps, "wall", "decision_s", [speed.active(a, b) for a, b in setups])
        values = e2e_values(reps, "scaled_wall", "decision_scaled", [speed.scaled(a, b) for a, b in setups])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in E2E}
        printed = E2E + [("decision_ms_p50", "ms", None, None), ("decision_ms_p90", "ms", None, None)]
        for name, unit, _, _ in printed:
            print(
                f"metric {name} = {fmt(values[name], unit)} "
                f"({fmt(raw[name], unit)} before speed calibration)"
            )
        print(
            f"decision_ms_p90 needs 10 decisions beyond p90: {values['decisions']} "
            f"decisions, {values['beyond_p90']} beyond; setup_s is the median of "
            f"{len(setups)} set-ups spread over the run; speed calibrated "
            f"{len(speed.slowdowns)} times, median slowdown "
            f"{statistics.median(speed.slowdowns):.3f}"
        )
        print(f"metric failed_frac = {fmt(failed / attempted, 'ratio')}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-json", action="store_true",
                        help="write BENCHMARK.json from SPEC and exit")
    args = parser.parse_args(argv)
    if args.write_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
