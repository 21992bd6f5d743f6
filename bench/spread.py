"""Run-to-run spread of the end-to-end metrics, one subprocess per run.

    python3 bench/spread.py --workloads mini-compare --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --sets 2 --out spread.jsonl

For each workload and metric it prints the median of the runs and the
spread, the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.  A spread
above the metric's bound in BENCHMARK.json is marked UNRESOLVED; one above
a third of the bound is marked wide.  With --sets 2 the seeds run twice
and the second median is compared with the first against the bound.
Runs are sequential so they do not compete for cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", help="append every run's result line to this file")
    args = parser.parse_args(argv)

    results: dict = {}
    for set_index in range(args.sets):
        for workload in args.workloads.split(","):
            for seed in seed_list(args.seeds):
                res = run_once(spec, workload, seed)
                results.setdefault((workload, set_index), []).append(res)
                line = {"workload": workload, "seed": seed, "set": set_index, **res}
                print(json.dumps(line), flush=True)
                if args.out:
                    with open(args.out, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(line) + "\n")

    ok = True
    print(f"{'workload':14} {'metric':16} {'set':>3} {'median':>12} {'spread':>7} {'bound':>5}  verdict")
    for workload in args.workloads.split(","):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index in range(args.sets):
                runs = results[(workload, set_index)]
                ok = ok and all(r["correct"] and r["failed"] == 0 for r in runs)
                values = [r["metrics"][name]["value"] for r in runs]
                s, med = spread(values), statistics.median(values)
                medians.append(med)
                verdict = "steady" if s < bound / 3 else "wide" if s <= bound else "UNRESOLVED"
                if name != "setup_s":
                    ok = ok and s <= bound
                if set_index:
                    change = (med - medians[0]) / medians[0]
                    worse = change if metric["better"] == "lower" else -change
                    verdict += f", vs set 1 {change:+.3f}"
                    ok = ok and worse <= bound
                print(f"{workload:14} {name:16} {set_index + 1:>3} {med:12.6g} {s:7.3f} {bound:5.2f}  {verdict}")
    print("all within bounds" if ok else "NOT within bounds (or a run was incorrect)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
