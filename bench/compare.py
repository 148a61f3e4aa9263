"""Compare benchmark result sets of a parent commit and a change.

    python3 bench/compare.py collect --parent DIR --change DIR --out FILE
        [--pairs 10] [--workload NAME ...]
    python3 bench/compare.py report FILE

`collect` runs `python3 <checkout>/bench/run.py` in both checkouts, pair by
pair: both sides of a pair get the same seed, every pair a new one, and the
side that runs first alternates. Every run lasts `run_seconds` of
BENCHMARK.json, and pair p uses seed 1000 + p. It appends one JSON line per
run to FILE: side, pair, workload, seed and the run's result object.

`report` prints one row per workload and end-to-end metric:

- gain: at least 10 pairs, the change wins at least 9 in 10 of them (ties
  count for neither side), and the medians differ by more than the parent's
  interquartile range;
- REGRESSION: the change's median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json;
- unresolved: the parent's own interquartile range, as a share of its median,
  exceeds the bound, and not every change run beats every parent run;
- no regression: none of the above.

A side with an incorrect run is reported as such, whatever its numbers, and
a side with no run for a workload gets a row that says so. `report` exits 1
if any row is a REGRESSION, if the change had an incorrect run, or if either
side has no runs for a workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEED_BASE = 1000


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


def _run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(checkout, "bench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def collect(args) -> int:
    spec = _spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = SEED_BASE + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = _run(sides[side], workload, seed, spec["run_seconds"])
                    record = {"side": side, "pair": pair, "workload": workload, "seed": seed, "result": result}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"pair {pair} {workload} {side}: correct={result['correct']}")
    return 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict[int, float], change: dict[int, float], better: str, bound: float) -> tuple[str, str]:
    """(verdict, wins) for one metric on one workload; values keyed by pair."""
    sign = 1 if better == "higher" else -1
    pairs = sorted(set(parent) & set(change))
    wins = sum(1 for p in pairs if sign * (change[p] - parent[p]) > 0)
    p_vals, c_vals = list(parent.values()), list(change.values())
    p1, p_med, p3 = _quartiles(p_vals)
    c_med = statistics.median(c_vals)
    spread = (p3 - p1) / p_med if p_med else float("inf")
    worse_share = sign * (p_med - c_med) / p_med if p_med else 0.0
    every_better = min(sign * v for v in c_vals) > max(sign * v for v in p_vals)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p3 - p1:
        result = "gain"
    elif worse_share > bound:
        result = "REGRESSION"
    elif spread > bound and not every_better:
        result = "unresolved"
    else:
        result = "no regression"
    return result, f"{wins}/{len(pairs)}"


def report(args) -> int:
    spec = _spec()
    data: dict[tuple[str, str], dict[str, dict[int, float]]] = defaultdict(lambda: defaultdict(dict))
    incorrect: set[tuple[str, str]] = set()
    with open(args.file) as fp:
        for line in fp:
            rec = json.loads(line)
            result = rec["result"]
            if not result.get("correct"):
                incorrect.add((rec["workload"], rec["side"]))
            for name, metric in result.get("metrics", {}).items():
                data[(rec["workload"], name)][rec["side"]][rec["pair"]] = metric["value"]
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':14} {'metric':12} {'parent median [q1, q3]':34} {'change median [q1, q3]':34} {'wins':6} verdict")
    failures = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            sides = data[(workload, metric["name"])]
            missing = [side for side in ("parent", "change") if not sides.get(side)]
            cells = []
            for side in ("parent", "change"):
                if side in missing:
                    cells.append("no runs")
                    continue
                q1, med, q3 = _quartiles(list(sides[side].values()))
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            if missing:
                result, wins = f"no {' or '.join(missing)} runs", "-"
            else:
                result, wins = verdict(
                    sides["parent"], sides["change"], metric["better"], metric["bound"]
                )
            for side in ("parent", "change"):
                if (workload, side) in incorrect:
                    result = f"{side} had incorrect runs"
            failures += bool(missing) or (workload, "change") in incorrect or result == "REGRESSION"
            print(f"{workload:14} {metric['name']:12} {cells[0]:34} {cells[1]:34} {wins:6} {result}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run alternating pairs of parent and change")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--out", required=True, help="JSON-lines file to append to")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append", help="repeatable; default all")
    p.set_defaults(func=collect)
    p = sub.add_parser("report", help="gain / regression / unresolved per workload and metric")
    p.add_argument("file")
    p.set_defaults(func=report)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
