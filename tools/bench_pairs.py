"""Paired benchmark runs of two checkouts, written as one BENCH_*.json.

Usage (from the root of a checkout):

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 --seed 1 \\
        --seconds 40 --out BENCH_12.json

Each pair runs `python3 perfbench/run.py --workload all` once in each
checkout, the parent first in even pairs and the change first in odd pairs,
so a drift of the host's load does not favour one side.  The last line of
each run's output is its JSON result; all of them go into the output file,
beside a summary per end-to-end metric: the median and quartiles of each
side, the relative change of the medians, and the pairs the change won.
Quartiles are statistics.quantiles(..., n=4, method="inclusive").  The
metric directions and bounds come from BENCHMARK.json.  Nothing here
changes what perfbench measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDER = "alternating: parent first in even pairs, change first in odd pairs"


def pair_order(pair: int) -> tuple:
    """The sides in the order pair runs them."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def run_once(checkout: Path, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --workload all` in checkout; its JSON result.
    The run writes no bytecode into the checkout, so no side imports a
    cache the other side lacks."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"error: no result from {checkout} (exit {proc.returncode}):\n"
                         f"{proc.stderr}") from None


def commit_of(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def host() -> str:
    return (f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
            f"{platform.python_implementation()} {platform.python_version()}")


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent_runs: list, change_runs: list, specs: dict) -> dict:
    """Per metric present in every run: each side's median and quartiles,
    the relative change of the medians, the parent's interquartile range and
    the pairs the change won.  specs maps a metric's base name (after the
    workload prefix) to its BENCHMARK.json entry, which gives `better`;
    metrics without one are left out."""
    names = set.intersection(*(set(run["metrics"]) for run in parent_runs + change_runs))
    summary = {}
    for name in sorted(names):
        spec = specs.get(name.rsplit(".", 1)[-1])
        if spec is None:
            continue
        parent = [run["metrics"][name]["value"] for run in parent_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        higher = spec["better"] == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        summary[name] = {
            "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
            "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
            "relative_change": (c_med - p_med) / p_med if p_med else None,
            "parent_iqr": p_q3 - p_q1,
            "change_wins": wins, "pairs": len(parent),
            "better": spec["better"], "bound": spec.get("bound"),
        }
    return summary


def metric_specs(checkout: Path) -> dict:
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    return {spec["name"]: spec for spec in benchmark["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in sides}
    for pair in range(args.pairs):
        for side in pair_order(pair):
            result = run_once(sides[side], args.seed, args.seconds)
            runs[side].append(result)
            print(f"pair {pair} {side}: correct={result['correct']}", file=sys.stderr)
    report = {
        "command": "python3 perfbench/run.py --workload all",
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "order": ORDER,
        "host": host(),
        "parent": {"commit": commit_of(sides["parent"]), "runs": runs["parent"]},
        "change": {"commit": commit_of(sides["change"]), "runs": runs["change"]},
        "summary": summarize(runs["parent"], runs["change"], metric_specs(ROOT)),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(run["correct"] for side in runs.values() for run in side) else 1


if __name__ == "__main__":
    sys.exit(main())
