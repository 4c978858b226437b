#!/usr/bin/env python3
"""Steadiness report: how far each end-to-end metric spreads across seeds.

Runs ``run.py`` once per seed for each workload (one process each, one
after another), and for every end-to-end metric prints the median and
the spread — the distance between the first and third quartile, from
``statistics.quantiles(values, n=4)``, over the median.  The bounds in
``BENCHMARK.json`` are set from this report: a bound should be three
times the widest spread seen, within the ceiling of 0.25, and
``setup_s`` gets the largest.

With ``--compare EARLIER.json`` the report also gives, per metric, how
much worse this set's median is than the earlier set's, as a share of
the earlier median: two sets of runs of the same code agree when no
metric is worse by more than its bound.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --runs 10 --json perfbench/steadiness.json
    python3 perfbench/steadiness.py --runs 10 --first-seed 11 \
        --compare perfbench/steadiness.json --json perfbench/steadiness-2.json

Exits 1 if a run fails, a spread exceeds its bound, or a median is worse
than the compared set's by more than the bound; a spread over a third of
its bound is flagged, since a second set of runs may then land outside.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import relative_iqr  # noqa: E402


def _run(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=workloads)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--json", help="write the report here")
    parser.add_argument("--compare", help="an earlier report of the same code")
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    higher_is_better = {
        metric["name"]
        for metric in benchmark["end_to_end"]
        if metric["better"] == "higher"
    }
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            earlier = json.load(handle)
    report: dict = {
        "runs": args.runs,
        "seconds": args.seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "machine": f"{platform.machine()}, {platform.python_implementation()} "
        f"{platform.python_version()}",
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "compared_with": args.compare,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in report["seeds"]:
            result = _run(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, series in values.items():
            median = statistics.median(series)
            spread = relative_iqr(series)
            row = {
                "median": median,
                "spread": spread,
                "bound": bounds[name],
                "values": series,
            }
            flags = []
            if spread > bounds[name]:
                flags.append("spread over its bound")
                steady = False
            elif spread > bounds[name] / 3:
                flags.append("spread over a third of its bound")
            line = (
                f"{workload:11s} {name:16s} median {median:12.6g}  "
                f"spread {spread:7.2%}  bound {bounds[name]:.0%}"
            )
            if earlier is not None:
                before = earlier["workloads"][workload][name]["median"]
                ratio = before / median if name in higher_is_better else median / before
                row["worse_than_compared"] = ratio - 1.0
                line += f"  vs earlier {ratio - 1.0:+7.2%}"
                if ratio - 1.0 > bounds[name]:
                    flags.append("median worse than the earlier set's by over bound")
                    steady = False
            rows[name] = row
            print(line + "".join(f"  <-- {flag}" for flag in flags), flush=True)
        report["workloads"][workload] = rows
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
