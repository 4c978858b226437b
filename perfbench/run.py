#!/usr/bin/env python3
"""PCQE benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ask-demo --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads are described in ``perfbench/workloads.json``; the metrics in
``BENCHMARK.json``.  ``--trace 0`` measures the end-to-end metrics with
nothing wrapped; ``--trace 1`` spends half the time untraced and half
with every layer wrapped, and reports the per-layer ledger plus the
tracing overhead.  Each metric is printed as ``name = value unit``; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed.  ``--workload all`` runs every
workload in its own process and fails if any of them fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _run_all(args: argparse.Namespace, names: list[str]) -> int:
    status = 0
    for name in names:
        print(f"== {name}", flush=True)
        completed = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload",
                name,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(args.trace),
            ],
            check=False,
        )
        if completed.returncode != 0:
            print(f"{name}: FAILED (exit {completed.returncode})", flush=True)
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no program sources at src/repro; run from the root "
            "of a full checkout",
            file=sys.stderr,
        )
        return 2
    benchmark = _load(ROOT / "BENCHMARK.json")
    specs = _load(HERE / "workloads.json")
    if args.workload == "all":
        return _run_all(args, list(specs))
    if args.workload not in specs:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(specs)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    spec = specs[args.workload]
    out = ROOT / ".perfbench-out"
    if args.workload == "wire-mixed":
        import wire

        report = wire.run(
            args.seed,
            args.seconds,
            bool(args.trace),
            spec,
            work=out / f"wire-{os.getpid()}",
            out=out,
        )
    else:
        import inproc

        report = inproc.run(
            args.workload, args.seed, args.seconds, bool(args.trace), spec, out
        )

    errors = report["errors"]
    attempted = report["attempted"]
    failed = report["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}")
    if args.trace:
        declared = benchmark["per_layer"]
        values = report["layers"]
    else:
        declared = benchmark["end_to_end"]
        values = report
    metrics = {}
    for metric in declared:
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} = {value:.6g} {metric['unit']}")
    if not args.trace:
        print(
            f"ask_tail_ms = {report['tail_ms']:.6g} ms  ({report['tail_label']}, "
            f"{report['tail_beyond']} samples beyond it)"
        )
        print(f"ask_mean_ms = {report['ask_mean_ms']:.6g} ms  (whole run)")
        print(f"reference_mean_ms = {report['reference_mean_ms']:.6g} ms")
        print(f"ask_p50_ms = {report['ask_p50_ms']:.6g} ms  (whole run)")
        print(f"asks_per_s = {report['asks_per_s']:.6g} 1/s")
    print(f"error_rate = {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    for key, unit in (
        ("quote_cost", "cost"),
        ("commit_p50_ms", "ms"),
        ("commit_max_ms", "ms"),
        ("commits", "count"),
        ("late_ms", "ms"),
    ):
        if key in report:
            print(f"{key} = {report[key]:.6g} {unit}")
    for error in errors:
        print(f"WRONG: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
