"""Aggregate repeated benchmark runs into a baseline file.

    PYTHONPATH=src python -m benchmarks.profile.baseline --seeds 0 --runs 5 \\
        --out benchmarks/profile/baselines/seed0.json

Runs the ``command`` of ``BENCHMARK.json`` exactly as a regression check does
(``--workload W --seed S --seconds <run_seconds> --trace 0``), ``--runs``
times for every seed and workload, interleaving workloads so slow drifts of
the machine spread over all of them; then one traced run per workload on the
first seed.  For every workload and end-to-end metric the file records the
values, their median and quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the distance between the quartiles as a share of the median;
the printed, ungated metrics (``read_p50_ms`` ...) are summarised the same
way from each run's result file.  ``--seeds 0 1 2 ... 9 --runs 1`` gives the
seed-to-seed spread instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.profile.report import RESULTS, ROOT, benchmark


def run_once(workload: str, seed: int, trace: bool) -> dict:
    """One benchmark invocation: its summary line, wall time and ungated metrics."""
    definition = benchmark()
    command = list(definition["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(definition["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    started = time.monotonic()
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.monotonic() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
        )
    summary = json.loads(lines[-1])
    summary["wall_seconds"] = wall
    if not trace:
        result = json.loads((RESULTS / f"{workload}-seed{seed}.json").read_text(encoding="utf-8"))
        summary["ungated"] = {name: entry["value"] for name, entry in result["extra"].items()}
    return summary


def summarise(values: list) -> dict:
    """Median, quartiles and spread of one metric's values."""
    median = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "values": values,
        "median": median,
        "q1": first,
        "q3": third,
        "spread": (third - first) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.profile.baseline")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--runs", type=int, default=5, help="untraced runs per seed and workload")
    parser.add_argument("--out", type=Path, required=True)
    arguments = parser.parse_args(argv)
    definition = benchmark()
    workloads = [workload["name"] for workload in definition["workloads"]]
    runs = {workload: [] for workload in workloads}
    for _ in range(arguments.runs):
        for seed in arguments.seeds:
            for workload in workloads:
                summary = run_once(workload, seed, trace=False)
                runs[workload].append(summary)
                print(f"{workload} seed {seed}: {summary['wall_seconds']:.1f} s", flush=True)
    report = {
        "seeds": arguments.seeds,
        "runs_per_seed": arguments.runs,
        "run_seconds": definition["run_seconds"],
        "workloads": {},
    }
    for workload in workloads:
        summaries = runs[workload]
        traced = run_once(workload, arguments.seeds[0], trace=True)
        report["workloads"][workload] = {
            "correct": all(summary["correct"] for summary in summaries) and traced["correct"],
            "attempted": sum(summary["attempted"] for summary in summaries),
            "failed": sum(summary["failed"] for summary in summaries),
            "wall_seconds": summarise([summary["wall_seconds"] for summary in summaries]),
            "end_to_end": {
                metric["name"]: summarise(
                    [summary["metrics"][metric["name"]]["value"] for summary in summaries]
                )
                for metric in definition["end_to_end"]
            },
            "ungated": {
                name: summarise([summary["ungated"][name] for summary in summaries])
                for name in summaries[0]["ungated"]
                if all(summary["ungated"].get(name) is not None for summary in summaries)
            },
            "traced": {name: entry["value"] for name, entry in traced["metrics"].items()},
        }
        entries = report["workloads"][workload]
        for name, entry in {**entries["end_to_end"], **entries["ungated"]}.items():
            print(f"{workload:<12} {name:<16} median {entry['median']:.4g} "
                  f"spread {entry['spread']:.3f}", flush=True)
    arguments.out.parent.mkdir(parents=True, exist_ok=True)
    arguments.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if all(entry["correct"] for entry in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
