"""Metric definitions, the percentile rule, and the printed report.

Metric names, units, directions and bounds live in one place, the
repository's ``BENCHMARK.json``; the harness computes values and takes every
unit from there, so a metric cannot be printed without its unit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List, Optional, Sequence

#: The repository root (the benchmark runs from a checkout of it).
ROOT = Path(__file__).resolve().parents[2]
#: Output directory (ignored by git, beside the other benchmarks' results).
RESULTS = ROOT / "benchmarks" / "results" / "profile"

#: A tail percentile is reported only when at least this many samples lie
#: beyond it, so ``p90`` needs 100 samples.  Medians are always reported.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank tail percentile, or ``None`` when the sample cannot support it.

    The nearest rank is ``ceil(fraction * n)``; the value is withheld unless
    at least :data:`TAIL_SAMPLES` samples rank above it.
    """
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    if rank < 1 or len(ordered) - rank < TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


def benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_list(result: dict) -> List[dict]:
    """The metric definitions a result reports: per-layer when traced."""
    return benchmark()["per_layer" if result["trace"] else "end_to_end"]


def summary_line(result: dict) -> dict:
    """The one-line JSON summary: correctness, op counts and every metric with its unit.

    Raises:
        KeyError: if the result lacks a metric ``BENCHMARK.json`` defines
            (the harness and the definitions disagree).
    """
    metrics = {}
    for metric in metric_list(result):
        value = result["metrics"][metric["name"]]
        if value is not None:
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _format(value: Optional[float]) -> str:
    if value is None:
        return "withheld"
    if value == 0 or abs(value) >= 100:
        return f"{value:.1f}"
    return f"{value:.4g}"


def render(result: dict) -> List[str]:
    """Human-readable report lines for one workload run."""
    mode = "traced" if result["trace"] else "untraced"
    lines = [
        f"== {result['workload']} (seed {result['seed']}, {mode}, "
        f"{result['measured_seconds']:.1f} s measured, "
        f"{result['attempted']} ops, {result['failed']} failed) ==",
    ]
    for metric in metric_list(result):
        name = metric["name"]
        samples = result["samples"].get(name)
        suffix = f"  n={samples}" if samples is not None else ""
        lines.append(
            f"  {name:<34} {_format(result['metrics'][name]):>12} {metric['unit']:<6}{suffix}"
        )
    for name, extra in result.get("extra", {}).items():
        lines.append(
            f"  {name:<34} {_format(extra['value']):>12} {extra['unit']:<6}"
            f"  n={extra['samples']}  (not gated)"
        )
    if result["trace"]:
        lines.append("  span                     calls/op   self ms/op  total ms/op")
        ops = max(result["traced_ops"], 1)
        for name, span in sorted(result["spans"].items()):
            lines.append(
                f"  {name:<22} {span['calls'] / ops:>10.2f} {span['self_ms'] / ops:>12.4f}"
                f" {span['total_ms'] / ops:>12.4f}"
            )
        lines.append(
            f"  unattributed share {result['metrics']['unattributed_share']:.3f}, "
            f"trace_overhead {result['metrics']['trace_overhead']:+.3f}"
        )
    gates = result["gates"]
    lines.append(
        f"  oracle: {gates['oracle_checked']} reads re-run, "
        f"{len(gates['oracle_mismatches'])} differed"
    )
    for name, verdict in gates.items():
        if name not in ("oracle_checked", "oracle_mismatches"):
            lines.append(f"  {name}: {verdict}")
    lines.append(
        f"  rankings_sha256 {result['rankings_sha256']} "
        f"(first {result['rankings_reads']} reads)"
    )
    for error in result["errors"]:
        lines.append("  error: " + error.strip().replace("\n", "\n         "))
    lines.append(f"  correct: {result['correct']}")
    return lines
