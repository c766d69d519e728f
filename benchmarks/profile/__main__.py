"""Command line of the profile benchmark.

    PYTHONPATH=src python -m benchmarks.profile --seed 0 [--workload NAME] [--trace]

Without ``--workload`` all four workloads run in turn.  For each, the parent
generates the seeded corpus and op stream, saves the corpus into a temporary
directory under ``benchmarks/results/profile/``, and runs the workload in a
fresh child interpreter.  The untraced run prints every end-to-end metric and
writes ``results/<workload>-seed<N>.json``; ``--trace`` prints every
per-layer metric and writes ``results/trace-<workload>.json``.  The last line
of standard output is the JSON summary ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is non-zero when a correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.profile.report import RESULTS, ROOT, benchmark, summary_line, render

#: Each workload, inputs included, must finish within this many seconds.
DEADLINE_SECONDS = 170.0
#: ``--seconds`` under ``--smoke`` unless given.
SMOKE_SECONDS = 1.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Generate one workload's inputs, run it in a child interpreter, return its result.

    Raises:
        RuntimeError: if the child fails or overruns :data:`DEADLINE_SECONDS`.
    """
    from benchmarks.profile.workloads import make_inputs

    deadline = time.monotonic() + DEADLINE_SECONDS
    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"work-{workload}-", dir=RESULTS) as work:
        directory = Path(work)
        inputs = make_inputs(workload, seed, smoke, directory)
        inputs.update(seed=seed, seconds=seconds, trace=trace, smoke=smoke)
        (directory / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
        paths = [str(ROOT / "src"), str(ROOT)] + [
            path for path in os.environ.get("PYTHONPATH", "").split(os.pathsep) if path
        ]
        child = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.profile.child", str(directory)],
            cwd=ROOT,
            # A fixed hash seed makes dict and set layouts, and the memory
            # traffic they cause, repeat from run to run.
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONHASHSEED="0"),
            start_new_session=True,
        )
        try:
            code = child.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The child leads its own process group: this stops it and any
            # shard worker it left behind, then reaps it.
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
        if code is None:
            raise RuntimeError(f"{workload}: did not finish before the deadline")
        if code != 0:
            raise RuntimeError(f"{workload}: the workload process exited with status {code}")
        return json.loads((directory / "result.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from benchmarks.profile.workloads import SIZES

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.profile", description="Layer-by-layer profile benchmark."
    )
    parser.add_argument("--workload", choices=sorted(SIZES), help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, help="measured seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics instead of end-to-end ones")
    parser.add_argument("--smoke", action="store_true", help="tiny corpora (self-test)")
    arguments = parser.parse_args(argv)
    seconds = arguments.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if arguments.smoke else float(benchmark()["run_seconds"])
    if seconds <= 0:
        parser.error("--seconds must be positive")
    correct = True
    for workload in [arguments.workload] if arguments.workload else list(SIZES):
        result = run_workload(
            workload, arguments.seed, seconds, bool(arguments.trace), arguments.smoke
        )
        name = f"{workload}-seed{arguments.seed}.json"
        if result["trace"]:
            name = f"trace-{workload}.json"
        (RESULTS / name).write_text(json.dumps(result, indent=1), encoding="utf-8")
        print("\n".join(render(result)), flush=True)
        print(json.dumps(summary_line(result)), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
