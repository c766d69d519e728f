"""Child-process entry point: run one workload on inputs the parent generated.

``python -m benchmarks.profile.child WORKDIR`` reads ``WORKDIR/inputs.json``
and writes ``WORKDIR/result.json``.  Running each workload in a fresh
interpreter keeps the parent's corpus generation out of the measured
process's memory and warm state.  With tracing on, the wrappers are
installed before anything loads the database or forks a shard pool.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from benchmarks.profile.trace import Tracer, install
from benchmarks.profile.workloads import RUNNERS


def main(argv: list) -> int:
    directory = Path(argv[1])
    inputs = json.loads((directory / "inputs.json").read_text(encoding="utf-8"))
    tracer = Tracer() if inputs["trace"] else None
    if tracer is not None:
        install(tracer)
    result = RUNNERS[inputs["workload"]](inputs, tracer)
    result["seed"] = inputs["seed"]
    (directory / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
