"""Layer-by-layer profile benchmark of the retrieval engine.

Four seeded workloads, each run closed-loop in a fresh interpreter, report
end-to-end metrics (or, traced, per-layer ones).  Run from the repository
root::

    PYTHONPATH=src python -m benchmarks.profile --seed 0 [--workload NAME] [--trace]

See ``benchmarks/profile/README.md`` for the metric and workload definitions.
"""
