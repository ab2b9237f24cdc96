"""End-to-end and per-layer benchmark of the iFair fit and serving paths.

Run ``python3 perfbench/run.py --workload fit --seed 0 --seconds 24 --trace 0``
from the repository root; ``perfbench/README.md`` lists the workloads and
metrics.
"""
