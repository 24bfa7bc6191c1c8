"""Set up one workload in a fresh interpreter and exit.

``run.py`` times this process from spawn to exit to measure ``setup_s``:
interpreter start, ``import varcarleson``, the configuration, the multiplier
table and the workload's grid and dictionary builds.

Usage: python3 benchmarks/setup_probe.py WORKLOAD
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench_workloads  # noqa: E402  (needs the package source on the path)

bench_workloads.setup(sys.argv[1])
