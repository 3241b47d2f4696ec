"""Committed performance trajectory of the simulator.

``driver`` measures every perfbench workload in checked, fresh-process
repetitions and writes a ``BENCH_<date>.json`` snapshot; ``compare``
gates a fresh snapshot against the newest committed one and renders
the trend.  See EXPERIMENTS.md, "Performance trajectory".

The package puts ``perfbench/`` on ``sys.path`` so that both modules
import its code unedited: the trajectory measures the benchmark's
cells the way the benchmark does.
"""

import sys
from pathlib import Path

PERFBENCH_DIR = str(Path(__file__).resolve().parents[2] / "perfbench")
if PERFBENCH_DIR not in sys.path:
    sys.path.insert(0, PERFBENCH_DIR)
