"""Perf snapshot driver: perfbench's steady cells as BENCH trajectory rows.

Usage (from the repository root)::

    PYTHONPATH=src:. python -m benchmarks.perf.driver \
        --out BENCH_$(date +%F).json --date $(date +%F)

Each perfbench workload runs ``--repeats`` times in fresh processes
through ``perfbench/run.py``, and every repetition is checked: the
steadiness gate, the model checks, reproducible cell digests.  A row
holds the medians of perfbench's end-to-end metrics and the window's
deterministic counters.  If any check fails nothing is written and the
exit status is 1, so the trajectory never records an unsteady row.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from typing import Any, Dict, Optional, Sequence

from benchmarks.perf.compare import SCHEMA_VERSION
from repro.system.parallel import CODE_VERSION

# perfbench/run.py and perfbench/workloads.py, on sys.path via benchmarks.perf
import run as perfbench
from workloads import CELLS

#: The workload seed of every trajectory row (perfbench's default).
SEED = 42

#: Deterministic counters summed over a repetition's cells.
COUNTERS = ("events", "committed", "txns")


def measure_workload(workload: str, repeats: int) -> Dict[str, Any]:
    """Run and check ``repeats`` repetitions; return the workload's row.

    Raises ``perfbench.BenchmarkError`` when a repetition cannot run or
    fails a check.  A cell's outputs are fixed by the seed (the digest
    check holds them to it), so the counters are the last repetition's.
    """
    digests: Dict[str, str] = {}
    samples = []
    for _ in range(repeats):
        child = perfbench.run_child(workload, SEED, False, perfbench.DEADLINE_S)
        _, failed = perfbench.check_child(child, digests)
        if failed:
            raise perfbench.BenchmarkError(f"{workload}: {failed} cell(s) failed")
        samples.append(perfbench.end_to_end(child))
    row: Dict[str, Any] = {
        name: statistics.median(sample[name] for sample in samples)
        for name in perfbench.E2E_UNITS
    }
    row.update({key: sum(cell[key] for cell in child["cells"]) for key in COUNTERS})
    row["events_per_txn"] = row["events"] / row["txns"]
    row["digests"] = digests
    row["repeats"] = repeats
    return row


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument(
        "--date", required=True, help="snapshot date, YYYY-MM-DD (use date +%%F)"
    )
    parser.add_argument(
        "--workloads", nargs="+", choices=list(CELLS), default=list(CELLS),
        help="perfbench workloads to measure (default: all)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="fresh-process repetitions per workload (default: 3)",
    )
    parser.add_argument("--label", default="", help="free-form snapshot label")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    rows = {}
    try:
        for workload in args.workloads:
            row = rows[workload] = measure_workload(workload, args.repeats)
            print(
                f"  {workload}: {row['host_us_per_txn']:.1f} us/txn, "
                f"{row['events_per_txn']:.2f} events/txn, {row['run_s']:.2f} s "
                f"run, {row['setup_s']:.2f} s set-up, {row['peak_rss_mb']:.0f} MB",
                file=sys.stderr,
            )
    except perfbench.BenchmarkError as exc:
        print(f"driver: {exc}; nothing written", file=sys.stderr)
        return 1
    # The date comes from the caller (shell ``date +%F``), keeping this
    # module clock-free.
    result = {
        "schema": SCHEMA_VERSION, "date": args.date, "label": args.label,
        "code_version": CODE_VERSION, "python": platform.python_version(),
        "platform": platform.platform(), "seed": SEED, "workloads": rows,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
