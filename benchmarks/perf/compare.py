"""Compare perf snapshots: regression gates and trajectory trend.

Usage::

    PYTHONPATH=src:. python -m benchmarks.perf.compare \
        /tmp/bench_now.json [--baseline PATH | --baseline-dir DIR]

    PYTHONPATH=src:. python -m benchmarks.perf.compare --trend

Every workload in both snapshots passes two gates.  Counters, tight:
within one ``code_version`` the window's events, committed, txns,
events/txn and cell digests must be equal.  Host time, loose: baseline
``host_us_per_txn`` over current must stay at or above ``1 -
--tolerance``.  Across a ``code_version`` bump the newer snapshot must
document the re-anchor in a ``baseline`` block (EXPERIMENTS.md); then
only the time gate runs.  Exit status 1 when a gate fails.  Schema-1
snapshots (the retired fig 4.6 run loop's raw wall clock) are frozen
history that the baseline search and ``--trend`` skip.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from workloads import CELLS  # perfbench/workloads.py, via benchmarks.perf

SCHEMA_VERSION = 2

#: Row fields gated exactly within one code version.
COUNTERS = ("events", "committed", "txns", "events_per_txn", "digests")

_REQUIRED_TOP = ("schema", "date", "code_version", "workloads")
_REQUIRED_ROW = ("host_us_per_txn", "run_s", "setup_s", "peak_rss_mb", *COUNTERS)
_POSITIVE = ("host_us_per_txn", "events", "committed", "txns", "events_per_txn")

Snapshot = Dict[str, Any]


class SnapshotFormatError(ValueError):
    """A snapshot file does not match the BENCH schema."""


def validate_snapshot(data: Snapshot) -> None:
    """Raise :class:`SnapshotFormatError` unless ``data`` is a valid snapshot."""
    for key in _REQUIRED_TOP:
        if key not in data:
            raise SnapshotFormatError(f"missing top-level key {key!r}")
    if data["schema"] != SCHEMA_VERSION:
        raise SnapshotFormatError(f"unsupported schema version {data['schema']!r}")
    date = data["date"]
    if not (isinstance(date, str) and re.fullmatch(r"\d{4}-\d{2}-\d{2}", date)):
        raise SnapshotFormatError(f"date {date!r} is not YYYY-MM-DD")
    if not isinstance(data["workloads"], dict) or not data["workloads"]:
        raise SnapshotFormatError("workloads must be a non-empty object")
    for name, row in data["workloads"].items():
        if name not in CELLS:
            raise SnapshotFormatError(f"{name!r} is not a perfbench workload")
        for key in _REQUIRED_ROW:
            if key not in row:
                raise SnapshotFormatError(f"workload {name}: missing {key!r}")
        cells = sorted(cell.name for cell in CELLS[name])
        if sorted(row["digests"]) != cells:
            raise SnapshotFormatError(f"{name}: digests are not its cells {cells}")
        for key in _POSITIVE:
            if not row[key] > 0:
                raise SnapshotFormatError(f"workload {name}: {key} must be > 0")


def load_snapshot(path: Path) -> Snapshot:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    validate_snapshot(data)
    return data


def snapshot_paths(directory: Path) -> List[Path]:
    """The schema-2 ``BENCH_*.json`` files in ``directory``, oldest first
    (names embed an ISO date, so lexical order is date order)."""
    return [
        path
        for path in sorted(directory.glob("BENCH_*.json"))
        if json.loads(path.read_text(encoding="utf-8")).get("schema")
        == SCHEMA_VERSION
    ]


def find_latest_snapshot(directory: Path) -> Optional[Path]:
    """The newest schema-2 ``BENCH_*.json`` in ``directory``, if any."""
    paths = snapshot_paths(directory)
    return paths[-1] if paths else None


def crosses_reanchor(current: Snapshot, baseline: Snapshot) -> bool:
    """True when the snapshots were taken on different engine anchors:
    ``code_version`` is bumped whenever a change alters the simulated
    event sequence, so the counters must not be compared across it."""
    return current.get("code_version") != baseline.get("code_version")


def trend_rows(snapshots: Sequence[Snapshot]) -> List[Dict[str, Any]]:
    """One trend row per snapshot, in the given (chronological) order.

    ``reanchored`` is True when a snapshot starts a new code-version
    anchor, i.e. its counters must not be read against the previous row.
    """
    rows: List[Dict[str, Any]] = []
    for snap in snapshots:
        rows.append({
            "date": snap["date"],
            "code_version": snap["code_version"],
            "baseline_commit": snap.get("baseline", {}).get("commit"),
            "workloads": {
                name: (row["host_us_per_txn"], row["events_per_txn"])
                for name, row in snap["workloads"].items()
            },
            "reanchored": bool(rows) and crosses_reanchor(snap, rows[-1]),
        })
    return rows


def trend_table(snapshots: Sequence[Snapshot]) -> str:
    """The committed perf trajectory as a fixed-width text table."""
    line = "{:<12}{:<14}{:<13}{:<17}{:>9}{:>12}".format
    header = line(
        "date", "code version", "base commit", "workload", "us/txn", "events/txn"
    )
    lines = [header, "-" * len(header)]
    for row in trend_rows(snapshots):
        if row["reanchored"]:
            lines.append(
                f"-- re-anchor: code version {row['code_version']} "
                "(counters not comparable across this line) --"
            )
        for name, (us_per_txn, events_per_txn) in row["workloads"].items():
            lines.append(line(
                row["date"], row["code_version"], row["baseline_commit"] or "-",
                name, f"{us_per_txn:.1f}", f"{events_per_txn:.2f}",
            ))
    return "\n".join(lines)


def compare_snapshots(
    current: Snapshot, baseline: Snapshot, tolerance: float = 0.15
) -> List[Dict[str, Any]]:
    """Per-workload comparison rows, for workloads in both snapshots.

    ``ratio`` is the speed ratio (above 1: the current snapshot is
    faster), ``regressed`` flags a ratio below ``1 - tolerance``, and
    ``changed`` names the counters that differ.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be in [0, 1)")
    rows = []
    for name, cur in current["workloads"].items():
        base = baseline["workloads"].get(name)
        if base is None:
            continue
        ratio = base["host_us_per_txn"] / cur["host_us_per_txn"]
        rows.append({
            "workload": name,
            "current_us_per_txn": cur["host_us_per_txn"],
            "baseline_us_per_txn": base["host_us_per_txn"],
            "ratio": ratio,
            "regressed": ratio < 1.0 - tolerance,
            "changed": [key for key in COUNTERS if cur[key] != base[key]],
        })
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "current", type=Path, nargs="?", default=None,
        help="fresh snapshot JSON (omit with --trend)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline snapshot (default: newest BENCH_*.json in --baseline-dir)",
    )
    parser.add_argument(
        "--baseline-dir", type=Path, default=Path("."),
        help="directory searched for committed snapshots",
    )
    parser.add_argument("--tolerance", type=float, default=0.15)
    parser.add_argument(
        "--trend", action="store_true",
        help="print every schema-2 BENCH_*.json in --baseline-dir as one "
             "trend table instead of comparing",
    )
    args = parser.parse_args(argv)
    if args.trend and args.current is not None:
        parser.error("--trend lists the committed snapshots; give no current one")
    if args.trend:
        paths = snapshot_paths(args.baseline_dir)
        if paths:
            print(trend_table([load_snapshot(path) for path in paths]))
        else:
            print("no schema-2 BENCH_*.json snapshots found", file=sys.stderr)
        return 0
    if args.current is None:
        parser.error("a current snapshot is required unless --trend is given")

    current = load_snapshot(args.current)
    baseline_path = args.baseline or find_latest_snapshot(args.baseline_dir)
    # The first committed snapshot compared against itself would always
    # "pass"; treat it as no baseline instead.
    if baseline_path is None or baseline_path.resolve() == args.current.resolve():
        print("no baseline snapshot found; nothing to compare", file=sys.stderr)
        return 0
    baseline = load_snapshot(baseline_path)

    reanchor = crosses_reanchor(current, baseline)
    if reanchor:
        versions = f"{baseline['code_version']!r} -> {current['code_version']!r}"
        if not current.get("baseline"):
            print(
                f"ERROR: snapshots span a re-anchor (code version {versions}) "
                "and the current snapshot has no 'baseline' block recording "
                "the A/B evidence (EXPERIMENTS.md, 'Re-anchoring the "
                "trajectory').",
                file=sys.stderr,
            )
            return 1
        print(
            f"re-anchor: code version {versions}, documented in the 'baseline' "
            "block; skipping the counter check, the time check still runs.",
            file=sys.stderr,
        )

    rows = compare_snapshots(current, baseline, tolerance=args.tolerance)
    if not rows:
        print("no common workloads between snapshots", file=sys.stderr)
    failed = False
    for row in rows:
        changed = [] if reanchor else row["changed"]
        failed = failed or row["regressed"] or bool(changed)
        print(
            f"{row['workload']:<16} {row['current_us_per_txn']:>9.1f} us/txn"
            f" vs {row['baseline_us_per_txn']:>9.1f} us/txn"
            f"  ({row['ratio']:.2f}x)  {'REGRESSED' if row['regressed'] else 'ok'}"
            + (f"  COUNTERS CHANGED: {', '.join(changed)}" if changed else "")
        )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
