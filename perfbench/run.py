"""Steady-state simulator benchmark: host cost per committed transaction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dc-gem-affinity --seed 42 --seconds 20 --trace 0

With ``--trace 0`` the workload runs in fresh processes, one after
another, until ``--seconds`` have passed (at least ``MIN_REPEATS``
times), and the last line of standard output is a JSON object with the
medians of the end-to-end metrics.  With ``--trace 1`` it runs once
untraced and once under the layer profiler (``layers.py``) and reports
the per-layer metrics.  Times are given at the host's reference speed
(``hostspeed.py``).  Every cell's outputs are checked: the steadiness
gate, the model's own consistency checks, and the digest of
``RunResult.deterministic_dict()``, which must be the same in every
repetition and in the traced run.  README.md in this directory explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from layers import LAYERS
from workloads import CELLS, check_cell

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fewest fresh-process repetitions behind an end-to-end median.
MIN_REPEATS = 2
#: The whole run must end well inside the 180 s a run may take.
DEADLINE_S = 170.0

MATRIX_CELLS = tuple(cell.name for cell in CELLS["dc-cc-matrix"])


class BenchmarkError(Exception):
    """The benchmark could not produce a result (no program, a crash)."""


def run_child(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """Run ``measure.py`` in a fresh interpreter; return its JSON."""
    command = [
        sys.executable,
        os.path.join(HERE, "measure.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if traced:
        command.append("--traced")
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout, check=False
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"measure.py ran past {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"measure.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def check_child(child: dict, digests: dict) -> tuple[int, int]:
    """Check every cell of one repetition; print why a cell fails.

    ``digests`` maps cell name to the first digest seen for it; a later
    repetition (or the traced run) must reproduce it exactly.
    Returns (attempted, failed).
    """
    failed = 0
    for cell in child["cells"]:
        reasons = check_cell(cell)
        expected = digests.setdefault(cell["cell"], cell.get("digest"))
        if cell.get("digest") != expected:
            reasons.append(
                f"output digest {cell.get('digest')} differs from {expected}"
            )
        if reasons:
            failed += 1
            mode = "traced" if child["traced"] else "untraced"
            print(
                f"FAIL {child['workload']}/{cell['cell']} ({mode}): "
                + "; ".join(reasons),
                file=sys.stderr,
            )
    return len(child["cells"]), failed


def _measured(child: dict) -> list:
    """The cells of a repetition that ran (a raising cell has no data)."""
    cells = [cell for cell in child["cells"] if "error" not in cell]
    if not cells:
        raise BenchmarkError(f"no cell of {child['workload']} ran")
    return cells


def _sum(cells: list, key: str) -> float:
    return sum(cell[key] for cell in cells)


def _window_cpu_s(cell: dict) -> float:
    """The window's CPU seconds at the host's reference speed: the
    median over slices of CPU per event, times the window's events."""
    return cell["window_s_per_event"] * cell["events"]


def host_us_per_txn(child: dict) -> float:
    cells = _measured(child)
    return sum(map(_window_cpu_s, cells)) / _sum(cells, "txns") * 1e6


def end_to_end(child: dict) -> dict:
    return {
        "host_us_per_txn": host_us_per_txn(child),
        "run_s": _sum(_measured(child), "run_s"),
        "setup_s": child["setup_s"],
        "peak_rss_mb": child["peak_rss_mb"],
    }


E2E_UNITS = {
    "host_us_per_txn": "us/txn",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics from an untraced and a traced repetition."""
    cells = _measured(untraced)
    committed = _sum(cells, "committed")
    txns = _sum(cells, "txns")
    events = _sum(cells, "events")
    host = host_us_per_txn(untraced)
    metrics = {
        "sim.events_per_txn": (events / txns, "events/txn"),
        "sim.ns_per_event": (sum(map(_window_cpu_s, cells)) / events * 1e9, "ns/event"),
    }
    # Self time: the layer's share of the traced window, applied to the
    # untraced window's CPU time (the hook's own cost is excluded at
    # layer changes but inflates layers with many small calls).
    traced_self = sum(traced["self_ns"])
    setup_self = sum(traced["setup_self_ns"])
    construction_s = _sum(cells, "setup_s")
    for index, layer in enumerate(LAYERS):
        share = traced["self_ns"][index] / traced_self
        metrics[f"{layer}.self_us_per_txn"] = (share * host, "us/txn")
        metrics[f"{layer}.calls_per_txn"] = (
            traced["calls"][index] / txns,
            "calls/txn",
        )
    for layer in ("workload", "routing", "system"):
        share = traced["setup_self_ns"][LAYERS.index(layer)] / setup_self
        metrics[f"{layer}.setup_s"] = (share * construction_s, "s")
    by_name = {cell["cell"]: cell for cell in cells}
    for name in MATRIX_CELLS:
        # 0 marks a cell that is not part of this workload.
        cell = by_name.get(name) if untraced["workload"] == "dc-cc-matrix" else None
        metrics[f"cell.{name}.host_us_per_txn"] = (
            _window_cpu_s(cell) / cell["txns"] * 1e6 if cell else 0.0,
            "us/txn",
        )
        metrics[f"cell.{name}.events_per_txn"] = (
            cell["events"] / cell["txns"] if cell else 0.0,
            "events/txn",
        )
    aborts = _sum(cells, "aborts")
    drifts = [c["halves"][1]["rt_ms"] / c["halves"][0]["rt_ms"] for c in cells]
    metrics.update(
        {
            "node.buffer_hit_ratio": (
                _sum(cells, "hits") / _sum(cells, "accesses"),
                "ratio",
            ),
            "node.messages_per_txn": (_sum(cells, "messages") / txns, "msgs/txn"),
            "cc.lock_requests_per_txn": (
                _sum(cells, "lock_requests") / txns,
                "locks/txn",
            ),
            "cc.remote_lock_requests_per_txn": (
                _sum(cells, "remote_lock_requests") / txns,
                "locks/txn",
            ),
            "cc.commit_ratio": (committed / (committed + aborts), "ratio"),
            "model.rt_ms_mean": (
                sum(c["rt_ms"] * c["committed"] for c in cells) / committed,
                "ms",
            ),
            "model.cpu_util_max": (max(c["cpu_util_max"] for c in cells), "ratio"),
            "model.completed_per_generated": (
                committed / _sum(cells, "generated"),
                "ratio",
            ),
            "model.rt_drift": (max(drifts, key=lambda d: abs(d - 1.0)), "ratio"),
            "trace.overhead_ratio": (
                _sum(_measured(traced), "run_wall_s") / _sum(cells, "run_wall_s"),
                "ratio",
            ),
        }
    )
    return {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    digests: dict = {}
    attempted = failed = 0

    def repeat(traced: bool) -> dict:
        nonlocal attempted, failed
        remaining = DEADLINE_S - (time.perf_counter() - started)
        child = run_child(workload, seed, traced, remaining)
        tried, bad = check_child(child, digests)
        attempted += tried
        failed += bad
        return child

    if trace:
        untraced = repeat(False)
        traced = repeat(True)
        metrics = per_layer(untraced, traced)
    else:
        samples = []
        speeds = []
        last = 0.0
        while len(samples) < MIN_REPEATS or (
            (elapsed := time.perf_counter() - started) < seconds
            and elapsed + last < DEADLINE_S
        ):
            begun = time.perf_counter()
            child = repeat(False)
            samples.append(end_to_end(child))
            speeds.append([round(c["host_speed"], 3) for c in _measured(child)])
            last = time.perf_counter() - begun
        metrics = {
            name: {
                "value": statistics.median(s[name] for s in samples),
                "unit": unit,
            }
            for name, unit in E2E_UNITS.items()
        }
        print(
            f"{workload}: {len(samples)} repetitions; "
            + ", ".join(
                f"{name} {[round(s[name], 4) for s in samples]}" for name in E2E_UNITS
            )
            + f"; host speed ÷ reference, per cell: {speeds}",
            file=sys.stderr,
        )
    print(
        f"{workload}: output digests "
        + ", ".join(f"{cell}={value}" for cell, value in digests.items()),
        file=sys.stderr,
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CELLS))
    parser.add_argument(
        "--seed",
        type=int,
        default=42,
        help="workload seed, passed only as SystemConfig.random_seed",
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
