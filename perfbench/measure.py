"""Run one workload in this (fresh) process and print its measurements.

Usage, from the root of a checkout::

    python3 perfbench/measure.py --workload dc-gem-affinity --seed 42 [--traced]

Prints one JSON object on the last line of standard output.  The
benchmark's entry point, ``perfbench/run.py``, starts this file once per
measured repetition and aggregates the results; run it by hand to look
at one repetition.

Set-up, warm-up and the measured window are timed from outside the
program: the benchmark builds ``SystemConfig``/``Cluster``, drives
``cluster.sim.run`` and reads ``cluster.collect_results`` and
``cluster.sim.events_processed`` at the window's edges.  It changes no
program setting beyond the workload inputs: ``Simulator.run`` manages
the garbage collector itself, and it is left to do so.

The warm-up and the window run in slices of ``window / SLICES``
simulated seconds.  After every slice the host-speed reference
(``hostspeed.py``) is timed, and each slice's time is scaled by the
reference speed measured on either side of it; set-up is scaled the
same way.  The raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPRO_DIR = os.path.join(ROOT, "src", "repro")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(REPRO_DIR, "__init__.py")):
        sys.exit(f"perfbench: no program source at {REPRO_DIR}")
    sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402

#: Reference samples taken on either side of the imports and of each
#: ``Cluster`` construction, to scale set-up time.
REFERENCE_SAMPLES = 3

BEFORE_IMPORTS = [hostspeed.sample() for _ in range(REFERENCE_SAMPLES)]

from layers import LAYERS, LayerProfiler  # noqa: E402
from workloads import CELLS, Cell, digest  # noqa: E402

from repro.system.cluster import Cluster  # noqa: E402
from repro.system.config import SystemConfig, TraceWorkloadConfig  # noqa: E402

# CPU time since interpreter start (start-up and the imports), less the
# reference samples taken meanwhile.
IMPORTS_CPU_S = time.process_time() - sum(cpu for cpu, _ in BEFORE_IMPORTS)

#: Slices per measured window; the warm-up runs in slices as long.
SLICES = 32

#: The warm-up is extended in steps of this many simulated seconds, up
#: to this many beyond the cell's minimum, until the buffers have filled.
EXTENSION_STEP_S = 4.0
MAX_EXTENSION_S = 24.0

#: Where the traced run writes its spans (inside the checkout).
SPAN_DIR = os.path.join(ROOT, ".perfbench")


def build_config(cell: Cell, seed: int) -> SystemConfig:
    kwargs = dict(cell.config)
    scale = kwargs.pop("trace_scale", None)
    if scale is not None:
        kwargs["trace"] = TraceWorkloadConfig(scale=scale)
    return SystemConfig(
        random_seed=seed,
        warmup_time=cell.warmup,
        measure_time=cell.window,
        **kwargs,
    )


def _snapshot(cluster: Cluster) -> dict:
    """Cumulative counters read at a window edge (stats reset at the
    window start, the event counter never)."""
    snap = dict.fromkeys(
        ("committed", "rt_sum", "pa_sum", "pa_count", "accesses", "hits"), 0
    )
    for node in cluster.nodes:
        snap["committed"] += node.completions.count
        tally = node.response_time
        snap["rt_sum"] += tally.mean * tally.count
        tally = node.response_time_per_access
        snap["pa_sum"] += tally.mean * tally.count
        snap["pa_count"] += tally.count
        for stats in node.buffer.partition_stats.values():
            snap["accesses"] += stats.accesses
            snap["hits"] += stats.hits
    snap["events"] = cluster.sim.events_processed
    snap["generated"] = cluster.source.generated
    return snap


def _buffer_accesses(cluster: Cluster) -> list:
    return [
        sum(stats.accesses for stats in node.buffer.partition_stats.values())
        for node in cluster.nodes
    ]


def _buffers_filled(cluster: Cluster) -> bool:
    """A node's buffer has filled once it evicted a page.  A node the
    router has sent no transaction (some trace routing tables leave one
    idle) keeps an empty buffer and is exempt."""
    return all(
        node.buffer.evictions > 0 or not accesses
        for node, accesses in zip(cluster.nodes, _buffer_accesses(cluster))
    )


def _artificial(trace) -> tuple:
    """(references, distinct pages) of Fig 4.7's artificial transaction:
    the means over all transactions of the trace."""
    pages = sum(
        len({(ref.file_id, ref.page_no) for ref in txn.references})
        for txn in trace.transactions
    )
    return trace.mean_references(), pages / len(trace)


def _interval(start: dict, end: dict, artificial: tuple | None) -> dict:
    """Counts between two snapshots, the transactions they amount to and
    their mean response time in ms.

    A trace window commits few of the trace's rare, very long queries
    while running part of them, so its committed mix follows the seed's
    luck.  Trace cells (``artificial`` given) therefore count Fig 4.7's
    artificial transactions: buffer accesses (first touches of a page by
    a transaction) over the trace's mean pages per transaction, and mean
    RT per reference times its mean references.
    """
    d = {key: end[key] - start[key] for key in end}
    committed = d["committed"]
    if artificial:
        references, pages = artificial
        txns = d["accesses"] / pages
        rt_ms = d["pa_sum"] / d["pa_count"] * references * 1e3 if d["pa_count"] else 0.0
    else:
        txns = committed
        rt_ms = d["rt_sum"] / committed * 1e3 if committed else 0.0
    return {
        "events": d["events"],
        "committed": committed,
        "txns": txns,
        "generated": d["generated"],
        "accesses": d["accesses"],
        "hits": d["hits"],
        "rt_ms": rt_ms,
    }


class SlicedRun:
    """Runs a simulator in slices, timing each and the host-speed
    reference after it.

    The columns hold one value per slice; a slice's reference is the
    mean of the samples taken just before and just after it.  Between
    slices nothing is allocated that the cyclic garbage collector
    tracks (the columns are float arrays), so the collector, which
    ``Simulator.run`` suspends, does not run between slices either: the
    program's memory behaves as in one long ``run`` call.
    """

    def __init__(self, sim, before: tuple) -> None:
        self.sim = sim
        self.cpu = array("d")
        self.wall = array("d")
        self.events = array("d")
        self.ref_cpu = array("d")
        self.ref_wall = array("d")
        self.last_cpu, self.last_wall = before

    def run(self, until: float, step: float, profiler=None) -> None:
        """Run to ``until`` in equal slices of at most ``step`` simulated
        seconds; trace only the slices when a profiler is given."""
        sim = self.sim
        spin = hostspeed.spin
        rounds = hostspeed.ROUNDS
        process_time = time.process_time
        perf_counter = time.perf_counter
        start = sim.now
        count = max(1, math.ceil((until - start) / step - 1e-9))
        for index in range(1, count + 1):
            target = (
                until if index == count else start + (until - start) * index / count
            )
            events = sim.events_processed
            if profiler:
                profiler.start()
            cpu = process_time()
            wall = perf_counter()
            sim.run(until=target)
            wall = perf_counter() - wall
            cpu = process_time() - cpu
            if profiler:
                profiler.stop()
            self.cpu.append(cpu)
            self.wall.append(wall)
            self.events.append(sim.events_processed - events)
            cpu = process_time()
            wall = perf_counter()
            spin(rounds)
            cpu = process_time() - cpu
            wall = perf_counter() - wall
            self.ref_cpu.append((self.last_cpu + cpu) / 2)
            self.ref_wall.append((self.last_wall + wall) / 2)
            self.last_cpu = cpu
            self.last_wall = wall

    def seconds_per_event(self) -> float:
        """Median over slices of CPU seconds per event at the host's
        reference speed."""
        return statistics.median(
            cpu / events * hostspeed.REFERENCE_S / ref
            for cpu, events, ref in zip(self.cpu, self.events, self.ref_cpu)
            if events
        )

    def scaled_wall_s(self) -> float:
        """Wall seconds of all slices at the host's reference speed."""
        return sum(
            wall * hostspeed.REFERENCE_S / ref
            for wall, ref in zip(self.wall, self.ref_wall)
        )


def run_cell(cell: Cell, seed: int, profilers: tuple | None) -> dict:
    """Build, warm up and measure one cell.  ``profilers`` is the
    (set-up, window) pair of the traced run, or None."""
    before = hostspeed.reference(hostspeed.sample() for _ in range(REFERENCE_SAMPLES))
    setup_started = time.process_time()
    if profilers:
        profilers[0].start()
    cluster = Cluster(build_config(cell, seed))
    if profilers:
        profilers[0].stop()
    setup_ended = time.process_time()
    artificial = _artificial(cluster.trace_world.trace) if cell.artificial else None
    after = hostspeed.reference(hostspeed.sample() for _ in range(REFERENCE_SAMPLES))
    setup_reference = (before[0] + after[0]) / 2
    warm = SlicedRun(cluster.sim, after)
    step = cell.window / SLICES
    warmup = cell.warmup
    warm.run(warmup, step)
    # Run on past the minimum until every node that has served a
    # transaction has filled its buffer.
    while not _buffers_filled(cluster) and warmup < cell.warmup + MAX_EXTENSION_S:
        warmup += EXTENSION_STEP_S
        warm.run(warmup, step)
    evicted = [node.buffer.evictions > 0 for node in cluster.nodes]
    warmup_accesses = _buffer_accesses(cluster)
    cluster.reset_stats()
    start = _snapshot(cluster)
    window = SlicedRun(cluster.sim, (warm.last_cpu, warm.last_wall))
    profiler = profilers[1] if profilers else None
    window.run(warmup + cell.window / 2, step, profiler)
    mid = _snapshot(cluster)
    window.run(warmup + cell.window, step, profiler)
    result = cluster.collect_results(cell.window)
    end = _snapshot(cluster)
    counts = _interval(start, end, artificial)
    # A node first served during the window was idle, not filled.
    buffers_filled = all(
        full or not (before or during)
        for full, before, during in zip(
            evicted, warmup_accesses, _buffer_accesses(cluster)
        )
    )
    residual = None
    if result.breakdown is not None:
        residual = (sum(result.breakdown.values()) - result.mean_response_time) * 1e3
    setup_cpu_s = setup_ended - setup_started
    return {
        "cell": cell.name,
        "setup_cpu_s": setup_cpu_s,
        "setup_s": setup_cpu_s * hostspeed.REFERENCE_S / setup_reference,
        "run_wall_s": sum(warm.wall) + sum(window.wall),
        "run_s": warm.scaled_wall_s() + window.scaled_wall_s(),
        "window_cpu_s": sum(window.cpu),
        "window_wall_s": sum(window.wall),
        "window_s_per_event": window.seconds_per_event(),
        "host_speed": hostspeed.REFERENCE_S / statistics.median(window.ref_cpu),
        **counts,
        "halves": [_interval(start, mid, artificial), _interval(mid, end, artificial)],
        "warmup_s": warmup,
        "buffers_filled": buffers_filled,
        "aborts": result.aborts,
        "cpu_util_max": result.cpu_utilization_max,
        "messages": result.messages_per_txn * result.completed,
        "lock_requests": result.lock_requests_per_txn * result.completed,
        "remote_lock_requests": result.remote_lock_requests_per_txn * result.completed,
        "breakdown_residual_ms": residual,
        "digest": digest(result.deterministic_dict()),
    }


def measure(workload: str, seed: int, traced: bool) -> dict:
    profilers = (
        (LayerProfiler(REPRO_DIR), LayerProfiler(REPRO_DIR)) if traced else None
    )
    reference_cpu, _ = hostspeed.reference(
        BEFORE_IMPORTS + [hostspeed.sample() for _ in range(REFERENCE_SAMPLES)]
    )
    imports_s = IMPORTS_CPU_S * hostspeed.REFERENCE_S / reference_cpu
    cells = []
    for cell in CELLS[workload]:
        try:
            record = run_cell(cell, seed, profilers)
        except Exception as exc:  # one failed operation, reported by run.py
            sys.setprofile(None)
            record = {"cell": cell.name, "error": f"{type(exc).__name__}: {exc}"}
        cells.append(record)
    out = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_cpu_s": IMPORTS_CPU_S + sum(c.get("setup_cpu_s", 0.0) for c in cells),
        "setup_s": imports_s + sum(c.get("setup_s", 0.0) for c in cells),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": cells,
    }
    if profilers:
        setup, window = profilers
        out["layers"] = list(LAYERS)
        out["setup_self_ns"] = setup.self_ns
        out["self_ns"] = window.self_ns
        out["calls"] = window.calls
        out["hook_ns"] = window.hook_ns
        out["spans"] = window.spans
        os.makedirs(SPAN_DIR, exist_ok=True)
        window.write_spans(os.path.join(SPAN_DIR, f"spans-{workload}"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CELLS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    print(json.dumps(measure(args.workload, args.seed, args.traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
