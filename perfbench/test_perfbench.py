"""Tests of the benchmark itself (not part of the program's test suite).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

The workload tests run the real workloads and take about two minutes.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPRO_DIR = os.path.join(ROOT, "src", "repro")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
from layers import LAYERS, LayerProfiler, layer_of_file  # noqa: E402
from workloads import CELLS, check_cell, steadiness  # noqa: E402

from repro.system.runner import run_simulation  # noqa: E402

#: Σ layer self time + time inside the hook may differ from the traced
#: window's wall time by this share: the hook's own entry and exit are
#: not separable.  The hook's clock is wall time, so it is compared with
#: the window's wall time; the window's CPU time, which leaves out the
#: time the VM's CPU was stolen (12-14 % at times on a shared host),
#: must not exceed it.
SELF_TIME_RESIDUAL = 0.10


def _short(workload: str, index: int = 0, **overrides) -> measure.Cell:
    cell = CELLS[workload][index]
    config = {**cell.config, **overrides.pop("config", {})}
    return dataclasses.replace(cell, config=config, **overrides)


# -- layer map ---------------------------------------------------------------


def test_every_repro_module_maps_to_exactly_one_layer():
    seen = {}
    for dirpath, _dirs, files in os.walk(REPRO_DIR):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                seen[path] = layer_of_file(path, REPRO_DIR)
    assert len(seen) > 50
    assert set(seen.values()) == set(LAYERS) - {"other"}
    assert seen[os.path.join(REPRO_DIR, "sim", "engine.py")] == "sim"
    assert seen[os.path.join(REPRO_DIR, "faults", "manager.py")] == "system"
    assert seen[os.path.join(REPRO_DIR, "cli.py")] == "system"


def test_frames_outside_repro_are_other():
    assert layer_of_file(json.__file__, REPRO_DIR) == "other"
    assert layer_of_file(os.path.abspath(__file__), REPRO_DIR) == "other"
    assert layer_of_file("<frozen importlib._bootstrap>", REPRO_DIR) == "other"
    # A sibling directory whose name merely starts with "repro".
    assert layer_of_file(REPRO_DIR + "x/sim/engine.py", REPRO_DIR) == "other"


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_time_outside_repro_is_charged_to_other_not_dropped():
    profiler = LayerProfiler(REPRO_DIR)
    profiler.start()
    _spin(0.05)
    profiler.stop()
    assert profiler.self_ns[LAYERS.index("other")] >= 0.05e9
    assert sum(profiler.self_ns) - profiler.self_ns[LAYERS.index("other")] == 0


def test_traced_window_self_times_sum_to_its_cpu_time():
    cell = _short("dc-gem-affinity", window=1.0)
    profilers = (LayerProfiler(REPRO_DIR), LayerProfiler(REPRO_DIR))
    record = measure.run_cell(cell, 42, profilers)
    window = profilers[1]
    accounted = (sum(window.self_ns) + window.hook_ns) / 1e9
    assert accounted == pytest.approx(record["window_wall_s"], rel=SELF_TIME_RESIDUAL)
    # No CPU time of the window goes unaccounted.
    assert record["window_cpu_s"] <= accounted * (1 + SELF_TIME_RESIDUAL)
    for layer in ("sim", "node", "cc", "devices", "workload", "other"):
        assert window.self_ns[LAYERS.index(layer)] > 0, layer
    assert window.calls[LAYERS.index("sim")] > 0
    assert window.spans > 0
    starts = window.span_start
    ends = window.span_end
    assert all(e >= s for s, e in zip(starts, ends))
    # Every span's parent precedes it and encloses it.
    for i in range(0, window.spans, max(1, window.spans // 500)):
        parent = window.span_parent[i]
        if parent >= 0:
            assert parent < i
            assert starts[parent] <= starts[i] and ends[i] <= ends[parent]
            assert window.span_caller[i] == window.span_callee[parent]


# -- harness ---------------------------------------------------------------------


def test_seed_reaches_the_program_only_as_random_seed():
    cell = CELLS["dc-gem-affinity"][0]
    a = measure.build_config(cell, 7)
    b = measure.build_config(cell, 8)
    assert a.random_seed == 7 and b.random_seed == 8
    assert dataclasses.replace(a, random_seed=8) == b


def test_measuring_does_not_perturb_the_simulation():
    """The benchmark's digest equals the program's own run_simulation."""
    cell = _short("dc-cc-matrix", 4, window=1.0)
    record = measure.run_cell(cell, 42, None)
    traced = measure.run_cell(
        cell, 42, (LayerProfiler(REPRO_DIR), LayerProfiler(REPRO_DIR))
    )
    plain = run_simulation(measure.build_config(cell, 42))
    expected = measure.digest(plain.deterministic_dict())
    assert record["digest"] == traced["digest"] == expected
    assert record["committed"] == plain.completed
    # Window events exclude the warm-up; RunResult's count does not.
    assert record["events"] < plain.events_processed


def test_host_speed_reference_allocates_nothing_the_collector_tracks():
    """Timing the reference between slices must not set off a
    collection of the simulator's heap."""
    hostspeed.spin(10)
    before = gc.get_count()[0]
    hostspeed.spin(hostspeed.ROUNDS)
    assert gc.get_count()[0] == before


def test_scaled_figures_do_not_move_with_host_speed():
    """A host twice as slow doubles a slice's time and its reference's."""

    def sliced(slowdown: float) -> measure.SlicedRun:
        sliced = measure.SlicedRun(None, (0.0, 0.0))
        slices = ((0.08, 9000, 0.006), (0.10, 9500, 0.007), (0.2, 9100, 0.009))
        for cpu, events, ref in slices:
            sliced.cpu.append(cpu * slowdown)
            sliced.wall.append(cpu * slowdown * 1.1)
            sliced.events.append(events)
            sliced.ref_cpu.append(ref * slowdown)
            sliced.ref_wall.append(ref * slowdown)
        return sliced

    fast, slow = sliced(1.0), sliced(2.0)
    assert slow.seconds_per_event() == pytest.approx(fast.seconds_per_event())
    assert slow.scaled_wall_s() == pytest.approx(fast.scaled_wall_s())
    # The median slice: 0.10 s over 9500 events at reference 0.007 s.
    expected = 0.10 / 9500 * hostspeed.REFERENCE_S / 0.007
    assert fast.seconds_per_event() == pytest.approx(expected)


# -- steadiness gate ------------------------------------------------------------


def test_gate_flags_trace_at_fig47_rate():
    cell = _short("trace-gem", config={"arrival_rate_per_node": 50.0})
    reasons = steadiness(measure.run_cell(cell, 42, None))
    assert any("completed / generated" in r for r in reasons), reasons


def test_gate_flags_dgcc_at_shootout_rate():
    cell = _short("dc-cc-matrix", 2, config={"arrival_rate_per_node": 100.0})
    reasons = steadiness(measure.run_cell(cell, 42, None))
    assert reasons, "DGCC at 100 TPS/node passed the steadiness gate"


def test_gate_flags_a_window_inside_the_buffer_fill_transient(monkeypatch):
    monkeypatch.setattr(measure, "MAX_EXTENSION_S", 0.0)
    cell = _short("dc-gem-affinity", warmup=2.0, window=8.0)
    reasons = steadiness(measure.run_cell(cell, 42, None))
    assert any("buffer filled" in r for r in reasons), reasons
    assert any("events/txn" in r for r in reasons), reasons


@pytest.mark.parametrize("workload", sorted(CELLS))
def test_workload_passes_at_head(workload):
    child = run.run_child(workload, 42, traced=False, timeout=170)
    digests = {}
    assert run.check_child(child, digests) == (len(CELLS[workload]), 0)
    for cell in child["cells"]:
        assert check_cell(cell) == []
    metrics = run.end_to_end(child)
    assert all(value > 0 for value in metrics.values())
