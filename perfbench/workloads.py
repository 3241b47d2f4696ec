"""Workload definitions, the steadiness gate and the per-cell checks.

A *cell* is one simulated configuration: it is built, warmed up for
``warmup`` simulated seconds (past the point where every node's
modelled buffer has filled), then measured over ``window`` simulated
seconds.  A *workload* is a list of cells run one after another in one
fresh process.  Why each workload was chosen is recorded in README.md
next to this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

__all__ = [
    "CELLS",
    "HELD_OUT_SEED",
    "Cell",
    "check_cell",
    "digest",
    "steadiness",
]

#: Seed held out for later performance claims: tune and compare on
#: other seeds, then confirm a claim once on this one.
HELD_OUT_SEED = 9091

#: Steadiness gate tolerances (see :func:`steadiness`).
EVENTS_HALVES_TOL = 0.10
RT_HALVES_TOL = 0.30
COMPLETION_TOL = 0.06


@dataclass(frozen=True)
class Cell:
    """One simulated configuration of a workload."""

    name: str
    #: SystemConfig keyword arguments (the seed is added per run).
    config: Dict[str, Any]
    #: Minimum simulated seconds before the measured window (extended
    #: by measure.py until the modelled buffers have filled).
    warmup: float
    #: Simulated seconds of the measured window (two equal halves).
    window: float
    #: Count Fig 4.7's artificial transactions, which perform the
    #: trace's average number of accesses (trace cells).
    artificial: bool = False


def _dc_matrix() -> Tuple[Cell, ...]:
    cells = []
    for coupling in ("gem", "pcl", "rdma"):
        for protocol in ("2pl", "mvcc", "dgcc"):
            cells.append(
                Cell(
                    f"{coupling}-{protocol}",
                    dict(
                        num_nodes=8,
                        coupling=coupling,
                        protocol=protocol,
                        routing="random",
                        update_strategy="noforce",
                        buffer_pages_per_node=200,
                        arrival_rate_per_node=40.0,
                    ),
                    warmup=5.0,
                    # DGCC's RT moves ±25 % from second to second
                    # (epoch batching); 6 s halves keep its gate steady.
                    window=12.0 if protocol == "dgcc" else 6.0,
                )
            )
    return tuple(cells)


CELLS: Dict[str, Tuple[Cell, ...]] = {
    "dc-gem-affinity": (
        Cell(
            "gem-2pl",
            dict(
                num_nodes=8,
                coupling="gem",
                protocol="2pl",
                routing="affinity",
                update_strategy="noforce",
                buffer_pages_per_node=1000,
                arrival_rate_per_node=120.0,
            ),
            warmup=12.0,
            window=8.0,
        ),
    ),
    "dc-cc-matrix": _dc_matrix(),
    "trace-gem": (
        Cell(
            "gem-2pl",
            dict(
                num_nodes=4,
                coupling="gem",
                protocol="2pl",
                routing="affinity",
                update_strategy="noforce",
                workload="trace",
                trace_scale=1.0,
                buffer_pages_per_node=1000,
                arrival_rate_per_node=25.0,
                collect_breakdown=True,
            ),
            warmup=28.0,
            window=32.0,
            artificial=True,
        ),
    ),
}


def digest(deterministic: Dict[str, Any]) -> str:
    """Hash of a ``RunResult.deterministic_dict()``."""
    text = json.dumps(deterministic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _ratio(num: float, den: float) -> float:
    return num / den if den else float("inf")


def steadiness(cell: Dict[str, Any]) -> List[str]:
    """Reasons a measured cell is not at a steady operating point.

    * every node's buffer must have filled (evicted a page) before the
      window starts, so the window is past the cold-start transient;
    * the window's two halves must agree on events per transaction and
      on mean response time (for trace cells, per artificial
      transaction: see ``measure._interval``);
    * completions must keep up with arrivals over the window.

    An empty list means the cell passed.
    """
    reasons = []
    if not cell["buffers_filled"]:
        reasons.append("window starts before every node's buffer filled")
    first, second = cell["halves"]
    ev = _ratio(
        _ratio(second["events"], second["txns"]),
        _ratio(first["events"], first["txns"]),
    )
    if not abs(ev - 1.0) <= EVENTS_HALVES_TOL:
        reasons.append(f"events/txn second half / first half = {ev:.3f}")
    rt = _ratio(second["rt_ms"], first["rt_ms"])
    if not abs(rt - 1.0) <= RT_HALVES_TOL:
        reasons.append(f"mean RT second half / first half = {rt:.3f}")
    completion = _ratio(cell["committed"], cell["generated"])
    if not abs(completion - 1.0) <= COMPLETION_TOL:
        reasons.append(f"completed / generated = {completion:.3f}")
    return reasons


def check_cell(cell: Dict[str, Any]) -> List[str]:
    """Output checks on one measured cell, steadiness gate included."""
    reasons = []
    if cell.get("error"):
        return [f"raised {cell['error']}"]
    if cell["committed"] <= 0:
        reasons.append("no transaction committed in the window")
    if cell["events"] <= 0:
        reasons.append("no event in the window")
    if not 0.0 < cell["cpu_util_max"] < 1.0:
        reasons.append(f"node CPU utilization {cell['cpu_util_max']:.3f}")
    if cell["breakdown_residual_ms"] is not None and not (
        abs(cell["breakdown_residual_ms"]) <= 1e-6
    ):
        reasons.append(
            "response-time breakdown does not sum to the mean RT "
            f"(off by {cell['breakdown_residual_ms']:.3g} ms)"
        )
    reasons.extend(steadiness(cell))
    return reasons
