"""Shared infrastructure for the experiment drivers."""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.system.config import SystemConfig
from repro.system.parallel import ReplicatedResult, SweepRunner
from repro.system.results import RunResult

__all__ = [
    "Scale",
    "Series",
    "ExperimentResult",
    "sweep_all",
    "format_table",
]


@dataclasses.dataclass
class Scale:
    """Run-size knobs shared by all experiments."""

    #: Node counts to sweep (the paper uses 1-10; 1-8 for the trace).
    node_counts: Sequence[int]
    warmup_time: float
    measure_time: float
    #: Shrink factor for the synthetic trace (1.0 = paper size).
    trace_scale: float
    #: Maximum binary-search iterations for the throughput experiment.
    throughput_iterations: int

    @classmethod
    def quick(cls) -> "Scale":
        """CI-sized runs: the shapes hold, absolute noise is higher."""
        return cls(
            node_counts=(1, 2, 4, 6, 8, 10),
            warmup_time=1.5,
            measure_time=5.0,
            trace_scale=0.12,
            throughput_iterations=5,
        )

    @classmethod
    def smoke(cls) -> "Scale":
        """Minimal runs for tests of the harness itself."""
        return cls(
            node_counts=(1, 2),
            warmup_time=0.5,
            measure_time=1.5,
            trace_scale=0.04,
            throughput_iterations=2,
        )

    @classmethod
    def full(cls) -> "Scale":
        """Paper-sized runs (minutes of wall-clock time)."""
        return cls(
            node_counts=tuple(range(1, 11)),
            warmup_time=4.0,
            measure_time=20.0,
            trace_scale=1.0,
            throughput_iterations=10,
        )


#: A point's result: a plain run or a multi-seed aggregate.
PointResult = Union[RunResult, ReplicatedResult]


@dataclasses.dataclass
class Series:
    """One curve of a figure: a label and one result per node count."""

    label: str
    points: List[Tuple[int, PointResult]] = dataclasses.field(default_factory=list)

    def values(self, metric: Callable[[RunResult], float]) -> List[float]:
        return [metric(result) for _n, result in self.points]

    def value_at(self, num_nodes: int, metric: Callable[[RunResult], float]) -> float:
        for n, result in self.points:
            if n == num_nodes:
                return metric(result)
        raise KeyError(f"no point at N={num_nodes}")


@dataclasses.dataclass
class ExperimentResult:
    """All series of one figure plus rendering helpers."""

    name: str
    title: str
    series: List[Series]
    metric_label: str = "response time [ms]"
    metric: Callable[[RunResult], float] = lambda r: r.response_time_ms

    def series_by_label(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(label)

    def _replicated(self) -> bool:
        """True when any point carries more than one replicate."""
        return any(
            isinstance(result, ReplicatedResult) and result.n_replicates > 1
            for series in self.series
            for _n, result in series.points
        )

    def _cell(self, result: PointResult) -> Union[float, str]:
        if isinstance(result, ReplicatedResult) and result.n_replicates > 1:
            stats = result.stat(self.metric)
            return f"{stats.mean:.1f}±{stats.ci95:.1f}"
        return self.metric(result)

    def table(self) -> str:
        node_counts = [n for n, _ in self.series[0].points]
        title = f"{self.name}: {self.title} ({self.metric_label})"
        if self._replicated():
            n = max(
                result.n_replicates
                for series in self.series
                for _n, result in series.points
                if isinstance(result, ReplicatedResult)
            )
            title += f" [mean ± 95% CI over {n} seeds]"
        return format_table(
            title,
            node_counts,
            {
                s.label: [self._cell(result) for _n, result in s.points]
                for s in self.series
            },
        )

    def breakdown_table(self, num_nodes: Optional[int] = None) -> str:
        """Response-time decomposition at one node count (default: the
        largest swept), one row per series, one column per phase in ms.

        Returns "" when no series carries a breakdown (collection off).
        """
        from repro.obs import phases

        if not self.series or not self.series[0].points:
            return ""
        chosen = num_nodes
        if chosen is None:
            chosen = max(n for n, _r in self.series[0].points)
        rows: List[Tuple[str, Dict[str, float]]] = []
        for series in self.series:
            for n, result in series.points:
                if n != chosen:
                    continue
                breakdown = getattr(result, "breakdown", None)
                if breakdown:
                    rows.append((series.label, breakdown))
        if not rows:
            return ""
        columns = phases.phase_order(
            p for _label, breakdown in rows for p in breakdown
        )
        width = max(12, max(len(label) for label, _b in rows) + 2)
        phase_width = max(len(p) for p in columns) + 2
        title = (
            f"{self.name}: response-time breakdown at N={chosen} "
            "[ms per committed txn]"
        )
        header = "series".ljust(width) + "".join(
            p.rjust(phase_width) for p in columns
        ) + "total".rjust(phase_width)
        lines = [title, "=" * len(header), header, "-" * len(header)]
        for label, breakdown in rows:
            cells = "".join(
                f"{breakdown.get(p, 0.0) * 1e3:>{phase_width}.2f}"
                for p in columns
            )
            total = sum(breakdown.values()) * 1e3
            lines.append(label.ljust(width) + cells + f"{total:>{phase_width}.2f}")
        return "\n".join(lines)


def sweep_all(
    specs: Sequence[Tuple[str, SystemConfig]],
    node_counts: Sequence[int],
    runner: Optional[SweepRunner] = None,
    label: str = "",
) -> List[Series]:
    """Run a whole figure's ``(label, config)`` grid as one batch.

    Submitting every series' node counts together keeps a parallel
    runner's worker pool full across the entire figure instead of
    draining it at each series boundary.  Results come back in spec
    order, one :class:`Series` per spec.
    """
    runner = runner or SweepRunner()
    configs = [
        config.replace(num_nodes=n)
        for _label, config in specs
        for n in node_counts
    ]
    flat = runner.run_many(configs, label=label)
    series = []
    stride = len(node_counts)
    for index, (series_label, _config) in enumerate(specs):
        chunk = flat[index * stride:(index + 1) * stride]
        series.append(Series(series_label, list(zip(node_counts, chunk))))
    return series


def format_table(
    title: str,
    node_counts: Sequence[int],
    columns: Dict[str, List[Union[float, str]]],
) -> str:
    """Render a figure as an aligned text table (rows = #nodes).

    Cells may be floats (rendered ``%.1f``) or pre-formatted strings
    (e.g. ``"72.1±3.4"`` for replicated points).
    """
    labels = list(columns)
    width = max(12, max(len(label) for label in labels) + 2)

    def cell(value: Union[float, str]) -> str:
        if isinstance(value, str):
            return value.rjust(width)
        return f"{value:>{width}.1f}"

    header = "#nodes".rjust(8) + "".join(label.rjust(width) for label in labels)
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for row_index, num_nodes in enumerate(node_counts):
        cells = "".join(cell(columns[label][row_index]) for label in labels)
        lines.append(f"{num_nodes:>8d}" + cells)
    return "\n".join(lines)
