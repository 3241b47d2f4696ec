"""Parallel multi-seed experiment execution.

The experiment drivers used to run every ``(config, seed)`` point
serially in one process.  This module supplies the scaffolding that
all sweeps now run on:

* :class:`SweepRunner` -- fans batches of configurations out over a
  ``concurrent.futures.ProcessPoolExecutor`` (``jobs`` worker
  processes) and replicates each point over ``seeds`` independent
  random seeds.
* :class:`ReplicatedResult` -- the aggregate of one point's
  replicates: delegates attribute access to the first replicate (so
  single-seed behaviour is unchanged) and exposes mean / stddev /
  95 % confidence intervals via :meth:`ReplicatedResult.stat`.
* :class:`ResultCache` -- a content-addressed JSON store keyed on a
  stable hash of the configuration, the seed and the code version, so
  re-running a sweep only simulates changed points.

Determinism: per-replicate seeds are a pure SHA-256 function of
``(config.random_seed, replicate_index)`` and results are collected by
submission index, never by completion order -- a sweep produces
bit-identical results whether it runs serially, with ``jobs=8``, or
partially from cache.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.sim.rng import replicate_seed
from repro.system.config import SystemConfig
from repro.system.results import RunResult
from repro.system.runner import run_simulation

__all__ = [
    "CODE_VERSION",
    "ReplicateStats",
    "ReplicatedResult",
    "ResultCache",
    "SweepRunner",
    "config_cache_key",
]

#: Version tag of the simulation semantics.  Bump whenever a change
#: alters what a given ``(config, seed)`` simulates, so stale cache
#: entries are never reused across semantic changes.
CODE_VERSION = "2026.10-6"

#: Default location of the result cache, relative to the working
#: directory (see results/README.md for the layout).
DEFAULT_CACHE_DIR = os.path.join("results", ".simcache")

#: Two-sided 95 % Student-t critical values by degrees of freedom
#: (replicates - 1); the normal quantile 1.96 is used beyond 30.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
    25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def t_critical_95(n: int) -> float:
    """Two-sided 95 % t quantile for ``n`` samples (``n - 1`` df)."""
    if n < 2:
        return float("nan")
    return _T95.get(n - 1, 1.96)


@dataclasses.dataclass(frozen=True)
class ReplicateStats:
    """Mean / spread of one metric over a point's replicates."""

    mean: float
    stddev: float
    #: Half-width of the 95 % confidence interval of the mean (0.0 for
    #: a single replicate -- no interval exists).
    ci95: float
    n: int

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "ReplicateStats":
        n = len(samples)
        if n == 0:
            raise ValueError("no samples")
        mean = sum(samples) / n
        if n == 1:
            return cls(mean=mean, stddev=0.0, ci95=0.0, n=1)
        var = sum((x - mean) ** 2 for x in samples) / (n - 1)
        stddev = math.sqrt(var)
        ci95 = t_critical_95(n) * stddev / math.sqrt(n)
        return cls(mean=mean, stddev=stddev, ci95=ci95, n=n)

    def __str__(self) -> str:
        if self.n == 1:
            return f"{self.mean:.4g}"
        return f"{self.mean:.4g}±{self.ci95:.2g}"


class ReplicatedResult:
    """Results of one configuration point over one or more seeds.

    Attribute access falls through to the first replicate, so code
    written against :class:`RunResult` (metric lambdas, ``summary()``
    consumers) works unchanged; with a single seed this makes the
    aggregate behaviourally identical to the plain result.
    """

    def __init__(self, results: Sequence[RunResult], seeds: Sequence[int]) -> None:
        if not results:
            raise ValueError("at least one replicate required")
        if len(results) != len(seeds):
            raise ValueError("results and seeds must align")
        self.results: List[RunResult] = list(results)
        self.seeds: List[int] = list(seeds)

    @property
    def primary(self) -> RunResult:
        """The replicate with the base seed (replicate index 0)."""
        return self.results[0]

    @property
    def n_replicates(self) -> int:
        return len(self.results)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(object.__getattribute__(self, "results")[0], name)

    def stat(self, metric: Callable[[RunResult], float]) -> ReplicateStats:
        """Aggregate ``metric`` over all replicates."""
        return ReplicateStats.from_samples([metric(r) for r in self.results])

    # -- the paper's headline metrics, replicated -----------------------

    @property
    def throughput_stats(self) -> ReplicateStats:
        return self.stat(lambda r: r.throughput_total)

    @property
    def response_time_stats(self) -> ReplicateStats:
        """Mean response time in milliseconds."""
        return self.stat(lambda r: r.response_time_ms)

    @property
    def utilization_stats(self) -> ReplicateStats:
        return self.stat(lambda r: r.cpu_utilization_max)

    @property
    def wall_clock_total(self) -> float:
        return sum(r.wall_clock_seconds for r in self.results)

    @property
    def events_total(self) -> int:
        return sum(r.events_processed for r in self.results)

    def summary(self) -> str:
        if self.n_replicates == 1:
            return self.primary.summary()
        rt = self.response_time_stats
        x = self.throughput_stats
        cpu = self.utilization_stats
        return (
            f"{self.primary.label()} [{self.n_replicates} seeds]: "
            f"RT={rt.mean:.1f}±{rt.ci95:.1f} ms, "
            f"X={x.mean:.0f}±{x.ci95:.0f} TPS, "
            f"CPUmax={cpu.mean:.0%}±{cpu.ci95:.0%}"
        )


def config_cache_key(config: SystemConfig, code_version: str = CODE_VERSION) -> str:
    """Content hash of a configuration (seed included) + code version.

    The configuration tree is pure dataclasses and str-enums, so its
    canonical sorted-key JSON is stable across processes and Python
    versions (``default=str`` covers the enums).
    """
    payload = {
        "code_version": code_version,
        "config": dataclasses.asdict(config),
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store of :class:`RunResult` JSON records.

    Layout (see results/README.md): ``<directory>/<key[:2]>/<key>.json``
    where ``key = sha256(code_version + canonical config JSON)``.  The
    seed participates in the key through ``config.random_seed``.
    """

    def __init__(self, directory: str = DEFAULT_CACHE_DIR,
                 code_version: str = CODE_VERSION) -> None:
        self.directory = directory
        self.code_version = code_version
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], f"{key}.json")

    def get(self, config: SystemConfig) -> Optional[RunResult]:
        key = config_cache_key(config, self.code_version)
        path = self._path(key)
        try:
            with open(path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if record.get("code_version") != self.code_version:
            self.misses += 1
            return None
        self.hits += 1
        return RunResult.from_dict(record["result"])

    def put(self, config: SystemConfig, result: RunResult) -> None:
        key = config_cache_key(config, self.code_version)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        record = {
            "key": key,
            "code_version": self.code_version,
            "seed": config.random_seed,
            "label": result.label(),
            "result": result.as_dict(),
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(record, fh, default=str)
        os.replace(tmp, path)  # atomic: concurrent writers can't corrupt

    def stats(self) -> str:
        return f"cache: {self.hits} hits, {self.misses} misses ({self.directory})"


def _simulate(config: SystemConfig) -> RunResult:
    """Worker entry point (module-level so it pickles)."""
    return run_simulation(config)


class SweepRunner:
    """Executes batches of configurations, replicated and in parallel.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs in-process -- no pool,
        no pickling, bit-identical results to the pre-parallel code.
    seeds:
        Replicates per configuration point.  Replicate ``k`` runs with
        ``replicate_seed(config.random_seed, k)``; seed 0 is the
        config's own seed.
    cache:
        Optional :class:`ResultCache`; cached points are not simulated.
    progress:
        Write ``[done/total]`` + ETA lines to stderr while a batch runs.

    Usable as a context manager; the worker pool is created lazily on
    the first parallel batch and reused across batches.
    """

    def __init__(self, jobs: int = 1, seeds: int = 1,
                 cache: Optional[ResultCache] = None,
                 progress: bool = False) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if seeds < 1:
            raise ValueError("seeds must be >= 1")
        self.jobs = jobs
        self.seeds = seeds
        self.cache = cache
        self.progress = progress
        self.simulations_run = 0
        self.simulations_cached = 0
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs
            )
        return self._pool

    # -- execution -------------------------------------------------------

    def map_raw(self, configs: Sequence[SystemConfig],
                label: str = "") -> List[RunResult]:
        """Run each configuration exactly as given (no replication).

        Results are returned in input order regardless of completion
        order.  Cached points are served without simulating; fresh
        results are written back to the cache.
        """
        results: List[Optional[RunResult]] = [None] * len(configs)
        pending: List[Tuple[int, SystemConfig]] = []
        for index, config in enumerate(configs):
            cached = self.cache.get(config) if self.cache else None
            if cached is not None:
                results[index] = cached
                self.simulations_cached += 1
            else:
                pending.append((index, config))

        started = time.time()  # simlint: disable=DET002 -- host wall-clock ETA display, not simulated time
        done = 0

        def note_done() -> None:
            nonlocal done
            done += 1
            self.simulations_run += 1
            if self.progress:
                # simlint: disable-next=DET002 -- host wall-clock ETA display, not simulated time
                elapsed = time.time() - started
                eta = elapsed / done * (len(pending) - done)
                sys.stderr.write(
                    f"\r  [{label or 'sweep'} {done}/{len(pending)}"
                    f" sims, {len(configs) - len(pending)} cached]"
                    f" ETA {eta:.0f}s "
                )
                sys.stderr.flush()

        if pending:
            if self.jobs == 1:
                for index, config in pending:
                    results[index] = _simulate(config)
                    note_done()
            else:
                pool = self._ensure_pool()
                futures = {
                    pool.submit(_simulate, config): index
                    for index, config in pending
                }
                for future in concurrent.futures.as_completed(futures):
                    results[futures[future]] = future.result()
                    note_done()
            if self.cache:
                for index, config in pending:
                    self.cache.put(config, results[index])
            if self.progress:
                sys.stderr.write("\n")
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def run_many(self, configs: Sequence[SystemConfig],
                 label: str = "") -> List[ReplicatedResult]:
        """Run every configuration with ``seeds`` replicates each.

        The whole ``len(configs) * seeds`` job grid is submitted as one
        batch, so replicates of different points fill the pool evenly.
        """
        jobs: List[SystemConfig] = []
        seed_grid: List[List[int]] = []
        for config in configs:
            seeds = [replicate_seed(config.random_seed, k)
                     for k in range(self.seeds)]
            seed_grid.append(seeds)
            jobs.extend(config.replace(random_seed=s) for s in seeds)
        flat = self.map_raw(jobs, label=label)
        out: List[ReplicatedResult] = []
        offset = 0
        for seeds in seed_grid:
            out.append(ReplicatedResult(flat[offset:offset + len(seeds)], seeds))
            offset += len(seeds)
        return out

    def run(self, config: SystemConfig, label: str = "") -> ReplicatedResult:
        """Run one configuration point (replicated)."""
        return self.run_many([config], label=label)[0]
