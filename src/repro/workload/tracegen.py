"""Synthetic "real-life" trace generator.

The paper's section 4.6 uses a proprietary database trace characterized
only by its aggregates: >17,500 transactions of twelve types, about one
million page references to 66,000 distinct pages in thirteen files,
the largest transaction (an ad-hoc query) with more than 11,000
references, 20 % update transactions but only 1.6 % write references,
and a highly non-uniform access distribution with limited
"partitionability".  This module synthesizes a trace matching those
aggregates (see DESIGN.md, substitutions).

Construction:

* Thirteen files with skewed sizes (a few large, several small).
* Twelve transaction types.  Type 11 is the rare ad-hoc query touching
  ``max_references`` pages across the big files, read-only.  The other
  types have exponential-ish size profiles calibrated so the overall
  mean matches ``mean_references``.
* Each type references 2-4 "home" files plus, with some probability,
  pages of a *shared* hot file -- the cross-type sharing is what limits
  partitionability, as in the original trace.
* Page popularity inside a file is Zipf-distributed; a per-type offset
  rotates the popularity ranking so types favour different hot sets
  while still overlapping.
* A subset of the types performs updates, calibrated to the target
  update-transaction fraction and write-reference fraction.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import List, Sequence, Tuple

from repro.sim.rng import Stream, zipf_weights
from repro.system.config import TraceWorkloadConfig
from repro.workload.trace import (
    ReferencePool,
    Trace,
    TraceReference,
    TraceTransaction,
)

__all__ = ["TraceTypeProfile", "generate_trace", "file_sizes"]


class TraceTypeProfile:
    """Static description of one transaction type."""

    __slots__ = (
        "type_id",
        "frequency",
        "mean_size",
        "fixed_size",
        "home_files",
        "shared_file_probability",
        "write_probability",
        "rotation",
    )

    def __init__(
        self,
        type_id: int,
        frequency: float,
        mean_size: float,
        home_files: Sequence[int],
        write_probability: float = 0.0,
        shared_file_probability: float = 0.15,
        fixed_size: bool = False,
        rotation: int = 0,
    ):
        self.type_id = type_id
        self.frequency = frequency
        self.mean_size = mean_size
        self.fixed_size = fixed_size
        self.home_files = list(home_files)
        self.shared_file_probability = shared_file_probability
        self.write_probability = write_probability
        self.rotation = rotation


def file_sizes(config: TraceWorkloadConfig) -> List[int]:
    """Page-universe sizes of the trace's files (sums to about the
    distinct-page target; the Zipf sampling concentrates references so
    the realized distinct count lands near the target)."""
    total = config.distinct_pages
    # Shares: a few big files dominate, several small ones (shaped like
    # typical production databases).
    shares = [0.28, 0.20, 0.14, 0.10, 0.07, 0.05, 0.04, 0.03, 0.025, 0.02, 0.02, 0.015, 0.01]
    shares = shares[: config.num_files]
    scale = sum(shares)
    sizes = [max(16, int(total * share / scale)) for share in shares]
    return sizes


def _default_profiles(config: TraceWorkloadConfig) -> List[TraceTypeProfile]:
    """Twelve types calibrated to the paper's aggregates."""
    num_types = config.num_types
    adhoc_type = num_types - 1
    adhoc_frequency = 0.002
    # Contribution of the ad-hoc query to the overall mean size.
    adhoc_contribution = adhoc_frequency * config.max_references
    remaining_mean = max(
        4.0, (config.mean_references - adhoc_contribution) / (1.0 - adhoc_frequency)
    )
    # Size profile across the normal types: skewed, mean == remaining_mean.
    raw_sizes = [0.3, 0.4, 0.5, 0.7, 0.8, 1.0, 1.1, 1.3, 1.6, 2.0, 2.5]
    raw_sizes = raw_sizes[: num_types - 1]
    # Frequencies: smaller transactions are more frequent.
    raw_freq = [1.0 / s for s in raw_sizes]
    freq_scale = (1.0 - adhoc_frequency) / sum(raw_freq)
    frequencies = [f * freq_scale for f in raw_freq]
    weighted = sum(f * s for f, s in zip(frequencies, raw_sizes))
    size_scale = remaining_mean * (1.0 - adhoc_frequency) / weighted
    mean_sizes = [s * size_scale for s in raw_sizes]
    # Update types: chosen so that update txn fraction ~= target.  The
    # write probability per reference is calibrated afterwards.
    update_target = config.update_txn_fraction
    profiles: List[TraceTypeProfile] = []
    update_budget = update_target
    num_files = config.num_files
    for type_id in range(num_types - 1):
        is_update = update_budget > 0 and type_id % 3 == 0
        if is_update:
            update_budget -= frequencies[type_id]
        if is_update and num_files > 4:
            # Update types live outside the ad-hoc query's footprint
            # (files 0-2): the paper's trace exhibits no significant
            # lock conflicts, which requires writers not to collide
            # with the long read-only query's S locks.
            span = num_files - 3
            home = [3 + (type_id * 2 + k) % span for k in range(2 + type_id % 3)]
        else:
            home = [
                (type_id * 2 + k) % num_files for k in range(2 + type_id % 3)
            ]
        profiles.append(
            TraceTypeProfile(
                type_id,
                frequencies[type_id],
                mean_sizes[type_id],
                home_files=home,
                write_probability=0.0,  # calibrated below
                shared_file_probability=0.15,
                rotation=type_id * 97,
            )
        )
        profiles[-1].write_probability = 0.12 if is_update else 0.0
    profiles.append(
        TraceTypeProfile(
            adhoc_type,
            adhoc_frequency,
            float(config.max_references),
            home_files=[0, 1, 2],
            write_probability=0.0,
            shared_file_probability=0.05,
            fixed_size=True,
            rotation=13,
        )
    )
    # Calibrate write probability to the write-reference fraction.
    # Only references outside the shared hot file (file 0) are eligible
    # for writes, so scale by each type's eligible-reference share.
    def eligible_share(profile: TraceTypeProfile) -> float:
        eligible_home = sum(1 for f in profile.home_files if f >= 3)
        home_share = eligible_home / len(profile.home_files)
        return (1.0 - profile.shared_file_probability) * home_share

    write_refs = sum(
        p.frequency * p.mean_size * p.write_probability * eligible_share(p)
        for p in profiles
    )
    total_refs = sum(p.frequency * p.mean_size for p in profiles)
    if write_refs > 0:
        factor = config.write_reference_fraction * total_refs / write_refs
        for profile in profiles:
            profile.write_probability = min(0.9, profile.write_probability * factor)
    return profiles


def generate_trace(
    config: TraceWorkloadConfig, stream: Stream
) -> Tuple[Trace, List[TraceTypeProfile], List[int]]:
    """Generate a synthetic trace; returns (trace, profiles, file sizes).

    About a million references at paper size, so the per-reference loop
    inlines its draws on ``stream``'s bound ``random``/``getrandbits``
    (same values, same order as ``weighted_index``, ``bernoulli`` and
    ``randint(0, n - 1)``; see :class:`~repro.sim.rng.Stream`) and
    interns the references through one :class:`ReferencePool`.
    """
    config = config.scaled()
    sizes = file_sizes(config)
    profiles = _default_profiles(config)
    cumulative_freq = list(accumulate(profile.frequency for profile in profiles))
    total_freq = cumulative_freq[-1]
    last_type = len(profiles) - 1
    zipf_tables = [zipf_weights(size, config.zipf_theta) for size in sizes]
    zipf_totals = [table[-1] for table in zipf_tables]
    shared_file = 0  # the biggest file is the shared hot file
    # Reads live in the first three quarters of each file's page space;
    # writes allocate sequentially in the last quarter.  The paper's
    # trace exhibits essentially no lock conflicts and no significant
    # buffer invalidations despite 20 % update transactions, which
    # requires updates to fall on pages that other transactions rarely
    # touch (insert-like behaviour).
    read_region = [max(1, (3 * size) // 4) for size in sizes]
    write_span = [max(1, size - region) for size, region in zip(sizes, read_region)]
    write_cursor = [0] * len(sizes)
    rand = stream.random
    getrandbits = stream.getrandbits
    pool = ReferencePool()
    transactions: List[TraceTransaction] = []
    for _ in range(config.num_transactions):
        profile = profiles[
            min(bisect_right(cumulative_freq, rand() * total_freq), last_type)
        ]
        if profile.fixed_size:
            size = int(profile.mean_size)
        else:
            size = max(1, int(round(stream.exponential(profile.mean_size))))
        shared_probability = profile.shared_file_probability
        write_probability = profile.write_probability
        home_files = profile.home_files
        num_home = len(home_files)
        home_bits = num_home.bit_length()
        rotation = profile.rotation
        references: List[TraceReference] = []
        append = references.append
        for _ref in range(size):
            if shared_probability and rand() < shared_probability:
                file_id = shared_file
            else:
                index = getrandbits(home_bits)
                while index >= num_home:
                    index = getrandbits(home_bits)
                file_id = home_files[index]
            # Writes avoid the globally shared hot file and fall on
            # uniformly chosen (i.e. cold-tail) pages: the paper
            # observes that lock conflicts and buffer invalidations had
            # no significant impact on its trace, which requires
            # updates to hit narrowly shared pages.
            if write_probability > 0 and file_id >= 3 and rand() < write_probability:
                page_no = read_region[file_id] + (
                    write_cursor[file_id] % write_span[file_id]
                )
                write_cursor[file_id] += 1
                append(pool[(file_id, page_no, True)])
            else:
                rank = bisect_right(
                    zipf_tables[file_id], rand() * zipf_totals[file_id]
                )
                # Rotate the popularity ranking per type so types
                # favour different hot pages while still overlapping;
                # reads stay inside the read region.
                page_no = (rank + rotation) % read_region[file_id]
                append(pool[(file_id, page_no, False)])
        transactions.append(TraceTransaction(profile.type_id, references))
    return Trace(transactions, config.num_files), profiles, sizes


def main(argv=None) -> int:  # pragma: no cover - thin CLI
    """Generate a trace file: ``python -m repro.workload.tracegen out.trace``."""
    import argparse

    from repro.sim.rng import StreamRegistry

    parser = argparse.ArgumentParser(
        description="Generate a synthetic 'real-life' database trace."
    )
    parser.add_argument("output", help="path of the trace file to write")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    config = TraceWorkloadConfig(scale=args.scale)
    trace, _profiles, _sizes = generate_trace(
        config, StreamRegistry(args.seed).stream("tracegen")
    )
    trace.save(args.output)
    print(
        f"wrote {args.output}: {len(trace)} transactions, "
        f"{trace.num_references():,} references, "
        f"{trace.distinct_pages():,} distinct pages in {trace.num_files} files, "
        f"write fraction {trace.write_reference_fraction():.1%}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
