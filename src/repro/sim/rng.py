"""Named, reproducible random-number streams.

Each model component draws from its own stream derived from a master
seed, so that changing one component's consumption pattern does not
perturb the random sequences seen by the others (common random numbers
across configurations, a standard variance-reduction practice).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

__all__ = ["StreamRegistry", "Stream", "derive_seed", "replicate_seed", "zipf_weights"]

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a child seed from ``master_seed`` for a named stream.

    Uses SHA-256 so the derivation is stable across Python versions and
    processes (``hash()`` is randomized per interpreter and would break
    reproducibility across worker processes).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


#: Backwards-compatible alias (pre-parallel-runner name).
_derive_seed = derive_seed


def replicate_seed(base_seed: int, replicate: int) -> int:
    """Master seed of replicate ``replicate`` of a multi-seed run.

    Replicate 0 keeps ``base_seed`` unchanged so that single-seed runs
    are bit-identical to runs that predate replication.  Higher
    replicates use an independent SHA-256 derivation, which makes the
    per-replicate seeds a pure function of ``(base_seed, replicate)``
    -- results do not depend on worker scheduling order.
    """
    if replicate < 0:
        raise ValueError("replicate must be >= 0")
    if replicate == 0:
        return base_seed
    return derive_seed(base_seed, f"replicate:{replicate}")


class Stream:
    """A single random stream with the distributions the model needs."""

    def __init__(self, seed: int, name: str = "") -> None:
        self.name = name
        self._rng = random.Random(seed)
        #: Bound fast path for hot callers that precompute the rate
        #: (``1.0 / mean``); bit-identical to :meth:`exponential` for
        #: ``mean > 0`` since that calls ``expovariate(1.0 / mean)``.
        self.expovariate: Callable[[float], float] = self._rng.expovariate

    # Bound draws for hot loops, which hoist them into locals and inline
    # the distributions below on the same stream:
    #
    # * ``random() < p`` is :meth:`bernoulli`;
    # * ``bisect_right(table, random() * table[-1])`` is
    #   :meth:`weighted_index`;
    # * with ``k = n.bit_length()``, drawing ``getrandbits(k)`` until the
    #   result is below ``n`` is ``randint(0, n - 1)`` (CPython's
    #   ``randrange`` rejection loop; it draws even for ``n == 1``).
    #
    # Each pair is identical draw for draw: same values, same stream
    # position afterwards (``tests/sim/test_rng.py``).  They are
    # properties rather than attributes bound in ``__init__`` so a
    # stream keeps its size: two more tracked objects per stream shift
    # the cyclic collector's schedule in every simulation.

    @property
    def random(self) -> Callable[[], float]:
        """The stream's bound uniform draw on [0, 1)."""
        return self._rng.random

    @property
    def getrandbits(self) -> Callable[[int], int]:
        """The stream's bound ``getrandbits(k)``: ``k`` random bits."""
        return self._rng.getrandbits

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def exponential(self, mean: float) -> float:
        """Exponentially distributed sample with the given *mean*."""
        if mean < 0:
            raise ValueError(f"negative mean: {mean!r}")
        if mean == 0:
            return 0.0
        return self._rng.expovariate(1.0 / mean)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def shuffle(self, seq: List[T]) -> None:
        self._rng.shuffle(seq)

    def bernoulli(self, p: float) -> bool:
        return self._rng.random() < p

    def weighted_index(self, cumulative: Sequence[float]) -> int:
        """Sample an index given a cumulative weight table.

        ``cumulative`` must be non-decreasing with ``cumulative[-1]``
        equal to the total weight.
        """
        target = self._rng.random() * cumulative[-1]
        return bisect.bisect_right(cumulative, target)

    def geometric(self, p: float) -> int:
        """Number of trials until first success (>= 1)."""
        if not 0 < p <= 1:
            raise ValueError("p must be in (0, 1]")
        count = 1
        while self._rng.random() >= p:
            count += 1
        return count


#: Memoized cumulative tables: building one is O(n) with a float pow
#: per item, and every generator construction used to recompute the
#: same ``(n, theta)`` table per access spec.
_ZIPF_CACHE: Dict[Tuple[int, float], List[float]] = {}


def zipf_weights(n: int, theta: float) -> List[float]:
    """Cumulative weights of a Zipf-like distribution over ``n`` items.

    Item ``i`` (0-based) has weight ``1 / (i + 1) ** theta``.  With
    ``theta == 0`` this degenerates to the uniform distribution.  The
    returned list is cumulative, ready for
    :meth:`Stream.weighted_index`.

    Tables are cached per ``(n, theta)`` and shared between callers;
    treat the returned list as read-only.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    key = (n, theta)
    table = _ZIPF_CACHE.get(key)
    if table is None:
        weights = [1.0 / (i + 1) ** theta for i in range(n)]
        table = _ZIPF_CACHE[key] = list(itertools.accumulate(weights))
    return table


class StreamRegistry:
    """A factory of independently seeded :class:`Stream` objects."""

    def __init__(self, master_seed: int = 42) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = Stream(_derive_seed(self.master_seed, name), name)
        return self._streams[name]
