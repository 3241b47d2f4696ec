"""Unit tests for random stream registry."""

import bisect

import pytest

from repro.sim import StreamRegistry
from repro.sim import rng
from repro.sim.rng import zipf_weights


class TestStreams:
    def test_same_name_same_stream(self):
        reg = StreamRegistry(7)
        assert reg.stream("a") is reg.stream("a")

    def test_reproducible_across_registries(self):
        a = StreamRegistry(7).stream("arrivals")
        b = StreamRegistry(7).stream("arrivals")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_streams_are_independent(self):
        reg = StreamRegistry(7)
        a = reg.stream("a")
        b = reg.stream("b")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = StreamRegistry(1).stream("s")
        b = StreamRegistry(2).stream("s")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


class TestDistributions:
    def test_exponential_mean(self):
        stream = StreamRegistry(3).stream("exp")
        n = 20000
        mean = sum(stream.exponential(10.0) for _ in range(n)) / n
        assert mean == pytest.approx(10.0, rel=0.05)

    def test_exponential_zero_mean(self):
        stream = StreamRegistry(3).stream("exp")
        assert stream.exponential(0.0) == 0.0

    def test_exponential_negative_mean_rejected(self):
        stream = StreamRegistry(3).stream("exp")
        with pytest.raises(ValueError):
            stream.exponential(-1.0)

    def test_randint_bounds(self):
        stream = StreamRegistry(3).stream("int")
        values = {stream.randint(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_bernoulli_probability(self):
        stream = StreamRegistry(3).stream("bern")
        n = 20000
        hits = sum(stream.bernoulli(0.85) for _ in range(n))
        assert hits / n == pytest.approx(0.85, abs=0.02)

    def test_weighted_index_respects_weights(self):
        stream = StreamRegistry(3).stream("w")
        cumulative = [1.0, 1.0 + 3.0]  # weights 1 and 3
        n = 20000
        ones = sum(stream.weighted_index(cumulative) == 1 for _ in range(n))
        assert ones / n == pytest.approx(0.75, abs=0.02)

    def test_geometric_mean(self):
        stream = StreamRegistry(3).stream("g")
        n = 20000
        mean = sum(stream.geometric(0.25) for _ in range(n)) / n
        assert mean == pytest.approx(4.0, rel=0.05)

    def test_geometric_invalid_p(self):
        stream = StreamRegistry(3).stream("g")
        with pytest.raises(ValueError):
            stream.geometric(0.0)


class TestBoundDraws:
    """The bound draws hot loops inline are the wrapper distributions,
    draw for draw: same values and same stream position afterwards."""

    @staticmethod
    def twin_streams(seed):
        return (
            StreamRegistry(seed).stream("bound"),
            StreamRegistry(seed).stream("bound"),
        )

    @pytest.mark.parametrize("seed", [3, 2026])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_getrandbits_rejection_is_randint(self, seed, n):
        fast, reference = self.twin_streams(seed)
        getrandbits = fast.getrandbits
        k = n.bit_length()
        for _ in range(300):
            value = getrandbits(k)
            while value >= n:
                value = getrandbits(k)
            assert value == reference.randint(0, n - 1)
        assert fast.random() == reference.random()

    @pytest.mark.parametrize("seed", [3, 2026])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_random_below_p_is_bernoulli(self, seed, n):
        fast, reference = self.twin_streams(seed)
        rand = fast.random
        p = n / 6
        for _ in range(300):
            assert (rand() < p) == reference.bernoulli(p)
        assert fast.random() == reference.random()

    @pytest.mark.parametrize("seed", [3, 2026])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bisect_of_scaled_random_is_weighted_index(self, seed, n):
        fast, reference = self.twin_streams(seed)
        rand = fast.random
        table = zipf_weights(n, 0.8)
        total = table[-1]
        for _ in range(300):
            index = bisect.bisect_right(table, rand() * total)
            assert index == reference.weighted_index(table)
        assert fast.random() == reference.random()


class TestZipf:
    def test_uniform_when_theta_zero(self):
        weights = zipf_weights(4, 0.0)
        assert weights == pytest.approx([1.0, 2.0, 3.0, 4.0])

    def test_skewed_when_theta_positive(self):
        weights = zipf_weights(3, 1.0)
        assert weights == pytest.approx([1.0, 1.5, 1.5 + 1.0 / 3.0])

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)

    def test_sampling_skew(self):
        stream = StreamRegistry(5).stream("zipf")
        cumulative = zipf_weights(100, 1.0)
        n = 20000
        first = sum(stream.weighted_index(cumulative) == 0 for _ in range(n))
        last = sum(stream.weighted_index(cumulative) == 99 for _ in range(n))
        assert first > 10 * max(last, 1)

class TestZipfCache:
    """The memoized cumulative tables must be bit-identical to a fresh
    computation -- caching is a pure speedup, never a semantic change."""

    def test_repeated_calls_share_one_table(self):
        rng._ZIPF_CACHE.clear()
        first = zipf_weights(128, 0.8)
        second = zipf_weights(128, 0.8)
        assert second is first

    def test_cached_table_bit_identical_to_fresh(self):
        import itertools

        rng._ZIPF_CACHE.clear()
        cached = zipf_weights(512, 0.73)
        fresh = list(
            itertools.accumulate(1.0 / (i + 1) ** 0.73 for i in range(512))
        )
        # Float equality on purpose: the cache must not change a single
        # bit of any weight (goldens depend on the sampled sequences).
        assert cached == fresh
        assert [w.hex() for w in cached] == [w.hex() for w in fresh]

    def test_sampling_unchanged_by_cache_state(self):
        rng._ZIPF_CACHE.clear()
        cold_stream = StreamRegistry(11).stream("zipf")
        cold = [
            cold_stream.weighted_index(zipf_weights(64, 1.1)) for _ in range(200)
        ]
        warm_stream = StreamRegistry(11).stream("zipf")
        warm = [
            warm_stream.weighted_index(zipf_weights(64, 1.1)) for _ in range(200)
        ]
        assert cold == warm

    def test_distinct_parameters_get_distinct_tables(self):
        rng._ZIPF_CACHE.clear()
        assert zipf_weights(8, 0.5) is not zipf_weights(8, 0.6)
        assert zipf_weights(8, 0.5) is not zipf_weights(9, 0.5)
        assert len(rng._ZIPF_CACHE) == 3
