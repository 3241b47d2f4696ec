"""Property-based tests for LRU caches (disk cache and buffer LRU)."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.disk_cache import DiskCache

page_ids = st.tuples(st.integers(0, 2), st.integers(0, 30))


class TestDiskCacheProperties:
    @given(
        capacity=st.integers(1, 8),
        operations=st.lists(
            st.tuples(st.sampled_from(["read", "insert", "write"]), page_ids),
            max_size=200,
        ),
        nonvolatile=st.booleans(),
    )
    @settings(max_examples=80)
    def test_capacity_never_exceeded(self, capacity, operations, nonvolatile):
        cache = DiskCache(capacity, nonvolatile=nonvolatile)
        for op, page in operations:
            if op == "read":
                cache.lookup_for_read(page)
            elif op == "insert":
                cache.insert(page)
            else:
                cache.note_write(page)
            assert len(cache) <= capacity

    @given(
        capacity=st.integers(1, 6),
        pages=st.lists(page_ids, min_size=1, max_size=100),
    )
    @settings(max_examples=80)
    def test_contents_are_most_recent_distinct_insertions(self, capacity, pages):
        cache = DiskCache(capacity, nonvolatile=False)
        model = OrderedDict()
        for page in pages:
            cache.insert(page)
            if page in model:
                model.move_to_end(page)
            model[page] = True
            while len(model) > capacity:
                model.popitem(last=False)
        for page in model:
            assert page in cache
        assert len(cache) == len(model)

    @given(pages=st.lists(page_ids, min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_nonvolatile_dirty_until_clean(self, pages):
        cache = DiskCache(100, nonvolatile=True)
        for page in pages:
            absorbed = cache.note_write(page)
            assert absorbed
            assert cache.is_dirty(page)
        for page in sorted(set(pages)):
            cache.mark_clean(page)
            assert not cache.is_dirty(page)

    @given(
        reads=st.lists(page_ids, min_size=1, max_size=80),
    )
    @settings(max_examples=60)
    def test_hit_plus_miss_equals_lookups(self, reads):
        cache = DiskCache(4, nonvolatile=False)
        for page in reads:
            if not cache.lookup_for_read(page):
                cache.insert(page)
        assert cache.read_hits + cache.read_misses == len(reads)
        assert 0.0 <= cache.hit_ratio() <= 1.0
