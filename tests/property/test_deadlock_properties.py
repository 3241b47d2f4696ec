"""Property-based tests for deadlock detection.

Random lock workloads with artificially planted cycles: the detector
must find every planted cycle and never fire on acyclic wait graphs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.deadlock import DeadlockDetector
from repro.node.lock_table import LockMode, LockTable

X = LockMode.EXCLUSIVE


def noop():
    pass


class TestAcyclicNeverFires:
    @given(
        chain_length=st.integers(2, 8),
    )
    @settings(max_examples=40)
    def test_wait_chain_is_not_a_deadlock(self, chain_length):
        """txn i waits for txn i-1 on page i: a pure chain, no cycle."""
        detector = DeadlockDetector()
        table = LockTable()
        for i in range(chain_length):
            table.request(i, (0, i), X, noop)
        for i in range(1, chain_length):
            table.request(i, (0, i - 1), X, noop)
            victim = detector.register_block(i, table, noop)
            assert victim is None
        assert detector.deadlocks_detected == 0

    @given(
        num_txns=st.integers(2, 6),
        num_pages=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50)
    def test_random_ordered_acquisition_is_deadlock_free(
        self, num_txns, num_pages, seed
    ):
        """Transactions acquiring pages in global page order (the
        debit-credit discipline) can never deadlock."""
        import random

        # simlint: disable-next=RNG001 -- drives the test's own interleaving from the hypothesis seed, not a model stream
        rng = random.Random(seed)
        detector = DeadlockDetector()
        table = LockTable()
        # Each txn requests a sorted subset of pages, one at a time;
        # when blocked it stops (we don't simulate time here).
        for txn in range(num_txns):
            pages = sorted(rng.sample(range(num_pages), rng.randint(1, num_pages)))
            for page_no in pages:
                if table.is_blocked(txn):
                    break
                granted = table.request(txn, (0, page_no), X, noop)
                if not granted:
                    victim = detector.register_block(txn, table, noop)
                    assert victim is None, "ordered acquisition deadlocked"
        assert detector.deadlocks_detected == 0


class TestPlantedCyclesFound:
    @given(cycle_size=st.integers(2, 7))
    @settings(max_examples=40)
    def test_planted_cycle_detected_and_victim_is_youngest(self, cycle_size):
        detector = DeadlockDetector()
        table = LockTable()
        aborted = []
        # txn i holds page i; then txn i requests page (i+1) % k.
        for i in range(cycle_size):
            table.request(i, (0, i), X, noop)
        victim = None
        for i in range(cycle_size):
            target = (0, (i + 1) % cycle_size)
            granted = table.request(i, target, X, noop)
            assert not granted

            def abort(txn=i, page=target):
                table.cancel(txn, page)
                aborted.append(txn)

            victim = detector.register_block(i, table, abort)
            if victim is not None:
                break
        assert victim == cycle_size - 1  # youngest participant
        assert aborted == [victim]
        assert detector.deadlocks_detected == 1
        # After the abort the remaining graph is a chain: no more cycles.
        assert not detector.is_blocked(victim)
