"""Per-rule good/bad fixtures for the simlint analyzer.

Each rule gets at least one *bad* fixture that must produce the rule at
the expected line, and one *good* fixture (same hazard class, written
the deterministic/safe way) that must stay clean.
"""

import textwrap

from repro.lint import lint_sources


def lint_src(source, path="fixture.py"):
    findings, _files = lint_sources([(path, textwrap.dedent(source))])
    return findings


def rules_at(findings):
    return [(f.rule, f.line) for f in findings]


class TestDET001UnorderedIteration:
    def test_for_over_set_annotated_attr(self):
        findings = lint_src(
            """\
            from typing import Set

            class Table:
                def __init__(self) -> None:
                    self.members: Set[int] = set()

                def walk(self):
                    for member in self.members:
                        print(member)
            """
        )
        assert ("DET001", 8) in rules_at(findings)

    def test_for_over_sorted_set_is_clean(self):
        findings = lint_src(
            """\
            from typing import Set

            class Table:
                def __init__(self) -> None:
                    self.members: Set[int] = set()

                def walk(self):
                    for member in sorted(self.members):
                        print(member)
            """
        )
        assert findings == []

    def test_listcomp_over_set_local(self):
        findings = lint_src(
            """\
            def f():
                pending = {1, 2, 3}
                return [x + 1 for x in pending]
            """
        )
        assert ("DET001", 3) in rules_at(findings)

    def test_setcomp_over_set_is_clean(self):
        findings = lint_src(
            """\
            def f():
                pending = {1, 2, 3}
                return {x + 1 for x in pending}
            """
        )
        assert findings == []

    def test_order_insensitive_reduction_is_clean(self):
        findings = lint_src(
            """\
            def f():
                pending = {1, 2, 3}
                return max(x + 1 for x in pending), len(pending)
            """
        )
        assert findings == []

    def test_list_materialization_of_set(self):
        findings = lint_src(
            """\
            def f():
                pending = {1, 2, 3}
                return list(pending)
            """
        )
        assert ("DET001", 3) in rules_at(findings)

    def test_os_listdir_unsorted(self):
        findings = lint_src(
            """\
            import os

            def f(root):
                for name in os.listdir(root):
                    print(name)
            """
        )
        assert ("DET001", 4) in rules_at(findings)

    def test_os_listdir_sorted_is_clean(self):
        findings = lint_src(
            """\
            import os

            def f(root):
                for name in sorted(os.listdir(root)):
                    print(name)
            """
        )
        assert findings == []

    def test_set_union_expression(self):
        findings = lint_src(
            """\
            def f():
                a = {1}
                b = {2}
                for x in a | b:
                    print(x)
            """
        )
        assert ("DET001", 4) in rules_at(findings)

    def test_dict_of_set_subscript(self):
        findings = lint_src(
            """\
            from typing import Dict, Set

            class Waiters:
                def __init__(self) -> None:
                    self.by_node: Dict[int, Set[int]] = {}

                def walk(self, node):
                    for txn in self.by_node[node]:
                        print(txn)
            """
        )
        assert ("DET001", 8) in rules_at(findings)

    def test_dict_iteration_is_clean(self):
        findings = lint_src(
            """\
            def f():
                d = {1: "a", 2: "b"}
                for k in d:
                    print(k)
            """
        )
        assert findings == []


class TestDET002UnseededRandomness:
    def test_global_random_call(self):
        findings = lint_src(
            """\
            import random

            def jitter():
                return random.random()
            """
        )
        assert ("DET002", 4) in rules_at(findings)

    def test_random_class_import_is_not_det002(self):
        # Instantiating Random with an explicit seed is not *global*
        # randomness (DET002) -- but building a generator outside the
        # stream layer is an RNG001 hazard in its own right.
        findings = lint_src(
            """\
            from random import Random

            def make_stream(seed):
                return Random(seed)
            """
        )
        assert rules_at(findings) == [("RNG001", 4)]

    def test_time_time_call(self):
        findings = lint_src(
            """\
            import time

            def stamp():
                return time.time()
            """
        )
        assert ("DET002", 4) in rules_at(findings)

    def test_uuid_call(self):
        findings = lint_src(
            """\
            import uuid

            def token():
                return uuid.uuid4()
            """
        )
        assert ("DET002", 4) in rules_at(findings)

    def test_id_as_sort_key(self):
        findings = lint_src(
            """\
            def order(events):
                return sorted(events, key=lambda e: id(e))
            """
        )
        assert any(f.rule == "DET002" for f in findings)

    def test_id_outside_ordering_is_clean(self):
        findings = lint_src(
            """\
            def label(obj):
                return f"obj-{id(obj)}"
            """
        )
        assert findings == []


class TestDET003FloatAccumulation:
    """The shapes the retired DET003 rule flagged, now reported as DET001.

    ``sum()`` over an unordered iterable materialises its order into a
    float total, like ``list()``; counting with ``sum(1 for ...)`` is
    exact whatever the order.
    """

    def test_sum_over_set(self):
        findings = lint_src(
            """\
            def total(weights):
                pending = {1.5, 2.5}
                return sum(pending)
            """
        )
        assert ("DET001", 3) in rules_at(findings)

    def test_count_over_set_is_clean(self):
        findings = lint_src(
            """\
            def count(pending):
                live = {1, 2}
                return sum(1 for x in live if x)
            """
        )
        assert findings == []

    def test_sum_over_sorted_set_is_clean(self):
        findings = lint_src(
            """\
            def total():
                pending = {1.5, 2.5}
                return sum(sorted(pending))
            """
        )
        assert findings == []


class TestSIM001UnprotectedGrantWait:
    """The shapes the retired SIM001 rule flagged, now reported as RES001.

    RES001 reports a bound request at the ``request()`` call when some
    path leaves it pending, and an unbound ``yield recv.request()``
    always: nothing can cancel an entry that was never named.
    """

    def test_bare_request_yield_in_generator(self):
        findings = lint_src(
            """\
            def worker(cpu):
                yield cpu.request()
                try:
                    yield cpu.busy_work(100)
                finally:
                    cpu.release()
            """
        )
        assert rules_at(findings) == [("RES001", 2)]

    def test_bound_request_yield_without_cancel(self):
        findings = lint_src(
            """\
            def worker(cpu):
                request = cpu.request()
                yield request
                try:
                    yield cpu.busy_work(100)
                finally:
                    cpu.release()
            """
        )
        assert ("RES001", 2) in rules_at(findings)

    def test_cancel_protected_wait_is_clean(self):
        findings = lint_src(
            """\
            def worker(cpu):
                request = cpu.request()
                try:
                    yield request
                except BaseException:
                    cpu.cancel(request)
                    raise
                try:
                    yield cpu.busy_work(100)
                finally:
                    cpu.release()
            """
        )
        assert findings == []

    def test_finally_release_around_unbound_request_is_res001(self):
        # finally: release() is no protection: an interrupt while the
        # request is queued would release a unit that was never granted.
        findings = lint_src(
            """\
            def worker(cpu):
                try:
                    yield cpu.request()
                    yield cpu.busy_work(100)
                finally:
                    cpu.release()
            """
        )
        assert rules_at(findings) == [("RES001", 3)]

    def test_unbound_request_in_nested_generator_is_reported_once(self):
        findings = lint_src(
            """\
            def outer(cpu):
                def inner():
                    yield cpu.request()
                    cpu.release()
                yield from inner()
            """
        )
        assert rules_at(findings) == [("RES001", 3)]

    def test_non_generator_wrapper_is_clean(self):
        findings = lint_src(
            """\
            def request(self):
                return self.resource.request()
            """
        )
        assert findings == []


class TestCrossFileRegistry:
    def test_set_attr_annotated_in_one_file_flagged_in_another(self):
        owner = """\
        from typing import Set

        class GlobalTable:
            def __init__(self) -> None:
                self.auth_nodes: Set[int] = set()
        """
        user = """\
        def walk(table):
            for node in table.auth_nodes:
                print(node)
        """
        findings, files = lint_sources(
            [
                ("owner.py", textwrap.dedent(owner)),
                ("user.py", textwrap.dedent(user)),
            ]
        )
        assert files == 2
        assert [(f.path, f.rule, f.line) for f in findings] == [
            ("user.py", "DET001", 2)
        ]

    def test_abstract_set_attr_with_shared_empty_initialiser(self):
        # The annotation alone marks the attribute: its initialiser is
        # a shared immutable empty, not a set display.
        owner = """\
        from typing import AbstractSet, FrozenSet

        _NO_AUTH: FrozenSet[int] = frozenset()

        class GlobalTable:
            def __init__(self) -> None:
                self.auth_nodes: AbstractSet[int] = _NO_AUTH
        """
        user = """\
        def walk(table):
            for node in table.auth_nodes:
                print(node)
        """
        findings, _files = lint_sources(
            [
                ("owner.py", textwrap.dedent(owner)),
                ("user.py", textwrap.dedent(user)),
            ]
        )
        assert [(f.path, f.rule, f.line) for f in findings] == [
            ("user.py", "DET001", 2)
        ]

    def test_lock_entry_auth_nodes_stay_a_set(self):
        import repro.node.lock_table as lock_table

        with open(lock_table.__file__, encoding="utf-8") as handle:
            owner = handle.read()
        user = """\
        def walk(entry):
            return [node for node in entry.auth_nodes]
        """
        findings, _files = lint_sources(
            [("lock_table.py", owner), ("user.py", textwrap.dedent(user))]
        )
        assert [(f.path, f.rule, f.line) for f in findings] == [
            ("user.py", "DET001", 2)
        ]

    def test_bare_names_stay_module_local(self):
        # 'nodes' is a set in one module; a like-named *list* attribute
        # in another module must not be poisoned by it.
        setter = """\
        def collect():
            nodes = set()
            return nodes
        """
        lister = """\
        def walk(cluster):
            for node in cluster.nodes:
                print(node)
        """
        findings, _files = lint_sources(
            [
                ("setter.py", textwrap.dedent(setter)),
                ("lister.py", textwrap.dedent(lister)),
            ]
        )
        assert [f for f in findings if f.path == "lister.py"] == []


class TestSeededBadPatterns:
    """The acceptance check: seeding a known-bad pattern into a real
    concurrency-control source file must produce the right rule at the
    right location."""

    @staticmethod
    def line_of(source, marker):
        return source[: source.index(marker)].count("\n") + 1

    def test_seeded_global_random_in_cc_source(self):
        path = "src/repro/cc/pcl.py"
        seeded = open(path).read() + (
            "\n\ndef _seeded_jitter():\n"
            "    import random\n"
            "    return random.random()\n"
        )
        findings, _files = lint_sources([(path, seeded)])
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("DET002", path, self.line_of(seeded, "return random.random()"))
        ]

    def test_seeded_set_iteration_in_cc_source(self):
        path = "src/repro/cc/store_locking.py"
        seeded = open(path).read() + (
            "\n\ndef _seeded_walk(entry):\n"
            "    pending = {1, 2, 3}\n"
            "    for item in pending:\n"
            "        print(item)\n"
        )
        findings, _files = lint_sources([(path, seeded)])
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("DET001", path, self.line_of(seeded, "for item in pending:"))
        ]
