"""Additional PCL edge cases."""

from repro.workload.transaction import PageAccess

from tests.helpers import drive_cluster as drive
from tests.helpers import make_txn, quiesced_cluster


def make_cluster(**overrides):
    overrides.setdefault("num_nodes", 3)
    overrides.setdefault("coupling", "pcl")
    return quiesced_cluster(**overrides)


def page_of_node(cluster, node, offset=0):
    branch = node * cluster.layout.config.branches_per_node + offset
    return cluster.layout.branch_teller_page(branch)


class TestMultiGlaRelease:
    def test_release_messages_one_per_remote_gla(self):
        cluster = make_cluster()
        txn = make_txn(1, 0)
        pages = [page_of_node(cluster, 1), page_of_node(cluster, 2),
                 page_of_node(cluster, 2, offset=1)]

        def proc():
            for page in pages:
                yield from cluster.protocol.acquire(txn, page, False, None)
            before = cluster.nodes[0].comm.sent_short
            yield from cluster.protocol.commit_release(txn)
            return cluster.nodes[0].comm.sent_short - before

        # Locks at two remote GLAs -> exactly two release messages.
        assert drive(cluster, proc()) == 2

    def test_local_and_remote_mix(self):
        cluster = make_cluster()
        txn = make_txn(1, 0)
        local = page_of_node(cluster, 0)
        remote = page_of_node(cluster, 1)

        def proc():
            g1 = yield from cluster.protocol.acquire(txn, local, False, None)
            g2 = yield from cluster.protocol.acquire(txn, remote, False, None)
            assert g1.local and not g2.local
            yield from cluster.protocol.commit_release(txn)
            yield cluster.sim.timeout(0.05)

        drive(cluster, proc())
        # Both GLAs show the locks released.
        assert cluster.protocol.tables[0].holds(1, local) is None
        assert cluster.protocol.tables[1].holds(1, remote) is None


class TestSeqnoPropagation:
    def test_seqno_visible_to_next_locker_after_remote_commit(self):
        cluster = make_cluster()
        page = page_of_node(cluster, 1)
        writer = make_txn(1, 0)

        def write_proc():
            grant = yield from cluster.protocol.acquire(writer, page, True, None)
            access = PageAccess(page, write=True)
            writer.accesses.append(access)
            yield from cluster.nodes[0].buffer.access(writer, access, grant)
            for p, v in writer.modified.items():
                cluster.ledger.install_commit(p, v)
            yield from cluster.protocol.commit_release(writer)
            cluster.nodes[0].buffer.finish_commit(writer)

        drive(cluster, write_proc())

        reader = make_txn(2, 2)
        grant = drive(cluster, cluster.protocol.acquire(reader, page, False, None))
        # Even though the release travelled as a message, the lock was
        # only grantable after the GLA applied seqno 1.
        assert grant.seqno == 1

    def test_waiter_at_gla_gets_post_release_seqno(self):
        cluster = make_cluster()
        page = page_of_node(cluster, 1)
        sim = cluster.sim
        results = {}

        def writer_proc():
            txn = make_txn(1, 0)
            grant = yield from cluster.protocol.acquire(txn, page, True, None)
            access = PageAccess(page, write=True)
            txn.accesses.append(access)
            yield from cluster.nodes[0].buffer.access(txn, access, grant)
            yield sim.timeout(0.02)
            for p, v in txn.modified.items():
                cluster.ledger.install_commit(p, v)
            yield from cluster.protocol.commit_release(txn)
            cluster.nodes[0].buffer.finish_commit(txn)

        def reader_proc():
            yield sim.timeout(0.005)  # arrive while the writer holds X
            txn = make_txn(2, 2)
            grant = yield from cluster.protocol.acquire(txn, page, False, None)
            results["seqno"] = grant.seqno
            results["supplied"] = grant.page_supplied
            yield from cluster.protocol.commit_release(txn)

        sim.process(writer_proc())
        sim.process(reader_proc())
        sim.run(until=sim.now + 20.0)
        assert results["seqno"] == 1
        # The GLA received the page with the release: it can supply it.
        assert results["supplied"]


class TestRevocationEdges:
    def test_writer_with_sole_authorization_not_revoked(self):
        cluster = make_cluster(pcl_read_optimization=True)
        page = page_of_node(cluster, 1)
        # Node 0 warms an authorization.
        reader = make_txn(1, 0)

        def warm():
            grant = yield from cluster.protocol.acquire(reader, page, False, None)
            access = PageAccess(page, write=False)
            reader.accesses.append(access)
            yield from cluster.nodes[0].buffer.access(reader, access, grant)
            yield from cluster.protocol.commit_release(reader)

        drive(cluster, warm())
        # The same node then writes: its own authorization must not
        # trigger a revoke round against itself.
        writer = make_txn(2, 0)

        def write():
            yield from cluster.protocol.acquire(writer, page, True, None)
            yield from cluster.protocol.abort_release(writer)

        before = cluster.protocol.revocations
        drive(cluster, write())
        assert cluster.protocol.revocations == before


class TestRevokeOrder:
    def test_authorizations_revoked_in_node_order(self):
        """Revoke messages must go out in sorted node order.

        ``auth_nodes`` is a set; ``{8, 1}`` iterates as ``[8, 1]``
        under CPython's hashing, and the message send order feeds the
        event schedule.  Pre-fix the revokes followed set order.
        """
        cluster = make_cluster(num_nodes=9)
        protocol = cluster.protocol
        gla_node = cluster.nodes[0]
        sent = []

        def fake_send(dst, kind, payload, **kwargs):
            sent.append(dst)
            payload["ack"].succeed({})
            return
            yield  # pragma: no cover - makes this a generator

        gla_node.comm.send = fake_send

        class Entry:
            auth_nodes = {8, 1}

            @classmethod
            def deauthorize(cls, *nodes):
                cls.auth_nodes.difference_update(nodes)

        assert list(Entry.auth_nodes) == [8, 1]  # the hazardous order
        drive(cluster, protocol._revoke_authorizations(
            gla_node, page_of_node(cluster, 0), Entry, requester=0))
        assert sent == [1, 8]
        assert Entry.auth_nodes == set()
        assert protocol.revocations == 2
