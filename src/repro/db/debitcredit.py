"""Debit-credit database layout (section 3.1, Table 4.1).

The database scales with throughput as the TPC benchmarks require: for
``N`` nodes at 100 TPS each there are ``100 * N`` BRANCH records,
``1000 * N`` TELLERs and ``10,000,000 * N`` ACCOUNTs.

With clustering (the paper's default for all experiments), TELLER
records are stored in the page of their BRANCH record, so the
BRANCH/TELLER file has one page per branch and a transaction touches
three different pages (ACCOUNT, HISTORY, BRANCH/TELLER) and acquires
two page locks (none for HISTORY).

Partition indexes: 0 = BRANCH/TELLER (or BRANCH), 1 = ACCOUNT,
2 = HISTORY (clustered layout); the unclustered layout inserts TELLER
as its own partition.
"""

from __future__ import annotations


from repro.db.pages import PageId
from repro.db.schema import Database, Partition
from repro.system.config import DebitCreditConfig

__all__ = ["DebitCreditLayout"]


class DebitCreditLayout:
    """Record-to-page mapping and partition construction."""

    def __init__(self, config: DebitCreditConfig, num_nodes: int):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.config = config
        self.num_nodes = num_nodes
        self.total_branches = config.branches_per_node * num_nodes
        self.accounts_per_branch = config.accounts_per_branch
        self.total_accounts = self.total_branches * config.accounts_per_branch
        if config.accounts_per_branch % config.account_blocking_factor:
            raise ValueError(
                "accounts_per_branch must be a multiple of the ACCOUNT "
                "blocking factor so that account pages never span branches"
            )
        partitions = []
        if config.cluster_branch_teller:
            partitions.append(
                Partition(
                    "BRANCH_TELLER",
                    index=0,
                    num_pages=self.total_branches,
                    blocking_factor=1 + config.tellers_per_branch,
                    storage=config.branch_teller_storage,
                    disks=config.branch_teller_disks_per_node * num_nodes,
                    cache_pages=config.branch_teller_cache_pages,
                )
            )
            account_index, history_index = 1, 2
        else:
            partitions.append(
                Partition(
                    "BRANCH",
                    index=0,
                    num_pages=self.total_branches,
                    blocking_factor=1,
                    storage=config.branch_teller_storage,
                    disks=config.branch_teller_disks_per_node * num_nodes,
                    cache_pages=config.branch_teller_cache_pages,
                )
            )
            tellers = self.total_branches * config.tellers_per_branch
            partitions.append(
                Partition(
                    "TELLER",
                    index=1,
                    num_pages=max(1, tellers // config.tellers_per_branch),
                    blocking_factor=config.tellers_per_branch,
                    storage=config.branch_teller_storage,
                    disks=config.branch_teller_disks_per_node * num_nodes,
                    cache_pages=config.branch_teller_cache_pages,
                )
            )
            account_index, history_index = 2, 3
        partitions.append(
            Partition(
                "ACCOUNT",
                index=account_index,
                num_pages=self.total_accounts // config.account_blocking_factor,
                blocking_factor=config.account_blocking_factor,
                disks=config.account_disks_per_node * num_nodes,
            )
        )
        partitions.append(
            Partition(
                "HISTORY",
                index=history_index,
                num_pages=None,  # unbounded sequential file
                blocking_factor=config.history_blocking_factor,
                lockable=False,
                disks=config.history_disks_per_node * num_nodes,
            )
        )
        self.database = Database(partitions)
        self.branch_teller = partitions[0]
        self.account = self.database["ACCOUNT"]
        self.history = self.database["HISTORY"]

    # -- record-to-page mapping -------------------------------------------

    def branch_of_account(self, account_no: int) -> int:
        return account_no // self.accounts_per_branch

    def branch_teller_page(self, branch: int) -> PageId:
        """Page of the branch record (and its tellers when clustered)."""
        return self.branch_teller.page_id(branch)

    def teller_page(self, branch: int, teller_index: int) -> PageId:
        """Page of a teller of ``branch`` (equals the branch page when
        clustered)."""
        if self.config.cluster_branch_teller:
            return self.branch_teller_page(branch)
        teller_no = branch * self.config.tellers_per_branch + teller_index
        partition = self.database["TELLER"]
        return partition.page_id(partition.page_of_record(teller_no))

    def account_page(self, account_no: int) -> PageId:
        return self.account.page_id(self.account.page_of_record(account_no))

    # -- node affinity ------------------------------------------------------

    def home_node(self, branch: int) -> int:
        """Node owning ``branch`` under the BRANCH-based partitioning."""
        if not 0 <= branch < self.total_branches:
            raise ValueError(f"branch {branch} out of range")
        return branch // self.config.branches_per_node

    def gla_of_page(self, page: PageId) -> int:
        """GLA assignment coordinated with the affinity routing: each
        node is the authority for its branches' BRANCH/TELLER and
        ACCOUNT pages (section 3.2)."""
        index, page_no = page
        if index == self.branch_teller.index:
            return self.home_node(min(page_no, self.total_branches - 1))
        if not self.config.cluster_branch_teller and index == 1:
            # TELLER pages: one page per branch (blocking factor 10).
            return self.home_node(min(page_no, self.total_branches - 1))
        if index == self.account.index:
            first_account = page_no * self.config.account_blocking_factor
            return self.home_node(self.branch_of_account(first_account))
        # HISTORY pages are never locked; route by embedded node id.
        return page_no >> 40
