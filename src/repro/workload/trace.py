"""Database trace format with reader and writer.

A trace consists of transactions of different types; for every
transaction, the transaction type and all database page references
with their access mode (read or write) are recorded (section 3.1).

The on-disk format is a plain text file:

.. code-block:: text

    # repro-trace v1
    files 13
    txn 3 0:17:r,0:18:r,5:2:w
    txn 0 2:100:r

i.e. one ``txn`` line per transaction carrying its type id and a
comma-separated list of ``file:page:mode`` references.
"""

from __future__ import annotations

import io
from typing import Dict, List, NamedTuple, Set, Tuple

__all__ = ["ReferencePool", "TraceReference", "TraceTransaction", "Trace"]


class TraceReference(NamedTuple):
    """One recorded page reference.

    References are shared: :func:`repro.workload.tracegen.generate_trace`
    and :meth:`Trace.read_from` intern them through a
    :class:`ReferencePool`, one object per ``(file_id, page_no,
    write)`` that many transactions hold.  A reference therefore must
    not be mutated (as a named tuple it cannot be); it hashes and
    compares by its fields.
    """

    file_id: int
    page_no: int
    write: bool


class ReferencePool(Dict[Tuple[int, int, bool], TraceReference]):
    """Interns trace references.

    ``pool[(file_id, page_no, write)]`` returns the pool's one
    :class:`TraceReference` for that key, creating it on first use; a
    hit is a plain dict lookup.  The paper-size trace holds about a
    million references but only tens of thousands of distinct ones.
    """

    __slots__ = ()

    def __missing__(self, key: Tuple[int, int, bool]) -> TraceReference:
        reference = self[key] = TraceReference._make(key)
        return reference


class TraceTransaction:
    """One recorded transaction."""

    __slots__ = ("type_id", "references")

    def __init__(self, type_id: int, references: List[TraceReference]):
        self.type_id = type_id
        self.references = references

    @property
    def is_update(self) -> bool:
        return any(ref.write for ref in self.references)

    def __len__(self) -> int:
        return len(self.references)


class Trace:
    """A complete trace with aggregate statistics."""

    def __init__(self, transactions: List[TraceTransaction], num_files: int):
        if num_files < 1:
            raise ValueError("num_files must be >= 1")
        self.transactions = transactions
        self.num_files = num_files

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self):
        return iter(self.transactions)

    # -- aggregate statistics (the numbers the paper reports) ------------

    def num_references(self) -> int:
        return sum(len(txn) for txn in self.transactions)

    def mean_references(self) -> float:
        return self.num_references() / len(self.transactions) if self.transactions else 0.0

    def max_references(self) -> int:
        return max((len(txn) for txn in self.transactions), default=0)

    def num_types(self) -> int:
        return len({txn.type_id for txn in self.transactions})

    def distinct_pages(self) -> int:
        pages: Set[Tuple[int, int]] = set()
        for txn in self.transactions:
            for ref in txn.references:
                pages.add((ref.file_id, ref.page_no))
        return len(pages)

    def write_reference_fraction(self) -> float:
        total = self.num_references()
        if not total:
            return 0.0
        writes = sum(
            1 for txn in self.transactions for ref in txn.references if ref.write
        )
        return writes / total

    def update_transaction_fraction(self) -> float:
        if not self.transactions:
            return 0.0
        return sum(1 for txn in self.transactions if txn.is_update) / len(
            self.transactions
        )

    def pages_per_file(self) -> Dict[int, int]:
        """Highest referenced page number per file (file extent proxy)."""
        extents: Dict[int, int] = {}
        for txn in self.transactions:
            for ref in txn.references:
                extents[ref.file_id] = max(extents.get(ref.file_id, 0), ref.page_no)
        return extents

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            self.write_to(fh)

    def write_to(self, fh: io.TextIOBase) -> None:
        fh.write("# repro-trace v1\n")
        fh.write(f"files {self.num_files}\n")
        for txn in self.transactions:
            refs = ",".join(
                f"{r.file_id}:{r.page_no}:{'w' if r.write else 'r'}"
                for r in txn.references
            )
            fh.write(f"txn {txn.type_id} {refs}\n")

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path, "r", encoding="ascii") as fh:
            return cls.read_from(fh)

    @classmethod
    def read_from(cls, fh: io.TextIOBase) -> "Trace":
        header = fh.readline()
        if not header.startswith("# repro-trace"):
            raise ValueError("not a repro trace file")
        files_line = fh.readline().split()
        if len(files_line) != 2 or files_line[0] != "files":
            raise ValueError("malformed trace header")
        num_files = int(files_line[1])
        transactions: List[TraceTransaction] = []
        pool = ReferencePool()
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(" ", 2)
            if parts[0] != "txn" or len(parts) < 2:
                raise ValueError(f"malformed trace line: {line!r}")
            type_id = int(parts[1])
            references: List[TraceReference] = []
            if len(parts) == 3 and parts[2]:
                for token in parts[2].split(","):
                    file_id, page_no, mode = token.split(":")
                    if mode not in ("r", "w"):
                        raise ValueError(f"bad access mode in {token!r}")
                    references.append(pool[(int(file_id), int(page_no), mode == "w")])
            transactions.append(TraceTransaction(type_id, references))
        return cls(transactions, num_files)
