"""Typed wire formats of the inter-node protocol messages.

Every payload travelling through :class:`repro.node.comm.Message` is a
plain dict (messages must stay cheap and the simulator never
serializes them), but each message kind has a fixed shape.  The
:class:`~typing.TypedDict` declarations below are that shape: they are
used at the construction sites so that a field rename or type change
in one protocol surfaces as a type error instead of a ``KeyError`` in
a handler at simulation time.

Handlers receive ``Mapping[str, Any]`` (a handler registered for one
kind only ever sees that kind's payload; the mapping type keeps the
:class:`MessageHandler` protocol uniform across kinds).
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Generator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
    TYPE_CHECKING,
    TypedDict,
)

from repro.db.pages import PageId
from repro.node.lock_table import LockMode
from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.node.node import Node

__all__ = [
    "MessageHandler",
    "WireFormat",
    "WIRE_FORMATS",
    "LockRequestPayload",
    "LockResponsePayload",
    "ReleasePayload",
    "RevokePayload",
    "AckPayload",
    "PageRequestPayload",
    "PageResponsePayload",
    "GltRevokePayload",
    "GlaTransferPayload",
    "TimestampRequestPayload",
    "TimestampResponsePayload",
    "MvccReadPayload",
    "MvccReadResponsePayload",
    "MvccReservePayload",
    "MvccValidatePayload",
    "MvccInstallPayload",
    "MvccAbortPayload",
    "DgccJoinPayload",
    "DgccDonePayload",
    "DgccSchedPayload",
]


class MessageHandler(Protocol):
    """A registered consumer of one message kind (runs as a process)."""

    def __call__(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]: ...


# -- primary copy locking (PCL) ----------------------------------------


class LockRequestPayload(TypedDict):
    """``lock_req``: remote lock acquisition at the page's GLA."""

    txn_id: int
    page: PageId
    mode: LockMode
    home: int
    #: Version of the requester's buffered copy (None: not cached);
    #: lets the GLA decide whether to ship the page with the grant.
    cached_version: Optional[int]
    requester: int
    reply: Event


class LockResponsePayload(TypedDict, total=False):
    """``lock_rsp``: grant (seqno/supplied/auth) or abort notice."""

    aborted: bool
    seqno: int
    #: The current page version travels with this (long) message.
    supplied: bool
    #: A local read authorization was granted alongside the S lock.
    auth: bool


class ReleasePayload(TypedDict):
    """``release``: locks of one transaction returned to the GLA."""

    txn_id: int
    #: ``(page, new_version)`` pairs; the version is None unless the
    #: release publishes a committed update (NOFORCE page carry).
    pages: List[Tuple[PageId, Optional[int]]]
    #: True when modified pages ride along (makes the message long).
    carry_pages: bool
    home: int


class RevokePayload(TypedDict):
    """``revoke``: GLA tells a node to drop a read authorization."""

    page: PageId
    ack: Event
    gla: int


class AckPayload(TypedDict):
    """``revoke_ack`` / ``glt_revoke_ack``: empty acknowledgement."""


# -- GEM locking --------------------------------------------------------


class PageRequestPayload(TypedDict):
    """``page_req``: fetch a dirty page from its owner's buffer."""

    page: PageId
    reply: Event
    requester: int


class PageResponsePayload(TypedDict):
    """``page_rsp``: the owner's buffered version (None: lapsed)."""

    version: Optional[int]


class GltRevokePayload(TypedDict):
    """``glt_revoke``: revoke a node's GLT lock authorization."""

    page: PageId
    ack: Event
    requester: int


# -- multi-version CC (MVCC, loose coupling) ---------------------------
#
# The requester side of every round trip goes through the substrate's
# watched call (Partitions.call); payloads are built in mvcc.py.


class TimestampRequestPayload(TypedDict):
    """``mv_ts``: draw a begin/commit timestamp from the authority."""

    txn_id: int
    #: Commit timestamps are published centrally at allocation time so
    #: concurrent validators order themselves against this transaction
    #: before the reply even arrives back; begin timestamps are not.
    commit: bool
    requester: int
    reply: Event


class TimestampResponsePayload(TypedDict):
    """``mv_ts_rsp``: the drawn timestamp."""

    ts: int


class MvccReadPayload(TypedDict):
    """``mv_read``: version-directory lookup at the page's home GLA."""

    page: PageId
    home: int
    requester: int
    reply: Event


class MvccReadResponsePayload(TypedDict, total=False):
    """``mv_read_rsp``: snapshot seqno; the page itself rides along
    (long message) when the GLA buffers the current dirty copy."""

    seqno: int
    supplied: bool


class MvccReservePayload(TypedDict):
    """``mv_reserve``: first-writer-wins write reservation at the home
    GLA; answered with a :class:`LockResponsePayload`."""

    txn_id: int
    page: PageId
    home: int
    #: Version of the requester's buffered copy (None: not cached).
    cached_version: Optional[int]
    requester: int
    reply: Event


class MvccValidatePayload(TypedDict):
    """``mv_validate``: commit validation of the read-set slice homed
    at one GLA (answered with an empty short reply)."""

    txn_id: int
    #: ``(page, version-read)`` pairs homed at ``home``.
    pages: List[Tuple[PageId, int]]
    home: int
    requester: int
    reply: Event


class MvccInstallPayload(TypedDict):
    """``mv_install``: committed versions installed at their home GLA
    (the modified pages ride along under NOFORCE)."""

    txn_id: int
    pages: List[Tuple[PageId, int]]
    #: True when modified pages ride along (makes the message long).
    carry_pages: bool
    home: int
    requester: int
    #: Succeeds back at the committer once the install is applied
    #: (keeps commit completion ordered after directory publication).
    ack: Event


class MvccAbortPayload(TypedDict):
    """``mv_abort``: clear an aborting transaction's write reservations
    homed at one GLA."""

    txn_id: int
    pages: List[PageId]
    home: int


# -- dependency-graph CC (DGCC) ----------------------------------------


class DgccJoinPayload(TypedDict):
    """``dgcc_join``: ship a transaction's access set to the batch
    scheduler (long message -- it carries the full read/write set)."""

    txn_id: int
    #: ``(page, is-write)`` pairs (the strongest mode per page).
    accesses: List[Tuple[PageId, bool]]
    requester: int


class DgccDonePayload(TypedDict):
    """``dgcc_done``: batch-member completion report to the scheduler."""

    txn_id: int
    committed: bool


class DgccSchedPayload(TypedDict):
    """``dgcc_sched``: schedule publication broadcast to batch members
    (delivery-confirmed via the reply event; the batch number lets a
    member sanity-check it is acting on the current schedule)."""

    batch: int


# -- fault handling ----------------------------------------------------


class GlaTransferPayload(TypedDict):
    """``gla_failover`` / ``gla_state`` / ``gla_failback``: GLA
    partition hand-over during failover and failback
    (:class:`~repro.cc.partitions.Partitions`)."""

    home: int


# -- the wire-format declaration ----------------------------------------


class WireFormat(NamedTuple):
    """One declared message kind: payload shape + expected receivers.

    ``handled_by`` names the protocol classes that must register a
    handler for the kind (empty: the message is delivered into a
    ``reply_event`` and never reaches the dispatcher).  ``simlint``'s
    MSG rules read this mapping from the AST and cross-check every
    ``send`` payload and ``register_handler`` call against it; keep it
    exhaustive -- an undeclared kind is a lint error at the send site.
    """

    payload: type
    handled_by: Tuple[str, ...]


WIRE_FORMATS: Dict[str, WireFormat] = {
    # primary copy locking
    "lock_req": WireFormat(LockRequestPayload, ("PrimaryCopyProtocol",)),
    "lock_rsp": WireFormat(LockResponsePayload, ()),
    "release": WireFormat(ReleasePayload, ("PrimaryCopyProtocol",)),
    "revoke": WireFormat(RevokePayload, ("PrimaryCopyProtocol",)),
    "revoke_ack": WireFormat(AckPayload, ()),
    # NOFORCE page transfer from the owner's buffer (every coupling
    # substrate registers the handler; used by the protocols whose
    # grants name page owners)
    "page_req": WireFormat(PageRequestPayload, ("PageOwners",)),
    "page_rsp": WireFormat(PageResponsePayload, ()),
    # GEM lock authorizations (2PL against the shared store)
    "glt_revoke": WireFormat(GltRevokePayload, ("StoreLockingProtocol",)),
    "glt_revoke_ack": WireFormat(AckPayload, ()),
    # MVCC
    "mv_ts": WireFormat(TimestampRequestPayload, ("MvccProtocol",)),
    "mv_ts_rsp": WireFormat(TimestampResponsePayload, ()),
    "mv_read": WireFormat(MvccReadPayload, ("MvccProtocol",)),
    "mv_read_rsp": WireFormat(MvccReadResponsePayload, ()),
    "mv_reserve": WireFormat(MvccReservePayload, ("MvccProtocol",)),
    "mv_rsp": WireFormat(LockResponsePayload, ()),
    "mv_validate": WireFormat(MvccValidatePayload, ("MvccProtocol",)),
    "mv_validate_rsp": WireFormat(AckPayload, ()),
    "mv_install": WireFormat(MvccInstallPayload, ("MvccProtocol",)),
    "mv_install_ack": WireFormat(AckPayload, ()),
    "mv_abort": WireFormat(MvccAbortPayload, ("MvccProtocol",)),
    # DGCC
    "dgcc_join": WireFormat(DgccJoinPayload, ("DgccProtocol",)),
    "dgcc_done": WireFormat(DgccDonePayload, ("DgccProtocol",)),
    "dgcc_sched": WireFormat(DgccSchedPayload, ()),
    # fault handling: GLA partition failover and failback, sent by the
    # loose-coupling substrate (Partitions) for every PCL protocol;
    # delivery-confirmed, so no handler receives them
    "gla_failover": WireFormat(GlaTransferPayload, ()),
    "gla_state": WireFormat(GlaTransferPayload, ()),
    "gla_failback": WireFormat(GlaTransferPayload, ()),
}
