"""Protocol-independent pieces of the group-communication layer.

This module holds the wire-format constants, the per-member
:class:`OrderingEngine` that turns an unordered stream of sequenced messages
into in-order deliveries (buffering out-of-order arrivals and reporting
gaps), the bookkeeping records for in-flight sends, and the one shared
record of each sequenced message (:class:`DeliveredMessage`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

# Message kinds used on the wire -------------------------------------------------

#: PB: sender -> sequencer, full data.
KIND_REQUEST = "grp.request"
#: Sequencer -> all, full data with assigned sequence number (PB path,
#: retransmissions, and new-sequencer announcements of reordered data).
KIND_DATA = "grp.data"
#: BB: sender -> all, full data without a sequence number yet.
KIND_BB_DATA = "grp.bbdata"
#: Sequencer -> all, short accept assigning a sequence number to a BB message.
KIND_ACCEPT = "grp.accept"
#: Member -> sequencer, request retransmission of a missing sequence number.
KIND_RETRANSMIT_REQ = "grp.retransmit_req"
#: Sequencer -> member, retransmitted data (unicast).
KIND_RETRANSMIT = "grp.retransmit"
#: Sequencer -> all, short idle-time heartbeat carrying the highest assigned
#: sequence number so members can detect a lost tail message.
KIND_SYNC = "grp.sync"
#: Election: candidate announcement.
KIND_ELECTION = "grp.election"
#: Election: the winner announces itself as the new sequencer.
KIND_COORDINATOR = "grp.coordinator"

#: Size, in bytes, of the short control messages (Accept, retransmit request,
#: election traffic).  The paper calls the Accept "a very short message".
CONTROL_MESSAGE_SIZE = 32


@dataclass(frozen=True)
class MessageId:
    """Globally unique id of one application broadcast: (origin node, counter)."""

    origin: int
    counter: int


@dataclass
class SendRecord:
    """Book-keeping for one broadcast this member has initiated."""

    uid: MessageId
    payload: Any
    size: int
    method: str  # "pb" or "bb"
    attempts: int = 0
    delivered: bool = False
    retry_timer: Optional[int] = None
    on_delivered: Optional[Callable[[int], None]] = None


@dataclass(frozen=True)
class DeliveredMessage:
    """One sequenced message: the group's single, immutable record of it.

    The sequencer builds it once, at sequencing, and every holder shares
    that object: the sequencer's history and loop-back, the DATA or
    RETRANSMIT message (as its payload), every member's ordering buffer and
    history, and the delivery handler.  Neither the record nor its payload
    may be mutated once sequenced.  A BB message gets its record at each
    member, where its data and its Accept meet.
    """

    # Declared by hand: ``dataclass(slots=True)`` needs Python 3.10.
    __slots__ = ("seqno", "origin", "uid", "payload", "size")

    seqno: int
    origin: int
    uid: MessageId
    payload: Any
    size: int


@dataclass
class OrderingEngine:
    """Turns sequenced-but-unordered arrivals into strict in-order delivery.

    The engine is purely local state: it never touches the network.  The
    owning :class:`~repro.amoeba.broadcast.group.GroupMember` feeds it with
    ``offer`` (data carrying a sequence number) and ``offer_accept`` /
    ``offer_bb_data`` (for the BB path where data and ordering arrive
    separately), and asks for deliverable messages plus the set of missing
    sequence numbers it should re-request.
    """

    #: Next sequence number to deliver to the application.
    next_expected: int = 1
    #: Sequenced messages waiting for their predecessors.
    _ordered_buffer: Dict[int, DeliveredMessage] = field(default_factory=dict)
    #: BB data received but not yet sequenced, keyed by uid.
    _unordered_data: Dict[MessageId, Tuple[Any, int]] = field(default_factory=dict)
    #: Accepts received whose data has not arrived yet: seqno -> uid.
    _pending_accepts: Dict[int, MessageId] = field(default_factory=dict)
    #: Sequence numbers already delivered (for duplicate suppression).
    delivered_count: int = 0
    #: Duplicates discarded.
    duplicates: int = 0
    #: Highest sequence number announced by the sequencer (sync heartbeats),
    #: which may exceed anything received so far if the tail was lost.
    announced_highest: int = 0

    # -- feeding ----------------------------------------------------------- #

    def offer(self, record: DeliveredMessage) -> None:
        """Offer a fully sequenced data message (PB data or a retransmission)."""
        seqno = record.seqno
        if seqno < self.next_expected or seqno in self._ordered_buffer:
            self.duplicates += 1
            return
        self._ordered_buffer[seqno] = record
        self._pending_accepts.pop(seqno, None)

    def take_in_order(self, record: DeliveredMessage) -> bool:
        """In-order fast path: if ``record`` is next and nothing is waiting,
        count it delivered (as ``offer`` + ``pop_deliverable`` would) and
        return True; otherwise change nothing and return False."""
        if record.seqno != self.next_expected or self._ordered_buffer or self._pending_accepts:
            return False
        self.next_expected += 1
        self.delivered_count += 1
        return True

    def offer_bb_data(self, origin: int, uid: MessageId, payload: Any, size: int) -> None:
        """Offer BB data that does not carry a sequence number yet."""
        # If the accept already arrived, the seqno is known; promote directly.
        for seqno, pending_uid in list(self._pending_accepts.items()):
            if pending_uid == uid:
                del self._pending_accepts[seqno]
                self.offer(DeliveredMessage(seqno, origin, uid, payload, size))
                return
        if uid not in self._unordered_data:
            self._unordered_data[uid] = (payload, size)
        else:
            self.duplicates += 1

    def offer_accept(self, seqno: int, origin: int, uid: MessageId) -> bool:
        """Offer an Accept for a BB message.

        Returns True if the corresponding data was already present (so the
        message is now sequenced), False if the data is still missing.
        """
        if seqno < self.next_expected or seqno in self._ordered_buffer:
            self.duplicates += 1
            return True
        if uid in self._unordered_data:
            payload, size = self._unordered_data.pop(uid)
            self.offer(DeliveredMessage(seqno, origin, uid, payload, size))
            return True
        self._pending_accepts[seqno] = uid
        return False

    # -- draining ---------------------------------------------------------- #

    def pop_deliverable(self) -> List[DeliveredMessage]:
        """Remove and return every message that can now be delivered in order."""
        out: List[DeliveredMessage] = []
        while self.next_expected in self._ordered_buffer:
            msg = self._ordered_buffer.pop(self.next_expected)
            out.append(msg)
            self.next_expected += 1
            self.delivered_count += 1
        return out

    def fast_forward(self, seqno: int) -> None:
        """Skip delivery forward so ``seqno`` is the next message delivered.

        Used by the rejoin catch-up: a recovered member is seeded with a
        state snapshot that already covers everything sequenced before its
        rejoin anchor, so the history before the anchor must never be
        delivered (it would double-apply against the snapshot).
        """
        if seqno <= self.next_expected:
            return
        for buffered in [s for s in self._ordered_buffer if s < seqno]:
            del self._ordered_buffer[buffered]
        for pending in [s for s in self._pending_accepts if s < seqno]:
            del self._pending_accepts[pending]
        self.next_expected = seqno

    def note_highest(self, seqno: int) -> None:
        """Record that sequence numbers up to ``seqno`` exist (sync heartbeat)."""
        if seqno > self.announced_highest:
            self.announced_highest = seqno

    def missing_seqnos(self) -> List[int]:
        """Sequence numbers up to the highest known that have not arrived."""
        highest = self.highest_known_seqno
        if highest < self.next_expected:
            return []
        return [
            seqno
            for seqno in range(self.next_expected, highest + 1)
            if seqno not in self._ordered_buffer
        ]

    @property
    def highest_known_seqno(self) -> int:
        """The largest sequence number this member has evidence of."""
        candidates = [self.next_expected - 1, self.announced_highest]
        if self._ordered_buffer:
            candidates.append(max(self._ordered_buffer))
        if self._pending_accepts:
            candidates.append(max(self._pending_accepts))
        return max(candidates)

    def buffered_messages(self) -> List[DeliveredMessage]:
        """Sequenced-but-undelivered messages (used for sequencer recovery)."""
        return list(self._ordered_buffer.values())
