"""The sequencer: assigns the global total order and answers retransmissions.

One node of the broadcast group acts as the sequencer ("like a committee
electing a chairman").  For the PB protocol it receives the full data from
the sender and broadcasts it with the next sequence number; for the BB
protocol it observes the sender's own broadcast and broadcasts a short
Accept.  All sequenced messages are retained in a bounded *history buffer*
from which missing messages are retransmitted point-to-point on request.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Any, Deque, Dict, Optional, Tuple

from .protocol import (
    CONTROL_MESSAGE_SIZE,
    KIND_ACCEPT,
    KIND_DATA,
    KIND_RETRANSMIT,
    KIND_SYNC,
    DeliveredMessage,
    MessageId,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..node import Node
    from .group import BroadcastGroup


class Sequencer:
    """Sequencer state machine, hosted on one node of the group."""

    def __init__(self, group: "BroadcastGroup", node: "Node") -> None:
        self.group = group
        self.node = node
        self.next_seq = 1
        self.history_size = group.params.history_size
        self._history: "OrderedDict[int, DeliveredMessage]" = OrderedDict()
        #: uid -> seqno, for duplicate suppression when senders retry.
        self._assigned: Dict[MessageId, int] = {}
        self.requests_handled = 0
        self.retransmissions = 0
        self.duplicates_suppressed = 0
        self.sync_broadcasts = 0
        #: FIFO of sequenced messages awaiting their ordered (re)broadcast:
        #: the sequencer is a queueing server with ``sequencing_cost`` service
        #: time per message, which is what gives a lone sequencer a hard
        #: throughput ceiling (and sharding something real to break).
        self._service_queue: Deque[Tuple[DeliveredMessage, bool]] = deque()
        self._service_timer: Optional[int] = None
        self.max_queue_depth = 0
        self._sync_timer: Optional[int] = None
        self._sync_remaining = 0
        #: Number of idle-time sync heartbeats sent after the last sequenced
        #: message (bounded so the simulation's event queue can drain).
        self.sync_repeats = 5

    # ------------------------------------------------------------------ #
    # Sequencing
    # ------------------------------------------------------------------ #

    def handle_pb_request(self, origin: int, uid: MessageId, payload: Any, size: int) -> None:
        """PB path: sender shipped us the data point-to-point; order and broadcast it."""
        self.requests_handled += 1
        existing = self._assigned.get(uid)
        if existing is not None:
            # A retry of a message we already sequenced: rebroadcast the data
            # so whoever missed it (including possibly the sender) catches up.
            self.duplicates_suppressed += 1
            entry = self._history.get(existing)
            if entry is not None:
                self._dispatch_broadcast(entry, accept=False)
            return
        entry = self._record(origin, uid, payload, size)
        self._dispatch_broadcast(entry, accept=False)

    def handle_bb_data(self, origin: int, uid: MessageId, payload: Any, size: int) -> None:
        """BB path: the data was broadcast by the sender; assign a number and Accept it."""
        self.requests_handled += 1
        existing = self._assigned.get(uid)
        if existing is not None:
            self.duplicates_suppressed += 1
            entry = self._history.get(existing)
            if entry is not None:
                self._dispatch_broadcast(entry, accept=True)
            return
        entry = self._record(origin, uid, payload, size)
        self._dispatch_broadcast(entry, accept=True)

    # ------------------------------------------------------------------ #
    # Service queue (the sequencer's own processing capacity)
    # ------------------------------------------------------------------ #

    def _dispatch_broadcast(self, entry: DeliveredMessage, accept: bool) -> None:
        """Send — or queue — the ordered (re)broadcast of ``entry``.

        With ``sequencing_cost`` at 0 (the calibrated default) the broadcast
        leaves immediately.  Otherwise sequence numbers are still assigned
        at arrival (the order is fixed), but the broadcast leaves only
        after the sequencer has *worked* on the message for
        ``sequencing_cost`` virtual seconds; messages arriving faster than
        that rate queue up — the single-sequencer throughput ceiling the
        sharding layer exists to break.

        The same ``sequencing_cost`` is also charged to the node as CPU
        overhead (see :meth:`_record`): one unit of ordering work both
        delays the message pipeline *and* steals CPU from co-located
        application processes.  That approximates a single CPU shared by
        the protocol and the applications without a full scheduler model;
        it is applied identically at every shard count, so cross-shard
        comparisons remain apples-to-apples.
        """
        if self.node.cost_model.cpu.sequencing_cost <= 0.0:
            if accept:
                self._broadcast_accept(entry)
            else:
                self._broadcast_data(entry)
            return
        self._service_queue.append((entry, accept))
        depth = len(self._service_queue)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        if self._service_timer is None:
            self._service_timer = self.node.kernel.set_timer(
                self.node.cost_model.cpu.sequencing_cost, self._serve_next
            )

    def retire(self) -> None:
        """Stop serving: another sequencer has taken over this group.

        A dethroned-but-alive sequencer must not keep broadcasting queued
        entries — their sequence numbers get reassigned by the successor,
        and two payloads under one seqno would break total order.  Senders
        whose messages die with the queue recover through their own
        retries against the new sequencer.
        """
        if self._service_timer is not None:
            self.node.kernel.cancel_timer(self._service_timer)
            self._service_timer = None
        self._service_queue.clear()
        if self._sync_timer is not None:
            self.node.kernel.cancel_timer(self._sync_timer)
            self._sync_timer = None

    def _serve_next(self) -> None:
        self._service_timer = None
        if self.group.sequencer is not self:
            # Superseded while the timer was in flight.
            self._service_queue.clear()
            return
        if self._service_queue:
            entry, accept = self._service_queue.popleft()
            if accept:
                self._broadcast_accept(entry)
            else:
                self._broadcast_data(entry)
        # The broadcast's local delivery can re-enter _enqueue_broadcast
        # (e.g. a batcher flushing on delivery), which may have re-armed the
        # service timer already.
        if self._service_queue and self._service_timer is None:
            self._service_timer = self.node.kernel.set_timer(
                self.node.cost_model.cpu.sequencing_cost, self._serve_next
            )

    def _record(self, origin: int, uid: MessageId, payload: Any, size: int) -> DeliveredMessage:
        seqno = self.next_seq
        self.next_seq += 1
        entry = DeliveredMessage(seqno, origin, uid, payload, size)
        self._assigned[uid] = seqno
        self._history[seqno] = entry
        while len(self._history) > self.history_size:
            old_seq, old_entry = self._history.popitem(last=False)
            self._assigned.pop(old_entry.uid, None)
        # Charge the sequencer CPU for ordering work beyond the plain receive:
        # number assignment, history-buffer retention, flow control.  Under
        # the queueing model (sequencing_cost > 0) this is the service time
        # that makes a lone sequencer the cluster-wide write ceiling (and
        # what sharding over several groups spreads out).
        cpu = self.node.cost_model.cpu
        self.node.charge_overhead(
            cpu.sequencing_cost if cpu.sequencing_cost > 0.0 else cpu.operation_dispatch_cost
        )
        self._arm_sync()
        return entry

    # ------------------------------------------------------------------ #
    # Idle-time sync heartbeats (tail-loss recovery)
    # ------------------------------------------------------------------ #

    def _arm_sync(self) -> None:
        """(Re)start the bounded heartbeat sequence after sequencing activity.

        Heartbeats exist only to heal *tail* losses (a member missing the very
        last broadcast would otherwise never learn about it), so they are
        suppressed entirely on loss-free networks — this keeps the PB/BB
        bandwidth and interrupt counts exactly as the paper describes them.
        """
        if self.group.cluster.cost_model.network.loss_rate <= 0.0:
            return
        self._sync_remaining = self.sync_repeats
        if self._sync_timer is not None:
            self.node.kernel.cancel_timer(self._sync_timer)
        self._sync_timer = self.node.kernel.set_timer(self.group.retry_timeout, self._send_sync)

    def _send_sync(self) -> None:
        self._sync_timer = None
        if self.highest_assigned <= 0 or self.group.sequencer is not self:
            return
        self.sync_broadcasts += 1
        msg = self.node.make_message(
            None,
            self.group.wire_kind(KIND_SYNC),
            size=CONTROL_MESSAGE_SIZE,
            seqno=self.highest_assigned,
        )
        self.node.send(msg)
        self._sync_remaining -= 1
        if self._sync_remaining > 0:
            self._sync_timer = self.node.kernel.set_timer(self.group.retry_timeout, self._send_sync)

    # ------------------------------------------------------------------ #
    # Outgoing traffic
    # ------------------------------------------------------------------ #

    def _broadcast_data(self, entry: DeliveredMessage) -> None:
        self.group.send_record(self.node, None, KIND_DATA, entry)
        # Hardware broadcast does not loop back; deliver to the local member directly.
        self.group.member(self.node.node_id).receive_sequenced(entry)

    def _broadcast_accept(self, entry: DeliveredMessage) -> None:
        msg = self.node.make_message(
            None,
            self.group.wire_kind(KIND_ACCEPT),
            payload=None,
            size=CONTROL_MESSAGE_SIZE,
            seqno=entry.seqno,
            origin=entry.origin,
            uid=(entry.uid.origin, entry.uid.counter),
        )
        self.node.send(msg)
        self.group.member(self.node.node_id).receive_sequenced(entry)

    def handle_retransmit_request(self, requester: int, seqno: int) -> bool:
        """Unicast a missing message back to the member that asked for it.

        Returns True when the request was served from the history buffer,
        False when the message fell outside the (bounded) window — in which
        case a broadcast gap request can still be answered by an ordinary
        member's delivered history.
        """
        entry = self._history.get(seqno)
        if entry is None:
            # Outside the history window; nothing *we* can do (the paper's
            # protocol bounds the window by flow control).
            return False
        # Someone is lagging: keep heartbeating so further tail losses heal.
        self._arm_sync()
        self.retransmissions += 1
        self.group.send_record(self.node, requester, KIND_RETRANSMIT, entry)
        return True

    # ------------------------------------------------------------------ #
    # Election support
    # ------------------------------------------------------------------ #

    def adopt_state(self, next_seq: int) -> None:
        """Called on a newly elected sequencer to continue the numbering."""
        self.next_seq = max(self.next_seq, next_seq)

    def adopt_history(self, entries) -> None:
        """Seed the history buffer from the winning member's local state.

        Installed after an election so retransmit requests for messages the
        *old* sequencer ordered can still be answered.  Also re-primes
        duplicate suppression: a sender retrying a message that was already
        sequenced gets the original sequence number rebroadcast instead of a
        second one.
        """
        for entry in sorted(entries, key=lambda e: e.seqno):
            self._history[entry.seqno] = entry
            self._assigned[entry.uid] = entry.seqno
            self.next_seq = max(self.next_seq, entry.seqno + 1)
        while len(self._history) > self.history_size:
            _, old_entry = self._history.popitem(last=False)
            self._assigned.pop(old_entry.uid, None)
        if self._history:
            self._arm_sync()

    @property
    def queue_depth(self) -> int:
        """Messages currently waiting for ordering service.

        Exported (with :attr:`max_queue_depth`, the high-water mark) as the
        load signal that batch-aware flow control and the shard-rebalancing
        planner read: a deep queue means this sequencer is the shard the
        senders should back off from — and the shard the rebalancer should
        move objects away from.
        """
        return len(self._service_queue)

    @property
    def highest_assigned(self) -> int:
        return self.next_seq - 1

    def history_entries(self) -> Dict[int, DeliveredMessage]:
        """A copy of the current history (used by tests and state transfer)."""
        return dict(self._history)
