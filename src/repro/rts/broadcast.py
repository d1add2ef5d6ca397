"""The broadcast mechanism: replicas everywhere, writes as ordered operations.

:class:`BroadcastPath` serves reads from the local replica and ships
writes — operation name plus parameters, optionally combined by a
:class:`_WriteBatcher` — through the object's shard order, where every
member applies them in the same order.  It owns the ``create``, ``op`` and
``batch`` record kinds and the per-member deferral of writes that outran
their epoch's switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..amoeba.message import estimate_size
from ..errors import RtsError
from .object_model import RETRY
from .policy import MECHANISM_BROADCAST
from .sharding import BatchingParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.broadcast.group import BroadcastGroup
    from ..amoeba.broadcast.protocol import DeliveredMessage
    from ..amoeba.node import Node
    from ..sim.process import SimProcess
    from .base import ObjectHandle
    from .hybrid import HybridRts

#: Sentinel returned by a mechanism path when the object's policy changed
#: under the invocation; the unified dispatch loop re-routes the operation.
MIGRATED = object()


@dataclass
class _PendingWrite:
    """An invocation waiting for its own broadcast to come back.

    Ordinary writes also record which object/epoch they were issued under so
    a policy switch can release them early (see ``_finish_switch_delivery``).
    """

    proc: "SimProcess"
    resolved: bool = False
    obj_id: Optional[int] = None
    origin: Optional[int] = None
    epoch: int = 0


class _WriteBatcher:
    """Per-(node, shard) write combining onto the ordered broadcast.

    Writes enqueue here instead of broadcasting individually.  A batch is
    flushed when it reaches ``max_batch`` operations, when ``flush_delay``
    expires, or — with a zero delay — immediately while no batch is in
    flight.  Only one batch per (node, shard) is outstanding at a time:
    writes arriving while it is on the wire coalesce into the next batch,
    which both preserves per-node FIFO order and yields the group-commit
    effect that amortises the sequencer round trip under contention.

    With ``backpressure_depth`` set, the batcher also implements batch-aware
    flow control: while the shard sequencer's service queue is at least that
    deep, a ready batch is *held* (and keeps coalescing) instead of adding
    to the overload, so the sender backs off before its unanswered sends
    could escalate into retries and a spurious election.  The hold is
    re-evaluated after roughly the time the queue needs to drain back under
    the threshold, and a batch that has grown to ``4 * max_batch`` entries
    flushes unconditionally, bounding the held writes' latency.  (In the
    simulator the sender reads the queue depth directly; a real cluster
    would piggyback it on the sequencer's ordered broadcasts.)
    """

    def __init__(self, rts: "HybridRts", node: "Node",
                 group: "BroadcastGroup", shard: int,
                 params: BatchingParams) -> None:
        self.rts = rts
        self.node = node
        self.group = group
        self.shard = shard
        self.params = params
        self._entries: List[Tuple[Any, ...]] = []
        self._bytes = 0
        self._in_flight = False
        self._timer: Optional[int] = None
        self._backoff_timer: Optional[int] = None

    def enqueue(self, entry: Tuple[Any, ...], size: int) -> None:
        self._entries.append(entry)
        self._bytes += size
        self._maybe_flush()

    def on_batch_delivered(self) -> None:
        self._in_flight = False
        self._maybe_flush()

    def cancel_timers(self) -> None:
        kernel = self.node.kernel
        if self._timer is not None:
            kernel.cancel_timer(self._timer)
        if self._backoff_timer is not None:
            kernel.cancel_timer(self._backoff_timer)

    def _backpressured(self) -> bool:
        """Should a ready batch be held back for the loaded sequencer?"""
        depth = self.params.backpressure_depth
        if depth is None:
            return False
        if len(self._entries) >= 4 * self.params.max_batch:
            return False  # hard cap: flush regardless of load
        return self.group.sequencer.queue_depth >= depth

    def _hold(self) -> None:
        """Re-check once the sequencer had time to work the queue down."""
        if self._backoff_timer is not None:
            return
        self.rts.stats.flow_control_holds += 1
        service = self.node.cost_model.cpu.sequencing_cost
        delay = max(self.params.flush_delay,
                    service * self.params.backpressure_depth)
        self._backoff_timer = self.node.kernel.set_timer(
            delay, self._on_backoff)

    def _on_backoff(self) -> None:
        self._backoff_timer = None
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if self._in_flight or not self._entries:
            return
        if (len(self._entries) >= self.params.max_batch
                or self.params.flush_delay <= 0.0):
            if self._backpressured():
                self._hold()
                return
            self._flush()
        elif self._timer is None:
            self._timer = self.node.kernel.set_timer(
                self.params.flush_delay, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        if self._in_flight or not self._entries:
            return
        if self._backpressured():
            self._hold()
            return
        self._flush()

    def _flush(self) -> None:
        if self._timer is not None:
            self.node.kernel.cancel_timer(self._timer)
            self._timer = None
        entries, self._entries = self._entries, []
        size, self._bytes = self._bytes, 0
        self._in_flight = True
        self.rts.stats.batches_sent += 1
        self.rts.router.shard_stats[self.shard].note_batch(len(entries))
        self.group.member(self.node.node_id).broadcast(
            ("batch", entries), size=max(16, size) + 8)


class BroadcastPath:
    """Reads local, writes through the object's ordered shard broadcast."""

    def __init__(self, rts: "HybridRts") -> None:
        self.rts = rts
        self.batchers: Dict[Tuple[int, int], _WriteBatcher] = {}
        #: (node_id, obj_id) -> [SimProcess, ...] waiting for a local replica.
        self.replica_waiters: Dict[Tuple[int, int], List["SimProcess"]] = {}
        #: (node_id, obj_id) -> destination-group writes that outran the
        #: member's delivery of the source-group shard switch; applied, in
        #: destination order, the moment the local switch lands (the
        #: cross-group barrier of a shard move).
        self.future_writes: Dict[Tuple[int, int], List[Tuple[Any, ...]]] = {}
        rts.register_delivery("create", self._deliver_create)
        rts.register_delivery("op", self._deliver_op)
        rts.register_delivery("batch", self._deliver_batch)

    def _batcher(self, node: "Node", shard: int) -> _WriteBatcher:
        key = (node.node_id, shard)
        batcher = self.batchers.get(key)
        if batcher is None:
            rts = self.rts
            batcher = _WriteBatcher(rts, node, rts.router.group_for(shard),
                                    shard, rts.batching)
            self.batchers[key] = batcher
        return batcher

    def forget_node(self, node_id: int) -> None:
        """A recovered machine's deferred writes and batchers died with it."""
        for key in [k for k in self.future_writes if k[0] == node_id]:
            del self.future_writes[key]
        for key in [k for k in self.batchers if k[0] == node_id]:
            self.batchers.pop(key).cancel_timers()

    # -- client side ------------------------------------------------------ #

    def create(self, proc: "SimProcess", node: "Node", handle: "ObjectHandle",
               spec_class, args: Tuple[Any, ...],
               kwargs: Optional[Dict[str, Any]]) -> None:
        """Replicate the new object on every machine via ordered broadcast."""
        rts = self.rts
        shard = rts.router.note_create(handle.obj_id, handle.name)
        invocation_id = next(rts._invocation_ids)
        rts._pending[invocation_id] = _PendingWrite(proc=proc)
        payload = ("create", handle.obj_id, spec_class, args, kwargs or {},
                   invocation_id)
        size = max(32, estimate_size(args) + estimate_size(kwargs or {}))
        proc.advance(rts.cost_model.cpu.operation_dispatch_cost)
        proc.absorb_overhead(node.drain_overhead())
        proc.flush()
        rts.router.group_for(shard).member(node.node_id).broadcast(
            payload, size=size)
        proc.suspend()
        rts._pending.pop(invocation_id, None)

    def read(self, proc: "SimProcess", node: "Node", handle: "ObjectHandle",
             op, args, kwargs) -> Any:
        rts = self.rts
        manager = rts.managers[node.node_id]
        if not manager.has_valid_copy(handle.obj_id):
            self.await_replica(proc, node.node_id, handle.obj_id)
        proc.absorb_overhead(node.drain_overhead())
        while True:
            result = manager.execute_read(handle.obj_id, op, args, kwargs)
            if result is not RETRY:
                break
            rts.stats.guard_retries += 1
            self.wait_for_change(proc, node.node_id, handle.obj_id)
        rts.stats.note_read(handle.obj_id, local=True)
        rts.history.record_read(proc.name, node.node_id, handle.obj_id,
                                op.name, args, result,
                                manager.get(handle.obj_id).version)
        return result

    def write(self, proc: "SimProcess", node: "Node", handle: "ObjectHandle",
              op, args, kwargs) -> Any:
        """Broadcast the write (directly or batched) and await local apply."""
        rts = self.rts
        manager = rts.managers[node.node_id]
        obj_id = handle.obj_id
        while True:
            # Capture the epoch *before* confirming the mechanism: a stamp
            # can only ever be stale-old, and a stale-old write sequenced
            # after the switch is dropped and re-issued.  (Reading the epoch
            # afterwards could stamp a post-switch epoch onto a write that
            # bypasses the new primary protocol.)  The epoch and the route
            # are read back to back — no suspension between them — so a
            # write is always broadcast in the group that matches its stamp;
            # a shard move between loop iterations simply re-routes the
            # retry to the destination order.
            epoch = rts._epoch_by_obj.get(obj_id, 0)
            shard = rts.shard_of(handle)
            group = rts.router.group_for(shard)
            if rts._mechanism_of(obj_id) != MECHANISM_BROADCAST:
                return MIGRATED
            if not manager.has_valid_copy(obj_id):
                self.await_replica(proc, node.node_id, obj_id)
                continue
            invocation_id = next(rts._invocation_ids)
            size = max(16, estimate_size(args) + estimate_size(kwargs or {}) + 16)
            proc.absorb_overhead(node.drain_overhead())
            proc.flush()
            rts.stats.broadcast_writes += 1
            # The pending entry is registered only after the (possibly
            # blocking) flush above: a policy switch may resolve pending
            # writes of this object early, and that wake must never race a
            # wait the process is parked in for some other reason.
            pending = _PendingWrite(proc=proc, obj_id=obj_id,
                                    origin=node.node_id, epoch=epoch)
            rts._pending[invocation_id] = pending
            if rts.batching is not None:
                entry = (obj_id, op.name, args, kwargs or {}, invocation_id,
                         epoch)
                self._batcher(node, shard).enqueue(entry, size)
            else:
                payload = ("op", obj_id, op.name, args, kwargs or {},
                           invocation_id, epoch)
                group.member(node.node_id).broadcast(payload, size=size)
            result = proc.suspend()
            rts._pending.pop(invocation_id, None)
            proc.absorb_overhead(node.drain_overhead())
            if result is MIGRATED:
                return MIGRATED
            if result is not RETRY:
                return result
            # Guard rejected the operation everywhere; wait and retry.
            rts.stats.guard_retries += 1
            self.wait_for_change(proc, node.node_id, obj_id)

    # -- blocking helpers ------------------------------------------------ #

    def await_replica(self, proc: "SimProcess", node_id: int, obj_id: int) -> None:
        """Block until this node holds a replica of ``obj_id``."""
        self.replica_waiters.setdefault((node_id, obj_id), []).append(proc)
        proc.suspend()

    def wake_replica_waiters(self, node_id: int, obj_id: int) -> None:
        for proc in self.replica_waiters.pop((node_id, obj_id), []):
            proc.wake()

    def wait_for_change(self, proc: "SimProcess", node_id: int, obj_id: int) -> None:
        """Block until the local replica of ``obj_id`` is modified."""
        replica = self.rts.managers[node_id].get(obj_id)
        replica.on_next_change(lambda: proc.wake())
        proc.suspend()

    # -- delivery (runs at every member, in per-shard total order) ------- #

    def _deliver_create(self, node_id: int, shard: int,
                        delivered: "DeliveredMessage") -> None:
        rts = self.rts
        _, obj_id, spec_class, args, kwargs, invocation_id = delivered.payload
        manager = rts.managers[node_id]
        if not manager.has_valid_copy(obj_id):
            instance = spec_class.create(args, kwargs)
            manager.install(obj_id, rts.handle(obj_id).name, instance)
            rts.stats.replicas_created += 1
        rts.cluster.node(node_id).charge_overhead(
            rts.cost_model.cpu.operation_dispatch_cost)
        self.wake_replica_waiters(node_id, obj_id)
        if delivered.origin == node_id:
            rts._resolve(invocation_id, None)

    def _deliver_op(self, node_id: int, shard: int,
                    delivered: "DeliveredMessage") -> None:
        _, obj_id, op_name, args, kwargs, invocation_id, epoch = delivered.payload
        rts = self.rts
        self.apply_one(node_id, rts.managers[node_id], rts.cluster.node(node_id),
                       obj_id, op_name, args, kwargs, invocation_id, epoch,
                       delivered.origin, delivered.seqno)

    def _deliver_batch(self, node_id: int, shard: int,
                       delivered: "DeliveredMessage") -> None:
        rts = self.rts
        manager = rts.managers[node_id]
        node = rts.cluster.node(node_id)
        origin = delivered.origin
        seqno = delivered.seqno
        for obj_id, op_name, args, kwargs, invocation_id, epoch in delivered.payload[1]:
            self.apply_one(node_id, manager, node, obj_id, op_name, args,
                           kwargs, invocation_id, epoch, origin, seqno)
        if origin == node_id:
            batcher = self.batchers.get((node_id, shard))
            if batcher is not None:
                batcher.on_batch_delivered()

    def apply_one(self, node_id: int, manager, node, obj_id: int,
                  op_name: str, args, kwargs, invocation_id: int, epoch: int,
                  origin: int, seqno: int) -> None:
        """Apply one delivered write (standalone or decoded from a batch)."""
        rts = self.rts
        if rts._txn_layer is not None and rts._txn_layer.defer_write(
                node_id, obj_id,
                (op_name, args, kwargs, invocation_id, epoch, origin, seqno)):
            # A transaction holds this member's object (prepared or epoch
            # barrier): the write replays FIFO when the lock releases —
            # before any epoch check, because the lock's release position
            # in the order is what decides the write's fate everywhere.
            return
        delivered_up_to = rts._node_epoch.get((node_id, obj_id), 0)
        if epoch > delivered_up_to:
            # A post-switch write outran this member's delivery of the
            # switch itself — possible only across *groups* (a shard move's
            # destination order is not synchronised with its source order)
            # or when a new-epoch write is sequenced just ahead of its own
            # switch message.  Defer it: it applies, in its own group's
            # order, the moment the local switch lands.  Every member makes
            # the same decision at the same position of the same group
            # order, so the object's global write order stays identical
            # everywhere.
            self.future_writes.setdefault((node_id, obj_id), []).append(
                (op_name, args, kwargs, invocation_id, epoch, origin, seqno))
            # Same out-of-band evidence as a deferred coherence message: if
            # the switch this write outran was lost here and its group went
            # quiet, only an explicit probe will recover it.
            rts.pcopy.arm_lag_probe(node_id, obj_id)
            return
        if epoch < delivered_up_to:
            # The write was sequenced after a switch it predates.  Every
            # member drops it at the same point in the total order; the
            # origin re-issues it under the object's new policy or route.
            if origin == node_id:
                rts._resolve(invocation_id, MIGRATED)
            return
        op = rts.handle(obj_id).spec_class.operation_def(op_name)
        cpu = rts.cost_model.cpu
        replica = manager.replicas.get(obj_id)
        if replica is None or not replica.valid:
            # Per-shard total order guarantees the create precedes every
            # operation, so a missing replica is a protocol error worth
            # failing on.
            raise RtsError(
                f"node {node_id} received operation {op_name!r} for object "
                f"{obj_id} before its create message"
            )
        result = manager.apply_write_to(replica, op, args, kwargs,
                                        local_origin=origin == node_id)
        # Applying the update costs CPU on every machine that holds a
        # replica: this is the overhead that limits ACP's speedup.
        node.charge_overhead(cpu.operation_dispatch_cost +
                             op.work_units * cpu.work_unit_time)
        if result is not RETRY and rts.history.enabled:
            rts.history.record_write(node_id, obj_id, op_name, args, seqno,
                                     replica.version)
        if origin == node_id:
            rts._resolve(invocation_id, result)

    def flush_future_writes(self, node_id: int, obj_id: int) -> None:
        """Apply deferred destination-order writes after a switch landed."""
        entries = self.future_writes.pop((node_id, obj_id), [])
        if not entries:
            return
        rts = self.rts
        manager = rts.managers[node_id]
        node = rts.cluster.node(node_id)
        requeue: List[Tuple[Any, ...]] = []
        current = rts._node_epoch.get((node_id, obj_id), 0)
        for entry in entries:
            op_name, args, kwargs, invocation_id, epoch, origin, seqno = entry
            if epoch > current:
                requeue.append(entry)
                continue
            self.apply_one(node_id, manager, node, obj_id, op_name, args,
                           kwargs, invocation_id, epoch, origin, seqno)
        if requeue:
            self.future_writes[(node_id, obj_id)] = requeue
