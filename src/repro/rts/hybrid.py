"""The unified runtime system: per-object management policies, live migration.

:class:`HybridRts` hosts both of the paper's object-management mechanisms in
one runtime.  Every shared object runs under a
:class:`~repro.rts.policy.ManagementPolicy` chosen at creation time
(``create_object(..., policy=...)``) and changeable while the cluster runs:

* **broadcast** objects are replicated on every machine; reads are local and
  writes ride the totally-ordered broadcast of the object's shard, with
  sharding and write batching (:mod:`repro.rts.broadcast`);
* **primary-copy** objects live on one machine with dynamically replicated
  secondaries; writes go through the primary and propagate by invalidation
  or two-phase update (:mod:`repro.rts.primary_copy`);
* **adaptive** objects carry an :class:`~repro.rts.policy.AdaptivePolicy`
  controller that watches the object's read/write ratio and migrates it
  between the fixed policies at run time.

This module is the core every mechanism shares: object creation, the
invocation dispatch loop, the delivery table that routes each ordered
broadcast record kind to the one component owning it, and the switch
point every control episode ends in.  The components are
:mod:`~repro.rts.broadcast`, :mod:`~repro.rts.primary_copy`,
:mod:`~repro.rts.reconfig` (migration, shard moves, seat relocation),
:mod:`~repro.rts.recovery` (crash takeover, rejoin) and
:mod:`~repro.rts.elasticity` (drain, scale-in, rebalancer).

Migration protocol
------------------

A migration must not lose, duplicate, or reorder writes, so the switch point
is decided by the same total order that already serialises the object's
broadcast writes.  Every object keeps a **migration epoch**; broadcast write
payloads are stamped with the epoch they were issued under, and every member
tracks, per object, the epoch it has *delivered* up to.

* **broadcast → primary**: the initiator flips the object's global policy
  and directory entry (new writes head for the chosen primary), then
  broadcasts a ``switch`` message through the object's shard.  Total order
  guarantees each member delivers the switch after exactly the same set of
  writes, so the (identical) replicas simply become the primary/secondary
  copies — no state transfer.  A write broadcast sequenced *after* the
  switch is dropped identically at every member and re-issued by its origin
  through the primary.  The primary refuses to apply writes until it has
  itself delivered the switch (so it has applied every pre-switch write);
  coherence traffic reaching a member that has not yet delivered the switch
  is deferred until it does.
* **primary → broadcast**: the initiator freezes the object at the primary
  (in-flight two-phase writes drain first; new writes bounce and retry),
  snapshots its state, flips the global policy, and broadcasts the switch
  *carrying the snapshot*.  Each member installs the snapshot when it
  delivers the switch — the totally-ordered state transfer — after which
  writes flow as ordered broadcasts.
* **primary → primary** (seat relocation and crash takeover): the same
  snapshot-carrying ``switch``, scoped to the copy-holding members, moves
  the primary seat.

Every switch inherits the broadcast layer's fault tolerance: a switch in
flight across a sequencer crash is retried, survives the election, and is
still delivered exactly once in the same total order everywhere.

Sequential consistency is preserved across a switch because (a) the switch
point is a single position in the object's write order, (b) no write is
applied on both sides of it (epoch-mismatched broadcasts are dropped and
re-issued; primary writes wait for the switch to land), and (c) every
member's replica passes through the switch state before serving post-switch
operations.  A shard move (:meth:`HybridRts.move_shard`) reuses the epoch
machinery across two total orders; see :mod:`repro.rts.reconfig`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple, Type

from ..amoeba.message import estimate_size
from ..errors import RtsError
from .base import ObjectHandle, RuntimeSystem
from .broadcast import MIGRATED, BroadcastPath, _PendingWrite
from .consistency import HistoryRecorder
from .elasticity import DrainRecord, Elasticity
from .object_model import ObjectSpec
from .p2p.directory import ObjectDirectory
from .p2p.replication_policy import ReplicationPolicy
from .policy import (
    FIXED_POLICIES,
    MECHANISM_BROADCAST,
    MECHANISM_PRIMARY,
    AdaptivePolicy,
    BroadcastReplicated,
    management_policy,
)
from .primary_copy import PrimaryCopyPath
from .reconfig import MigrationRecord, Reconfiguration, ShardMoveRecord
from .recovery import RecoveryRecord, RejoinRecord, Recovery
from .sharding import ShardRouter, batching_params, rebalance_params
from .stats import AccessStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.broadcast.group import BroadcastGroup
    from ..amoeba.broadcast.protocol import DeliveredMessage
    from ..amoeba.cluster import Cluster
    from ..amoeba.node import Node
    from ..sim.process import SimProcess

#: A delivery handler: ``handler(node_id, shard, delivered)`` runs at every
#: member, in the shard's total order.
DeliveryHandler = Callable[[int, int, "DeliveredMessage"], None]


class HybridRts(RuntimeSystem):
    """Shared objects under per-object, runtime-switchable management."""

    name = "hybrid-rts"

    def __init__(self, cluster: "Cluster", default_policy: Any = "broadcast",
                 dynamic_replication: bool = True,
                 replicate_everywhere: bool = False,
                 record_history: bool = False, num_shards: int = 1,
                 placement: Any = None, batching: Any = None,
                 rebalance: Any = None) -> None:
        """Create the unified runtime.

        Parameters
        ----------
        cluster:
            The simulated cluster.  Broadcast-managed objects (and
            migrations) need a broadcast-capable network; a purely
            primary-copy configuration runs on any network.
        default_policy:
            Policy for objects created without an explicit ``policy=``:
            a name (``"broadcast"``, ``"primary-invalidate"``,
            ``"primary-update"``, ``"adaptive"``), adaptive params, or a
            :class:`ManagementPolicy`.
        dynamic_replication:
            Enable the read/write-ratio driven secondary-copy policy for
            primary-managed objects.
        replicate_everywhere:
            Eagerly give every machine a secondary copy when a
            primary-managed object is created.
        record_history:
            Record write/read histories for the consistency checker.
        num_shards / placement / batching:
            Sharding and write batching of the broadcast mechanism (see
            :mod:`repro.rts.sharding`).
        rebalance:
            Configuration of the background shard-rebalancing controller
            (``True``, a dict of :class:`~repro.rts.sharding.RebalanceParams`
            fields, or params).  The controller samples per-shard write
            loads every ``interval`` virtual seconds, moves hot objects off
            the hottest broadcast group with :meth:`move_shard`, and — when
            ``grow_to`` is set — adds groups to the live cluster first.
        """
        super().__init__(cluster)
        self.default_policy = management_policy(default_policy,
                                                default=BroadcastReplicated())
        self.dynamic_replication = dynamic_replication
        self.replicate_everywhere = replicate_everywhere
        self.history = HistoryRecorder(enabled=record_history)
        self._num_shards = num_shards
        self._placement = placement
        self.batching = batching_params(batching)
        self.rebalance = rebalance_params(rebalance)
        self.router: Optional[ShardRouter] = None
        #: Shard-0 group under the classic attribute name (set with the router).
        self.group: Optional["BroadcastGroup"] = None
        self.directory = ObjectDirectory()
        self.replication = ReplicationPolicy(self.cost_model.replication)

        # -- invocations waiting for their own ordered broadcast ---------- #
        self._invocation_ids = itertools.count(1)
        self._pending: Dict[int, _PendingWrite] = {}

        # -- per-object policy state ------------------------------------ #
        #: obj_id -> name of the fixed policy currently managing the object.
        self._policy_by_obj: Dict[int, str] = {}
        #: obj_id -> adaptive controller (objects created adaptive only).
        self._adaptive_by_obj: Dict[int, AdaptivePolicy] = {}
        #: obj_id -> cluster-wide access window driving adaptive decisions.
        self._obj_access: Dict[int, AccessStats] = {}
        self._created_on: Dict[int, int] = {}

        # -- switch epochs ---------------------------------------------- #
        #: obj_id -> number of switches (policy, seat or shard) broadcast.
        self._epoch_by_obj: Dict[int, int] = {}
        #: (node_id, obj_id) -> epoch that node has delivered up to.
        self._node_epoch: Dict[Tuple[int, int], int] = {}
        #: (node_id, obj_id) -> highest shard-arrive epoch delivered there;
        #: a move is settled only when *both* of its broadcasts landed
        #: everywhere.
        self._dest_epoch: Dict[Tuple[int, int], int] = {}
        #: obj_id -> shard-arrive epoch the latest move requires.
        self._dest_epoch_required: Dict[int, int] = {}
        #: (node_id, obj_id) -> processes waiting for that node to deliver
        #: the current switch (the primary gating its first post-switch write).
        self._switch_waiters: Dict[Tuple[int, int], List["SimProcess"]] = {}
        #: Objects with a switch still being delivered somewhere.
        self._migrating: Set[int] = set()

        # -- control-episode logs, for reports and tests ------------------ #
        self.migrations: List[MigrationRecord] = []
        self.shard_moves: List[ShardMoveRecord] = []
        #: (obj_id, old_primary, new_primary) per completed seat relocation.
        self.relocations: List[Tuple[int, int, int]] = []
        self.recoveries: List[RecoveryRecord] = []
        self.rejoins: List[RejoinRecord] = []
        self.drains: List[DrainRecord] = []
        #: Broadcast groups retired by remove_shard, in retirement order.
        self.removed_shards: List[int] = []

        #: Lazily created transaction layer (first transact() call builds
        #: it); while None, every hook is skipped and the runtime behaves
        #: byte-identically to one without the layer.
        self._txn_layer: Optional[Any] = None

        #: Broadcast record kind -> the one handler that owns it.
        self._delivery: Dict[str, DeliveryHandler] = {}
        self.register_delivery("switch", self._apply_switch)
        self.bcast = BroadcastPath(self)
        self.pcopy = PrimaryCopyPath(self)
        self.reconfig = Reconfiguration(self)
        self.recovery = Recovery(self)
        self.elasticity = Elasticity(self)

        initial = self.default_policy
        if isinstance(initial, AdaptivePolicy) or initial.mechanism == MECHANISM_BROADCAST:
            self._ensure_router()
        else:
            self._ensure_primary_services()
        if type(self) is HybridRts:
            self.name = {
                MECHANISM_BROADCAST: "broadcast-rts",
                MECHANISM_PRIMARY: "p2p-rts",
            }.get(initial.mechanism, "adaptive-rts"
                  if isinstance(initial, AdaptivePolicy) else "hybrid-rts")

    # ------------------------------------------------------------------ #
    # Lazy wiring and the delivery table
    # ------------------------------------------------------------------ #

    def register_delivery(self, kind: str, handler: DeliveryHandler) -> None:
        """Route ordered broadcast records of ``kind`` to ``handler``.

        Every record kind has exactly one owner; a second registration is a
        wiring bug and raises :class:`~repro.errors.RtsError`.
        """
        if kind in self._delivery:
            raise RtsError(f"broadcast record kind {kind!r} already has a "
                           "delivery handler")
        self._delivery[kind] = handler

    def _deliverer(self, node_id: int, shard: int) -> Callable[["DeliveredMessage"], None]:
        """One member's delivery handler for one shard's group.

        A member still awaiting its rejoin seed buffers the delivery first
        (see :meth:`Recovery.buffer_delivery`); everything else is one
        lookup in the delivery table.
        """
        handlers = self._delivery
        awaiting = self.recovery.awaiting_seed
        buffer_delivery = self.recovery.buffer_delivery
        key = (node_id, shard)

        def deliver(delivered: "DeliveredMessage") -> None:
            if key in awaiting and buffer_delivery(node_id, key, delivered):
                return
            handler = handlers.get(delivered.payload[0])
            if handler is None:
                raise RtsError(
                    f"unknown broadcast RTS payload kind {delivered.payload[0]!r}")
            handler(node_id, shard, delivered)

        return deliver

    def _ensure_router(self) -> ShardRouter:
        """Build the broadcast groups on first need (they require hardware
        broadcast, which a primary-copy-only configuration does not)."""
        if self.router is None:
            if not self.cluster.network.supports_broadcast:
                raise RtsError(
                    "broadcast-managed objects (and policy migrations) need "
                    "a broadcast-capable network; this cluster is "
                    f"{self.cluster.network.name!r}")
            self.router = ShardRouter(self.cluster, num_shards=self._num_shards,
                                      placement=self._placement)
            self.group = self.router.group_for(0)
            for shard in range(self.router.num_shards):
                self._wire_shard(shard)
            self.recovery.install()
        return self.router

    def _wire_shard(self, shard: int) -> None:
        """Install every member's delivery handler for one shard's group."""
        group = self.router.group_for(shard)
        for node in self.cluster.nodes:
            group.set_delivery_handler(node.node_id,
                                       self._deliverer(node.node_id, shard))

    def _ensure_primary_services(self) -> None:
        """Register the point-to-point handlers and RPC services once."""
        if not self.pcopy.installed:
            self.pcopy.install()
            self.recovery.install()

    def add_shard(self, sequencer_node_id: Optional[int] = None) -> int:
        """Add a broadcast group to the running cluster; returns its shard.

        The group's members join and its wire-kind namespace registers
        immediately (see :meth:`ShardRouter.add_shard` for seat selection),
        so the new total order can carry traffic — and receive rebalanced
        objects — without disturbing the existing groups.
        """
        router = self._ensure_router()
        shard = router.add_shard(sequencer_node_id=sequencer_node_id)
        self._wire_shard(shard)
        self.stats.shards_added += 1
        return shard

    # ------------------------------------------------------------------ #
    # Policy bookkeeping
    # ------------------------------------------------------------------ #

    def policy_of(self, handle: ObjectHandle) -> str:
        """Name of the fixed policy currently managing ``handle``."""
        return self._policy_by_obj[handle.obj_id]

    def is_adaptive(self, handle: ObjectHandle) -> bool:
        return handle.obj_id in self._adaptive_by_obj

    def _mechanism_of(self, obj_id: int) -> str:
        return FIXED_POLICIES[self._policy_by_obj[obj_id]].mechanism

    @property
    def num_shards(self) -> int:
        return self.router.num_shards if self.router is not None else 1

    def shard_of(self, handle: ObjectHandle) -> int:
        """The shard (and thus broadcast group) currently ordering ``handle``.

        This is the router's live view: after a :meth:`move_shard` it names
        the destination group, not the creation-time placement.
        """
        return self._ensure_router().assign(handle.obj_id, handle.name)

    # ------------------------------------------------------------------ #
    # Object creation and invocation
    # ------------------------------------------------------------------ #

    def create_object(self, proc: "SimProcess", spec_class: Type[ObjectSpec],
                      args: Tuple[Any, ...] = (), kwargs: Optional[Dict[str, Any]] = None,
                      name: Optional[str] = None, policy: Any = None) -> ObjectHandle:
        """Create a shared object managed by ``policy`` (default: the RTS's)."""
        node = self._node_of(proc)
        chosen = management_policy(policy, default=self.default_policy)
        if isinstance(chosen, AdaptivePolicy):
            controller: Optional[AdaptivePolicy] = chosen
            effective = FIXED_POLICIES[chosen.initial]
        else:
            controller, effective = None, chosen
        if effective.mechanism == MECHANISM_BROADCAST or controller is not None:
            self._ensure_router()
        if effective.mechanism == MECHANISM_PRIMARY or controller is not None:
            self._ensure_primary_services()

        handle = self._new_handle(spec_class, name)
        obj_id = handle.obj_id
        self._policy_by_obj[obj_id] = effective.name
        if controller is not None:
            self._adaptive_by_obj[obj_id] = controller
            self._obj_access[obj_id] = AccessStats()
        self._created_on[obj_id] = node.node_id

        if effective.mechanism == MECHANISM_BROADCAST:
            self.bcast.create(proc, node, handle, spec_class, args, kwargs)
        else:
            self.pcopy.create(proc, node, handle, spec_class, args, kwargs)
        return handle

    def replicate_to(self, handle: ObjectHandle, node_id: int) -> None:
        """Eagerly install a secondary copy on ``node_id`` (no cost charged)."""
        self.pcopy.replicate_to(handle, node_id)

    def _invoke(self, proc: "SimProcess", handle: ObjectHandle, op_name: str,
                args: Tuple[Any, ...] = (), kwargs: Optional[Dict[str, Any]] = None) -> Any:
        node = self._node_of(proc)
        nid = node.node_id
        obj_id = handle.obj_id
        op = handle.spec_class.operation_def(op_name)
        proc.advance(self.cost_model.cpu.operation_dispatch_cost)
        if op.work_units:
            proc.compute(op.work_units)

        # Cluster-wide and per-machine access accounting (one note per
        # invocation, regardless of retries or mid-flight migrations).
        if op.is_write:
            self.stats.note_write(obj_id)
            self.replication.note_write(obj_id, nid)
        else:
            self.replication.note_read(obj_id, nid)

        shard_write_noted = False
        while True:
            if self._mechanism_of(obj_id) == MECHANISM_BROADCAST:
                if op.is_write:
                    # One shard-write note per invocation, exactly like the
                    # per-object counters — even if a migration bounces the
                    # invocation out of and back into the broadcast path.
                    # The router attributes it to the object's *current*
                    # shard, so the counters follow the object across moves.
                    if not shard_write_noted:
                        # The note carries the invocation's payload size so
                        # the router's byte window sees the same skew the
                        # wire does (args dominate; kwargs are rare).
                        self.router.note_write(
                            obj_id, handle.name,
                            nbytes=estimate_size(args) + estimate_size(kwargs))
                        shard_write_noted = True
                        if self.rebalance is not None:
                            self.elasticity.maybe_start_rebalancer()
                    result = self.bcast.write(proc, node, handle, op, args, kwargs)
                else:
                    result = self.bcast.read(proc, node, handle, op, args, kwargs)
            else:
                proc.absorb_overhead(node.drain_overhead())
                if op.is_write:
                    result = self.pcopy.write(proc, nid, handle, op, args, kwargs)
                else:
                    result = self.pcopy.read(proc, nid, handle, op, args, kwargs)
                if result is not MIGRATED and self.dynamic_replication:
                    self.pcopy.apply_replication_policy(proc, nid, handle)
            if result is not MIGRATED:
                break
            # The object moved to the other mechanism while this invocation
            # was in flight; re-route it under the new policy.

        if obj_id in self._adaptive_by_obj:
            self.reconfig.adaptive_check(proc, handle, op.is_write)
        return result

    def transact(self, proc: "SimProcess", ops, on_guard: str = "retry") -> List[Any]:
        """Execute a group of operations atomically and serializably.

        ``ops`` is a sequence of ``(handle, op_name[, args[, kwargs]])``
        entries; the results are returned in the same order.  Groups whose
        participants all ride one shard's broadcast commit as a single
        ordered record; everything else runs an ordered two-phase commit
        (see :mod:`repro.txn`).  ``on_guard`` selects what happens when a
        guard rejects the group: ``"retry"`` (default) re-attempts once
        the rejecting object changes, ``"abort"`` raises
        :class:`~repro.errors.TransactionAborted` with nothing applied.

        .. caveat:: readers are not snapshot-isolated.  A cross-shard
           commit applies through per-shard ``txn-outcome`` records, and
           between those applies a plain read can observe one
           participant's post-commit state next to another's pre-commit
           state (read skew).  Writes are fully serialized — conflicting
           writes defer behind the prepare — so this never corrupts
           state; a reader needing a consistent view across objects must
           issue the reads *as a transaction* of its own.  A dedicated
           read-only fast path is an open item.
        """
        if self._txn_layer is None:
            from ..txn import TransactionLayer

            self._txn_layer = TransactionLayer(self)
        return self._txn_layer.transact(proc, ops, on_guard=on_guard)

    def _resolve(self, invocation_id: int, result: Any) -> None:
        """Wake the invocation waiting for its own ordered broadcast."""
        pending = self._pending.get(invocation_id)
        if pending is None or pending.resolved:
            return
        pending.resolved = True
        pending.proc.wake(result)

    # ------------------------------------------------------------------ #
    # Reconfiguration, recovery and elasticity (see the component modules)
    # ------------------------------------------------------------------ #

    def migrate(self, proc: "SimProcess", handle: ObjectHandle,
                policy: Any, primary: Optional[int] = None) -> bool:
        """Move ``handle`` under ``policy`` while the cluster runs.

        ``primary`` pins the primary copy onto a specific live,
        copy-holding node when migrating to primary-copy management; by
        default the node with the most observed writes is chosen.  If that
        seat later dies, a crash takeover reseats the object on a
        surviving copy (or restores its last committed record).  Returns
        ``False`` when the object already runs under ``policy`` or another
        reconfiguration of it is in flight (callers retry).
        """
        return self.reconfig.migrate(proc, handle, policy, primary)

    def move_shard(self, proc: "SimProcess", handle: ObjectHandle,
                   new_shard: int) -> bool:
        """Move ``handle`` onto broadcast group ``new_shard`` while it runs.

        A drain-and-switch across the two total orders (see
        :mod:`repro.rts.reconfig`); a primary-copy object's move is pure
        routing.  Returns ``False`` when the object already lives there or
        another switch of it is in flight.
        """
        return self.reconfig.move_shard(proc, handle, new_shard)

    def relocate_primary(self, proc: "SimProcess", handle: ObjectHandle,
                         target: Optional[int] = None) -> bool:
        """Move a primary-copy object's seat to ``target``.

        ``target`` defaults to the heaviest writer.  The object is frozen at
        the old primary and its snapshot rides a switch scoped to the
        copy-holding members plus the target, so every write lands exactly
        once, on exactly one primary.  Returns ``False`` when the target
        already holds the seat (or no traffic suggests a better one).
        """
        return self.reconfig.relocate_primary(proc, handle, target)

    def is_caught_up(self, node_id: int) -> bool:
        """Has ``node_id`` completed its rejoin catch-up (or never needed one)?"""
        return self.recovery.is_caught_up(node_id)

    def drain_node(self, proc: "SimProcess", node_id: int) -> bool:
        """Evacuate every seat from ``node_id``, then retire the machine.

        Zero dead-peer failures, elections or takeovers: seats move first
        and the node leaves only once no RPC is addressed to it.  Returns
        ``False`` if a drain of this node is already running.
        """
        return self.elasticity.drain_node(proc, node_id)

    def remove_shard(self, proc: "SimProcess", shard: int) -> bool:
        """Merge broadcast group ``shard`` away while the cluster runs.

        The reverse of :meth:`add_shard`.  Returns ``False`` when the shard
        is already retired or a rejoin catch-up is in progress.
        """
        return self.elasticity.remove_shard(proc, shard)

    # ------------------------------------------------------------------ #
    # The switch point every control episode ends in
    # ------------------------------------------------------------------ #

    def _migration_settled(self, obj_id: int) -> bool:
        """Has every live member delivered the object's latest switch?

        A shard move broadcasts in two groups; it settles only when the
        source drain *and* the destination arrival landed at every live
        member, so back-to-back moves never leave two epochs in flight.
        """
        epoch = self._epoch_by_obj.get(obj_id, 0)
        dest_epoch = self._dest_epoch_required.get(obj_id, 0)
        settled = all(
            self._node_epoch.get((node.node_id, obj_id), 0) >= epoch
            and self._dest_epoch.get((node.node_id, obj_id), 0) >= dest_epoch
            for node in self.cluster.nodes if node.alive)
        if settled:
            self._migrating.discard(obj_id)
        return settled

    def _broadcast_switch(self, proc: "SimProcess", node: "Node",
                          handle: ObjectHandle, payload: Tuple[Any, ...],
                          size: int = 64, shard: Optional[int] = None) -> None:
        """Send the switch through the object's shard and await local delivery.

        ``shard`` overrides the route for cross-group moves, whose drain
        switch must ride the *source* group after the router already points
        at the destination.
        """
        if shard is None:
            shard = self.shard_of(handle)
        self.router.shard_stats[shard].note_migration()
        invocation_id = next(self._invocation_ids)
        self._pending[invocation_id] = _PendingWrite(proc=proc)
        proc.advance(self.cost_model.cpu.operation_dispatch_cost)
        proc.absorb_overhead(node.drain_overhead())
        proc.flush()
        self.router.group_for(shard).member(node.node_id).broadcast(
            payload + (invocation_id,), size=size)
        proc.suspend()
        self._pending.pop(invocation_id, None)
        proc.absorb_overhead(node.drain_overhead())

    def _apply_switch(self, node_id: int, shard: int,
                      delivered: "DeliveredMessage") -> None:
        """One member's totally-ordered switch point for one object.

        ``scope`` narrows a snapshot-carrying switch to the listed members
        (a seat relocation or takeover refreshes only the copy-holding
        machines); a ``None`` scope is the primary -> broadcast transfer
        that installs a replica everywhere.
        """
        (_, obj_id, target, primary_node, state, version, epoch, scope,
         table, invocation_id) = delivered.payload
        origin = delivered.origin
        key = (node_id, obj_id)
        if self._superseded_switch(node_id, obj_id, epoch, origin,
                                   invocation_id):
            return
        self._node_epoch[key] = epoch
        self.cluster.node(node_id).charge_overhead(
            self.cost_model.cpu.operation_dispatch_cost)
        if state is not None and (scope is None or node_id in scope):
            self._install_member_copy(node_id, obj_id, primary_node, state,
                                      version, table)
        elif state is None:
            # broadcast -> primary: the (identical) replicas become the
            # primary and secondary copies; no state moves, and the fresh
            # primary regime starts with an empty applied-write table.
            replica = self.managers[node_id].replicas.get(obj_id)
            if replica is not None:
                replica.is_primary = node_id == primary_node
            self.pcopy.applied[key] = {}
        if target == "broadcast":
            # Broadcast management does not use write ids at all.
            self.pcopy.applied.pop(key, None)
        self._finish_switch_delivery(node_id, obj_id, epoch, origin,
                                     invocation_id)

    def _superseded_switch(self, node_id: int, obj_id: int, epoch: int,
                           origin: int, invocation_id: int) -> bool:
        """Ignore a switch whose epoch a later switch already overtook here.

        A crash takeover can outrun a relocation (or a shard drain) at some
        member; the overtaken switch must not regress the member's state or
        epoch, but its initiator is still woken and settlement re-checked.
        """
        if epoch > self._node_epoch.get((node_id, obj_id), 0):
            return False
        if origin == node_id:
            self._resolve(invocation_id, None)
        self._migration_settled(obj_id)
        return True

    def _install_member_copy(self, node_id: int, obj_id: int,
                             primary_node: int, state: Any, version: int,
                             table: Optional[Dict]) -> None:
        """Install a switch-carried snapshot (and dedup table) on a member.

        Nodes holding a (secondary or primary) copy are updated in place so
        processes already waiting on the replica keep their hooks.
        """
        manager = self.managers[node_id]
        replica = manager.replicas.get(obj_id)
        if replica is not None:
            replica.instance.unmarshal_state(state)
            replica.version = version
            replica.valid = True
            replica.is_primary = node_id == primary_node
            replica.locked = False
            replica.notify_changed()
        else:
            manager.install_snapshot(self.handle(obj_id), state, version,
                                     is_primary=node_id == primary_node)
            self.stats.replicas_created += 1
        self.pcopy.applied[(node_id, obj_id)] = dict(table or {})
        self.bcast.wake_replica_waiters(node_id, obj_id)

    def _finish_switch_delivery(self, node_id: int, obj_id: int, epoch: int,
                                origin: int, invocation_id: int) -> None:
        """Common tail of every switch delivery at one member.

        Deferred new-epoch writes apply first (on the freshly established
        state), then coherence traffic that raced ahead of the switch
        (stale-regime messages are dropped inside ``flush_deferred``).
        This member's own still-pending pre-switch writes are released for
        re-issue right away: deliveries arrive in sequence order, so a
        write of this object still pending here was not sequenced before
        the switch and is guaranteed to be dropped identically everywhere.
        """
        self.bcast.flush_future_writes(node_id, obj_id)
        self.pcopy.flush_deferred(node_id, obj_id)
        if self._txn_layer is not None:
            # A transaction record that outran this member's epoch sits
            # under a barrier lock; the switch it awaited just landed.
            self._txn_layer.on_switch_delivered(node_id, obj_id)
        for pending_id, pending in list(self._pending.items()):
            if (pending.obj_id == obj_id and pending.origin == node_id
                    and pending.epoch < epoch):
                self._resolve(pending_id, MIGRATED)
        for waiter in self._switch_waiters.pop((node_id, obj_id), []):
            waiter.wake()
        if origin == node_id:
            self._resolve(invocation_id, None)
        self._migration_settled(obj_id)

    def _await_switch(self, proc: "SimProcess", node_id: int, obj_id: int) -> None:
        """Block until ``node_id`` has delivered the object's latest switch."""
        while (self._node_epoch.get((node_id, obj_id), 0)
               < self._epoch_by_obj.get(obj_id, 0)):
            self._switch_waiters.setdefault((node_id, obj_id), []).append(proc)
            proc.suspend()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def object_summary(self) -> Dict[str, Dict[str, Any]]:
        summary = super().object_summary()
        for handle in self.handles():
            row = summary[handle.name]
            row["policy"] = self._policy_by_obj[handle.obj_id]
            if handle.obj_id in self._adaptive_by_obj:
                row["adaptive"] = True
            # The shard column is the router's *current* view, so it stays
            # consistent across shard moves and policy migrations alike.
            shard = (self.router.assigned_shard(handle.obj_id)
                     if self.router is not None else None)
            if shard is not None and self.num_shards > 1:
                row["shard"] = shard
        return summary

    def downstream_queue_depth(self) -> int:
        """Deepest active-shard sequencer queue — the gateway shed signal.

        The same depth the write batcher's flow control watches, taken as a
        max over active shards so one congested shard is enough to arm
        edge shedding.
        """
        router = self.router
        if router is None:
            return 0
        return max((router.group_for(shard).sequencer.queue_depth
                    for shard in router.active_shards()), default=0)

    def read_write_summary(self) -> Dict[str, Any]:
        summary = super().read_write_summary()
        stats = self.stats
        if self.router is not None and (self.num_shards > 1
                                        or self.batching is not None):
            summary["sharding"] = self.router.summary()
            if self.batching is not None:
                summary["batching"] = {
                    "max_batch": self.batching.max_batch,
                    "flush_delay": self.batching.flush_delay,
                }
        if stats.migrations:
            summary["migrations"] = {
                "total": stats.migrations,
                "to_primary": stats.migrations_to_primary,
                "to_broadcast": stats.migrations_to_broadcast,
                "log": [(m.name, m.target, m.primary_node)
                        for m in self.migrations],
            }
        if stats.shard_moves or stats.shards_added or stats.primary_relocations:
            summary["rebalancing"] = {
                "moves": stats.shard_moves,
                "shards_added": stats.shards_added,
                "primary_relocations": stats.primary_relocations,
                "placement_epoch": (self.router.placement_epoch
                                    if self.router is not None else 0),
                "log": [(m.name, m.src, m.dst) for m in self.shard_moves],
            }
        if stats.flow_control_holds:
            summary["flow_control_holds"] = stats.flow_control_holds
        if stats.primary_recoveries:
            windows = [r.window for r in self.recoveries
                       if r.window is not None]
            summary["recovery"] = {
                "primary_recoveries": stats.primary_recoveries,
                "deduplicated_writes": stats.deduplicated_writes,
                "max_window": round(max(windows), 9) if windows else None,
                "log": [(r.name, r.old_primary, r.new_primary,
                         "snapshot" if r.from_snapshot else "copy")
                        for r in self.recoveries],
            }
        if stats.node_rejoins or stats.nodes_drained or stats.shards_removed:
            windows = [r.window for r in self.rejoins if r.window is not None]
            summary["elasticity"] = {
                "node_rejoins": stats.node_rejoins,
                "nodes_drained": stats.nodes_drained,
                "shards_removed": stats.shards_removed,
                "seats_handed_back": stats.seats_handed_back,
                "objects_reseeded": sum(r.objects_reseeded
                                        for r in self.rejoins),
                "max_rejoin_window": (round(max(windows), 9)
                                      if windows else None),
                "rejoin_log": [
                    (r.node_id, r.objects_reseeded, r.seats_handed_back)
                    for r in self.rejoins if r.completed_at is not None],
                "drain_log": [
                    (d.node_id, d.primary_seats_moved,
                     d.sequencer_seats_moved)
                    for d in self.drains if d.completed_at is not None],
                "removed_shards": list(self.removed_shards),
            }
        if stats.txn_commits or stats.txn_aborts:
            summary["transactions"] = {
                "commits": stats.txn_commits,
                "aborts": stats.txn_aborts,
                "same_shard_commits": stats.txn_same_shard_commits,
                "cross_shard_commits": stats.txn_cross_shard_commits,
                "conflict_retries": stats.txn_retries,
                "deferred_writes": stats.txn_deferred_writes,
                "recoveries": stats.txn_recoveries,
            }
        return summary
