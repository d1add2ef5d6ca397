"""Reconfiguration: policy migration, shard moves and primary-seat moves.

Each rides the object's epoch and total order (see :mod:`repro.rts.hybrid`).
A shard move is a drain-and-switch across two orders: the route flips
first, a ``shard-switch`` drains the source order, a ``shard-arrive``
proves the destination carries the object, and destination writes that
outrun the source switch are deferred per member.  A seat relocation
carries a frozen snapshot in a scoped ``switch`` — the reseat a crash
takeover reuses.  The adaptive controller's per-invocation check lives
here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from ..amoeba.message import estimate_size
from ..errors import ConfigurationError, RpcPeerDeadError, RtsError
from .policy import (
    MECHANISM_BROADCAST,
    MECHANISM_PRIMARY,
    AdaptivePolicy,
    management_policy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.broadcast.protocol import DeliveredMessage
    from ..amoeba.node import Node
    from ..sim.process import SimProcess
    from .base import ObjectHandle
    from .hybrid import HybridRts


@dataclass
class MigrationRecord:
    """One completed (or in-flight) policy switch, for reports and tests."""

    obj_id: int
    name: str
    target: str
    epoch: int
    primary_node: Optional[int]


@dataclass
class ShardMoveRecord:
    """One cross-group move of an object (drain-and-switch), for reports."""

    obj_id: int
    name: str
    src: int
    dst: int
    epoch: int


class Reconfiguration:
    """Live policy switches, shard moves and primary-seat relocations."""

    def __init__(self, rts: "HybridRts") -> None:
        self.rts = rts
        #: Objects inside a reconfiguration that has not yet broadcast its
        #: switch (the freeze/snapshot phase can suspend, during which the
        #: epoch is still old and ``_migrating`` alone cannot protect).
        self.in_progress: Set[int] = set()
        #: Objects whose adaptive migration thread is spawned but not done.
        self._adaptive_pending: Set[int] = set()
        #: obj_id -> virtual time of its last cross-group move (the
        #: rebalance controller's per-object churn cooldown).
        self._last_moved_at: Dict[int, float] = {}
        rts.register_delivery("shard-switch", self._apply_shard_switch)
        rts.register_delivery("shard-arrive", self._apply_shard_arrive)

    def _admit(self, obj_id: int) -> bool:
        """The refusals every reconfiguration of one object shares.

        A reconfiguration still in its (possibly blocking) pre-switch
        phase, a switch still being delivered at some member, or a live
        transaction naming the object (its prepares and seat locks assume
        a stable mechanism, shard and seat) each abort the new one cleanly;
        callers retry.
        """
        rts = self.rts
        if obj_id in self.in_progress:
            return False
        if obj_id in rts._migrating and not rts._migration_settled(obj_id):
            return False
        return rts._txn_layer is None or not rts._txn_layer.pins(obj_id)

    # -- the adaptive controller ------------------------------------------ #

    def adaptive_check(self, proc: "SimProcess", handle: "ObjectHandle",
                       is_write: bool) -> None:
        """Update an adaptive object's access window; migrate when due.

        The migration itself runs in a spawned thread on the invoking node:
        the client whose access tripped the threshold continues immediately
        instead of paying the freeze/switch round trips in its own request
        latency.
        """
        rts = self.rts
        obj_id = handle.obj_id
        controller = rts._adaptive_by_obj[obj_id]
        window = rts._obj_access[obj_id]
        if is_write:
            window.note_write()
        else:
            window.note_read()
        if not controller.due(window):
            return
        if obj_id in self._adaptive_pending:
            return
        if obj_id in rts._migrating and not rts._migration_settled(obj_id):
            return
        node = rts._node_of(proc)
        target = controller.desired(window, rts._policy_by_obj[obj_id])
        if target is None:
            # No policy move wanted; the controller's second lever is the
            # object's *shard* — relocate it off an overloaded sequencer.
            if rts._mechanism_of(obj_id) != MECHANISM_BROADCAST:
                return
            dest = controller.desired_shard(rts.router, obj_id)
            if dest is None:
                return
            self._adaptive_pending.add(obj_id)

            def shard_move_body() -> None:
                mproc = rts.sim.current_process
                try:
                    if self.move_shard(mproc, handle, dest):
                        # The window that justified the move is spent; the
                        # next decision must re-earn itself on fresh load.
                        rts.router.reset_window()
                finally:
                    self._adaptive_pending.discard(obj_id)

            node.kernel.spawn_thread(shard_move_body,
                                     name=f"rebalance:{handle.name}")
            return
        self._adaptive_pending.add(obj_id)

        def migration_body() -> None:
            mproc = rts.sim.current_process
            try:
                if self.migrate(mproc, handle, target):
                    window.decay(controller.params.decay)
            finally:
                self._adaptive_pending.discard(obj_id)

        node.kernel.spawn_thread(migration_body, name=f"migrate:{handle.name}")

    # -- live migration between policies ---------------------------------- #

    def migrate(self, proc: "SimProcess", handle: "ObjectHandle", policy: Any,
                primary: Optional[int] = None) -> bool:
        rts = self.rts
        target = management_policy(policy, default=rts.default_policy)
        if isinstance(target, AdaptivePolicy):
            raise ConfigurationError(
                "migrate() takes a fixed policy; attach adaptive control at "
                "create_object(policy='adaptive') time")
        obj_id = handle.obj_id
        if target.name == rts._policy_by_obj[obj_id]:
            return False
        # A recovered member's rejoin seed is being computed against the
        # current policies and epochs; switching under it could strand the
        # member on the wrong side of the switch.
        if not self._admit(obj_id) or rts.recovery.catching_up:
            return False
        current_mechanism = rts._mechanism_of(obj_id)
        self.in_progress.add(obj_id)
        try:
            if target.mechanism == current_mechanism == MECHANISM_PRIMARY:
                # Same mechanism, different coherence protocol: pure
                # bookkeeping, no broadcast needed (so this works on
                # point-to-point-only networks too).  Secondary-side
                # handling routes by message kind, so writes in flight
                # under the old protocol complete untouched.
                rts._policy_by_obj[obj_id] = target.name
                rts.stats.migrations += 1
                rts.migrations.append(MigrationRecord(
                    obj_id=obj_id, name=handle.name, target=target.name,
                    epoch=rts._epoch_by_obj.get(obj_id, 0),
                    primary_node=rts.directory.primary_of(obj_id)))
                return True
            # Mechanism changes ride the object's shard broadcast and may
            # land it under primary-copy management: both wirings needed.
            rts._ensure_router()
            rts._ensure_primary_services()
            rts._migrating.add(obj_id)
            if target.mechanism == MECHANISM_PRIMARY:
                self._migrate_to_primary(proc, handle, target.name,
                                         primary_override=primary)
            elif not self._migrate_to_broadcast(proc, handle):
                rts._migrating.discard(obj_id)
                return False
            return True
        except RpcPeerDeadError:
            # The primary died while this migration was freezing it: abort
            # cleanly and let the crash takeover recover the object under
            # its current policy.
            rts._migrating.discard(obj_id)
            return False
        finally:
            self.in_progress.discard(obj_id)

    def _choose_primary(self, obj_id: int, copyset: List[int]) -> int:
        """The copy-holding live node with the most observed writes."""
        decider = self.rts.replication.decider

        def writes_on(nid: int) -> int:
            return decider.stats_for(obj_id, nid).total_writes

        best = max(copyset, key=lambda nid: (writes_on(nid), -nid))
        if writes_on(best) == 0:
            creator = self.rts._created_on.get(obj_id)
            if creator in copyset:
                return creator
        return best

    def _migrate_to_primary(self, proc: "SimProcess", handle: "ObjectHandle",
                            target: str,
                            primary_override: Optional[int] = None) -> None:
        """broadcast -> primary: flip routing, then switch in total order."""
        rts = self.rts
        obj_id = handle.obj_id
        node = rts._node_of(proc)
        copyset = sorted(
            n.node_id for n in rts.cluster.nodes
            if n.alive and rts.managers[n.node_id].has_valid_copy(obj_id))
        if not copyset:
            raise RtsError(f"no live replica of object {obj_id} to migrate")
        if primary_override is not None:
            if primary_override not in copyset:
                raise RtsError(
                    f"node {primary_override} holds no live replica of "
                    f"object {obj_id}; cannot become its primary")
            primary = primary_override
        else:
            primary = self._choose_primary(obj_id, copyset)
        epoch = rts._epoch_by_obj.get(obj_id, 0) + 1
        # Flip the global routing first: new writes head for the primary,
        # where they wait until it has delivered the switch below.
        rts._epoch_by_obj[obj_id] = epoch
        rts._policy_by_obj[obj_id] = target
        try:
            entry = rts.directory.entry(obj_id)
        except RtsError:
            entry = rts.directory.register(obj_id, primary)
        entry.primary_node = primary
        entry.copyset = set(copyset) | {primary}
        rts.stats.migrations += 1
        rts.stats.migrations_to_primary += 1
        rts.migrations.append(MigrationRecord(
            obj_id=obj_id, name=handle.name, target=target, epoch=epoch,
            primary_node=primary))
        rts.pcopy.commit_record(obj_id, primary)
        rts._broadcast_switch(proc, node, handle,
                              ("switch", obj_id, target, primary, None, 0,
                               epoch, None, None))

    def _migrate_to_broadcast(self, proc: "SimProcess",
                              handle: "ObjectHandle") -> bool:
        """primary -> broadcast: freeze, snapshot, switch carrying the state."""
        rts = self.rts
        obj_id = handle.obj_id
        node = rts._node_of(proc)
        primary = rts.directory.primary_of(obj_id)
        epoch_before = rts._epoch_by_obj.get(obj_id, 0)
        state, version = rts.pcopy.snapshot_seat(proc, node, primary, obj_id)
        if rts._epoch_by_obj.get(obj_id, 0) != epoch_before:
            # The primary died right after serving the freeze and a crash
            # takeover already switched the object to a successor, which
            # may have accepted writes this snapshot predates: broadcasting
            # it would erase them (its younger epoch wins at every member).
            # Abort; the object stays under the recovered regime.
            rts.pcopy.frozen.discard(obj_id)
            return False
        epoch = epoch_before + 1
        rts._epoch_by_obj[obj_id] = epoch
        rts._policy_by_obj[obj_id] = "broadcast"
        # New writes now route through the broadcast; ones sequenced before
        # the switch below are dropped by the epoch check and re-issued.
        rts.pcopy.frozen.discard(obj_id)
        rts.stats.migrations += 1
        rts.stats.migrations_to_broadcast += 1
        rts.migrations.append(MigrationRecord(
            obj_id=obj_id, name=handle.name, target="broadcast", epoch=epoch,
            primary_node=None))
        rts._broadcast_switch(proc, node, handle,
                              ("switch", obj_id, "broadcast", -1, state,
                               version, epoch, None, None),
                              size=32 + estimate_size(state))
        return True

    # -- cross-group moves ------------------------------------------------ #

    def move_shard(self, proc: "SimProcess", handle: "ObjectHandle",
                   new_shard: int) -> bool:
        rts = self.rts
        router = rts._ensure_router()
        obj_id = handle.obj_id
        if not 0 <= new_shard < router.num_shards:
            raise ConfigurationError(
                f"cannot move {handle.name!r} to shard {new_shard}: only "
                f"{router.num_shards} shards exist")
        src = rts.shard_of(handle)
        if src == new_shard:
            return False
        # A rejoin seed is captured against the current shard routes;
        # moving the object between orders under it could lose the member
        # the object entirely.
        if not self._admit(obj_id) or rts.recovery.catching_up:
            return False
        self.in_progress.add(obj_id)
        try:
            ordered = rts._mechanism_of(obj_id) == MECHANISM_BROADCAST
            epoch = rts._epoch_by_obj.get(obj_id, 0)
            if ordered:
                epoch += 1
                rts._migrating.add(obj_id)
                rts._epoch_by_obj[obj_id] = epoch
                rts._dest_epoch_required[obj_id] = epoch
            router.move(obj_id, new_shard)
            self._last_moved_at[obj_id] = rts.sim.now
            rts.stats.shard_moves += 1
            rts.shard_moves.append(ShardMoveRecord(
                obj_id=obj_id, name=handle.name, src=src, dst=new_shard,
                epoch=epoch))
            if not ordered:
                # A primary-copy object carries no ordered broadcast
                # traffic: its move is pure routing bookkeeping (the next
                # switch simply rides the new group).
                return True
            node = rts._node_of(proc)
            # Drain: every source-group member retires the old route at the
            # same position of the source total order.
            rts._broadcast_switch(
                proc, node, handle,
                ("shard-switch", obj_id, src, new_shard, epoch), shard=src)
            # Arrive: prove the destination group's sequencing path carries
            # the object before reporting the move complete.
            rts._broadcast_switch(
                proc, node, handle,
                ("shard-arrive", obj_id, src, new_shard, epoch),
                shard=new_shard)
            return True
        finally:
            self.in_progress.discard(obj_id)

    def _apply_shard_switch(self, node_id: int, shard: int,
                            delivered: "DeliveredMessage") -> None:
        """One member's drain point in the *source* group's total order."""
        rts = self.rts
        (_, obj_id, src, dst, epoch, invocation_id) = delivered.payload
        origin = delivered.origin
        if rts._superseded_switch(node_id, obj_id, epoch, origin,
                                  invocation_id):
            return
        rts._node_epoch[(node_id, obj_id)] = epoch
        rts.cluster.node(node_id).charge_overhead(
            rts.cost_model.cpu.operation_dispatch_cost)
        # Destination-order writes that outran this switch apply now, on
        # the state every pre-switch source write has already reached; our
        # own still-pending stale writes are doomed (they can only be
        # sequenced behind this switch) and are released for re-issue into
        # the destination order inside the common tail.
        rts._finish_switch_delivery(node_id, obj_id, epoch, origin,
                                    invocation_id)

    def _apply_shard_arrive(self, node_id: int, shard: int,
                            delivered: "DeliveredMessage") -> None:
        """One member's arrival marker in the *destination* group's order."""
        rts = self.rts
        (_, obj_id, src, dst, epoch, invocation_id) = delivered.payload
        key = (node_id, obj_id)
        rts.cluster.node(node_id).charge_overhead(
            rts.cost_model.cpu.operation_dispatch_cost)
        if epoch > rts._dest_epoch.get(key, 0):
            rts._dest_epoch[key] = epoch
        if delivered.origin == node_id:
            rts._resolve(invocation_id, None)
        rts._migration_settled(obj_id)

    def in_move_cooldown(self, obj_id: int) -> bool:
        """Churn damping: an object the controller moved less than
        ``rebalance.cooldown`` virtual seconds ago stays put, so
        near-balanced load stops shuffling the same object between groups
        (each move costs a drain-and-switch in two total orders)."""
        rts = self.rts
        if rts.rebalance is None:
            return False
        last = self._last_moved_at.get(obj_id)
        return last is not None and rts.sim.now - last < rts.rebalance.cooldown

    # -- primary seats ---------------------------------------------------- #

    def heaviest_writer(self, obj_id: int) -> Optional[int]:
        """The live node with the most observed writes to ``obj_id``."""
        rts = self.rts
        decider = rts.replication.decider
        live = [node.node_id for node in rts.cluster.nodes if node.alive]
        if not live:
            return None
        best = max(live, key=lambda nid: (
            decider.stats_for(obj_id, nid).total_writes, -nid))
        if decider.stats_for(obj_id, best).total_writes == 0:
            return None
        return best

    def relocate_primary(self, proc: "SimProcess", handle: "ObjectHandle",
                         target: Optional[int] = None) -> bool:
        rts = self.rts
        obj_id = handle.obj_id
        if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
            raise RtsError(
                f"{handle.name!r} is broadcast-managed; relocate_primary "
                "applies to primary-copy objects (use move_shard instead)")
        if target is None:
            target = self.heaviest_writer(obj_id)
            if target is None:
                return False
        if not rts.cluster.node(target).alive:
            raise RtsError(f"node {target} is crashed and cannot become "
                           f"the primary of {handle.name!r}")
        if target in rts.recovery.catching_up or target in rts.elasticity.draining:
            # Alive but not (or not staying) a full member: a seat parked
            # there would serve from un-reseeded state or be orphaned the
            # moment the drain retires the machine.  Abort cleanly.
            return False
        primary = rts.directory.primary_of(obj_id)
        if target == primary:
            return False
        if not rts.cluster.node(primary).alive:
            # The seat is already dead; the crash takeover owns the object.
            return False
        if not self._admit(obj_id):
            return False
        rts._ensure_router()
        self.in_progress.add(obj_id)
        try:
            node = rts._node_of(proc)
            epoch_before = rts._epoch_by_obj.get(obj_id, 0)
            try:
                state, version = rts.pcopy.snapshot_seat(proc, node, primary,
                                                         obj_id)
            except RpcPeerDeadError:
                # The old primary died mid-freeze: abort cleanly — the
                # crash takeover recovers the object instead.
                return False
            if (not rts.cluster.node(target).alive
                    or rts._epoch_by_obj.get(obj_id, 0) != epoch_before):
                # Either the chosen seat died while the snapshot was being
                # taken, or the old primary died right after serving the
                # freeze and a crash takeover already reseated the object
                # (its successor may hold writes this snapshot predates).
                # Abort, unfreeze, and let the bounced writers resume.
                rts.pcopy.frozen.discard(obj_id)
                return False
            table = dict(rts.pcopy.applied_table(primary, obj_id))
            scope = tuple(sorted(
                set(rts.directory.entry(obj_id).copyset) | {primary, target}))
            rts.stats.primary_relocations += 1
            rts.relocations.append((obj_id, primary, target))
            self.reseat(proc, node, handle, target, scope, epoch_before + 1,
                        (state, version, table))
            return True
        finally:
            self.in_progress.discard(obj_id)

    def reseat(self, proc: "SimProcess", node: "Node", handle: "ObjectHandle",
               new_primary: int, scope: Tuple[int, ...], epoch: int,
               snapshot: Tuple[Any, int, Dict]) -> None:
        """Seat ``new_primary`` on a snapshot, in the object's total order.

        The shared tail of a seat relocation and a crash takeover: bump the
        epoch, rewrite the directory from ``scope`` (the members whose
        copies the switch refreshes), unfreeze, record the snapshot as the
        committed state (so a crash of the new seat before its first commit
        still recovers it), and broadcast the snapshot-carrying switch.
        """
        rts = self.rts
        obj_id = handle.obj_id
        state, version, table = snapshot
        rts._epoch_by_obj[obj_id] = epoch
        rts._migrating.add(obj_id)
        entry = rts.directory.entry(obj_id)
        entry.primary_node = new_primary
        entry.copyset = set(scope)
        rts.pcopy.frozen.discard(obj_id)
        rts.pcopy.last_committed[obj_id] = snapshot
        rts._broadcast_switch(
            proc, node, handle,
            ("switch", obj_id, rts._policy_by_obj[obj_id], new_primary, state,
             version, epoch, scope, table),
            size=32 + estimate_size(state) + estimate_size(table))
