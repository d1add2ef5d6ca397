"""Recovery: primary takeover after a crash, rejoin after a recovery.

A dead primary seat is reseated on a deterministic successor (the freshest
surviving copy, else the lowest live node restoring the last committed
record) with the same scoped ``switch`` a relocation uses.  A recovered
machine re-earns membership shard by shard: a sequenced ``rejoin`` anchor
fixes its re-entry point, a donor unicasts the state ordered before it,
and deliveries between anchor and seed are buffered and replayed on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from ..amoeba.broadcast.protocol import CONTROL_MESSAGE_SIZE
from ..errors import RtsError
from .broadcast import _PendingWrite
from .policy import MECHANISM_BROADCAST, MECHANISM_PRIMARY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.broadcast.protocol import DeliveredMessage
    from ..sim.process import SimProcess
    from .hybrid import HybridRts

#: Out-of-band rejoin traffic: a donor unicasts a recovered member the state
#: covering everything ordered before its rejoin anchor, and the member can
#: re-request the seed if the chosen donor died before sending it.
KIND_SEED = "rts.seed"
KIND_SEED_REQ = "rts.seed_req"


@dataclass
class RecoveryRecord:
    """One primary takeover after a primary-node crash, for reports/tests.

    ``from_snapshot`` is true when no surviving secondary held a valid copy
    and the takeover fell back to the last committed state record (the
    primary-invalidate worst case); ``completed_at - crashed_at`` is the
    object's write-unavailability window in virtual seconds.
    """

    obj_id: int
    name: str
    old_primary: int
    new_primary: int
    epoch: int
    from_snapshot: bool
    crashed_at: float
    completed_at: Optional[float] = None

    @property
    def window(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.crashed_at


@dataclass
class RejoinRecord:
    """One recovered node's catch-up back to full membership.

    ``completed_at - recovered_at`` is the window during which the member
    was alive but not yet a full member (reads served stale or not at all,
    gap requests skipped it); ``objects_reseeded`` counts the replica
    copies the rejoin seeds restored, and ``deliveries_replayed`` the
    deliveries that landed between an anchor and its seed and were
    replayed on top of the seeded state.
    """

    node_id: int
    recovered_at: float
    completed_at: Optional[float] = None
    objects_reseeded: int = 0
    seats_handed_back: int = 0
    deliveries_replayed: int = 0

    @property
    def window(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.recovered_at


class Recovery:
    """Crash takeovers of primary seats and rejoin catch-up of members."""

    def __init__(self, rts: "HybridRts") -> None:
        self.rts = rts
        #: obj_id -> node coordinating an in-flight takeover (so a second
        #: crash can restart recovery if the coordinator died too).
        self._recovering: Dict[int, int] = {}
        #: Nodes whose rejoin catch-up has not completed: they must not be
        #: targeted by seat moves or act as seed donors, and cluster-wide
        #: reconfiguration (migrations, shard moves) pauses while this is
        #: non-empty, so a seed is never computed against routes that shift
        #: under it.
        self.catching_up: Set[int] = set()
        #: Per-node rejoin incarnation counter: a crash during catch-up
        #: abandons the old rejoin thread and invalidates its seeds.
        self._rejoin_epoch: Dict[int, int] = {}
        #: (node_id, shard) pairs whose out-of-band seed has not arrived.
        self.awaiting_seed: Set[Tuple[int, int]] = set()
        #: Deliveries a rejoining member received between its anchor and
        #: its seed, replayed in order once the seed installs.
        self._seed_buffer: Dict[Tuple[int, int], List["DeliveredMessage"]] = {}
        self.installed = False
        rts.register_delivery("rejoin", self._apply_rejoin)

    def install(self) -> None:
        """Register the rejoin listeners and seed handlers once per cluster."""
        if self.installed:
            return
        self.installed = True
        for node in self.rts.cluster.nodes:
            nid = node.node_id
            node.on_recover(lambda n=nid: self._on_node_recover(n))
            node.on_crash(lambda n=nid: self._abort_rejoin(n))
            node.register_handler(
                KIND_SEED, lambda m, n=nid: self._on_seed(n, m.payload))
            node.register_handler(
                KIND_SEED_REQ,
                lambda m, n=nid: self._on_seed_request(n, m.payload))

    # -- primary takeover ------------------------------------------------- #

    def schedule_takeovers(self) -> None:
        """Start a takeover for every object whose primary seat is dead.

        Runs inside the node-crash listener.  The successor is chosen
        deterministically (freshest surviving copy — highest coherence
        version — ties to the lowest node id; with no valid copy left, the
        lowest live node id restores from the commit record), and the
        takeover itself runs in a thread on the successor: the broadcast
        switch it sends cannot ride the crash listener's event context.
        """
        rts = self.rts
        if not rts.cluster.network.supports_broadcast:
            # No total order to carry a takeover switch on this hardware:
            # the object dies with its primary, exactly as in the paper.
            return
        for obj_id in rts.directory.objects():
            if rts._policy_by_obj.get(obj_id) is None:
                continue
            if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                continue
            primary = rts.directory.primary_of(obj_id)
            if rts.cluster.node(primary).alive:
                continue
            coordinator = self._recovering.get(obj_id)
            if coordinator is not None and rts.cluster.node(coordinator).alive:
                continue  # a live takeover is already on its way
            successor = self._choose_successor(obj_id)
            if successor is None:
                continue  # no live machine (or no record) to recover onto
            self._recovering[obj_id] = successor
            rts.cluster.node(successor).kernel.spawn_thread(
                self._take_over, obj_id, primary, rts.sim.now,
                name=f"takeover:{rts.handle(obj_id).name}", daemon=True)

    def _choose_successor(self, obj_id: int) -> Optional[int]:
        """The deterministic takeover winner for one dead-primary object."""
        rts = self.rts
        holders = [
            node.node_id for node in rts.cluster.nodes
            if node.alive and rts.managers[node.node_id].has_valid_copy(obj_id)
        ]
        if holders:
            return max(holders, key=lambda nid: (
                rts.managers[nid].get(obj_id).version, -nid))
        if obj_id not in rts.pcopy.last_committed:
            return None
        live = [node.node_id for node in rts.cluster.nodes if node.alive]
        return min(live) if live else None

    def _take_over(self, obj_id: int, old_primary: int, crashed_at: float) -> None:
        """Takeover body, running on the successor node.

        Re-validates the situation (another takeover, a relocation or a
        policy migration may have won the race), promotes this node's copy —
        or the last-committed record when no valid copy survived — and
        reseats the object on this node with an epoch-stamped ``switch``
        scoped to the surviving copy holders.  The new primary refuses
        writes until it has delivered its own switch.
        """
        rts = self.rts
        proc = rts.sim.current_process
        node = rts._node_of(proc)
        try:
            if (rts._policy_by_obj.get(obj_id) is None
                    or rts._mechanism_of(obj_id) != MECHANISM_PRIMARY):
                return
            if rts.cluster.node(rts.directory.primary_of(obj_id)).alive:
                return  # superseded: the seat already landed somewhere live
            handle = rts.handle(obj_id)
            successor = node.node_id
            manager = rts.managers[successor]
            if manager.has_valid_copy(obj_id):
                replica = manager.get(obj_id)
                snapshot = (replica.instance.marshal_state(), replica.version,
                            dict(rts.pcopy.applied_table(successor, obj_id)))
                from_snapshot = False
            else:
                committed = rts.pcopy.last_committed.get(obj_id)
                if committed is None:
                    return  # nothing to recover from
                state, version, committed_table = committed
                snapshot = (state, version, dict(committed_table))
                from_snapshot = True
            rts._ensure_router()
            epoch = rts._epoch_by_obj.get(obj_id, 0) + 1
            holders = [
                n.node_id for n in rts.cluster.nodes
                if n.alive and rts.managers[n.node_id].has_valid_copy(obj_id)
            ]
            scope = tuple(sorted(set(holders) | {successor}))
            rts.stats.primary_recoveries += 1
            record = RecoveryRecord(
                obj_id=obj_id, name=handle.name, old_primary=old_primary,
                new_primary=successor, epoch=epoch,
                from_snapshot=from_snapshot, crashed_at=crashed_at)
            rts.recoveries.append(record)
            rts.reconfig.reseat(proc, node, handle, successor, scope, epoch,
                                snapshot)
            record.completed_at = rts.sim.now
        finally:
            if self._recovering.get(obj_id) == node.node_id:
                self._recovering.pop(obj_id, None)

    # -- rejoin after recovery -------------------------------------------- #

    def is_caught_up(self, node_id: int) -> bool:
        if node_id in self.catching_up:
            return False
        router = self.rts.router
        if router is not None:
            for shard in router.active_shards():
                if not router.group_for(shard).member(node_id).synced:
                    return False
        return True

    def buffer_delivery(self, node_id: int, key: Tuple[int, int],
                        delivered: "DeliveredMessage") -> bool:
        """Hold a delivery that reached a member still awaiting its seed.

        The member re-entered the order at its rejoin anchor but the
        out-of-band seed (the state covering everything before the anchor)
        has not arrived yet; post-anchor deliveries are buffered for
        ordered replay on top of the seeded state.  Only the member's own
        anchor passes through (it wakes the rejoin thread and carries no
        state).
        """
        payload = delivered.payload
        if payload[0] == "rejoin" and payload[1] == node_id:
            return False
        self._seed_buffer.setdefault(key, []).append(delivered)
        return True

    def _abort_rejoin(self, crashed: int) -> None:
        """A crash voids any rejoin catch-up in progress for the node.

        Bumping the rejoin epoch makes the running catch-up thread abandon
        itself at its next blocking point and invalidates any seed still in
        flight toward the dead machine, so a *second* recovery starts from
        a clean slate instead of accepting state captured for the first.
        """
        if crashed in self.catching_up:
            self.catching_up.discard(crashed)
            self._rejoin_epoch[crashed] = self._rejoin_epoch.get(crashed, 0) + 1
        for key in [k for k in self.awaiting_seed if k[0] == crashed]:
            self.awaiting_seed.discard(key)
        for key in [k for k in self._seed_buffer if k[0] == crashed]:
            del self._seed_buffer[key]
        # Commits that died mid-flight on the crashed machine must not
        # wedge a later freeze of a recovered or relocated seat.
        inflight = self.rts.pcopy.inflight_writes
        for key in [k for k in inflight if k[0] == crashed]:
            del inflight[key]

    def _on_node_recover(self, recovered: int) -> None:
        """React to a machine recovery: apply the crash's loss, start catch-up.

        Runs synchronously in the recover listener.  The crash's loss of
        RTS state is applied here rather than at crash time (so runs that
        never recover a node behave exactly as before): every replica the
        machine held — both mechanisms — its applied-write tables, epoch
        cursors, deferred traffic and write batchers are gone.  A rejoin
        thread then re-earns membership shard by shard before the member
        serves the cluster again.
        """
        rts = self.rts
        manager = rts.managers[recovered]
        for obj_id in list(manager.replicas):
            manager.discard(obj_id)
            # Drop the wiped machine from the copyset (the primary stays:
            # a dead/blank seat is the crash takeover's business).
            try:
                entry = rts.directory.entry(obj_id)
            except RtsError:
                continue
            if entry.primary_node != recovered:
                entry.copyset.discard(recovered)
        rts.pcopy.forget_node(recovered)
        for table in (rts._node_epoch, rts._dest_epoch):
            for key in [k for k in table if k[0] == recovered]:
                del table[key]
        if rts._txn_layer is not None:
            # The member's lock entries and outcome markers died with it;
            # the rejoin seeds re-establish them from a donor.
            rts._txn_layer.on_node_recover(recovered)
        rts.bcast.forget_node(recovered)
        generation = self._rejoin_epoch.get(recovered, 0) + 1
        self._rejoin_epoch[recovered] = generation
        self.catching_up.add(recovered)
        record = RejoinRecord(node_id=recovered, recovered_at=rts.sim.now)
        rts.rejoins.append(record)
        rts.cluster.node(recovered).kernel.spawn_thread(
            self._rejoin_body, recovered, generation, record,
            name=f"rejoin:{recovered}", daemon=True)

    def _rejoin_body(self, recovered: int, generation: int,
                     record: RejoinRecord) -> None:
        """Catch-up thread on a recovered node: seats, anchors, seeds, epochs."""
        rts = self.rts
        proc = rts.sim.current_process
        node = rts.cluster.node(recovered)

        def abandoned() -> bool:
            return (self._rejoin_epoch.get(recovered, 0) != generation
                    or not node.alive)

        if rts.router is not None:
            for shard in rts.router.active_shards():
                if abandoned():
                    return
                self._rejoin_shard(proc, recovered, shard, generation)
        if abandoned():
            return
        # Primary-mechanism objects carry no state in the seeds (their
        # copies re-replicate on demand); jump this member's epoch cursors
        # to the present so coherence traffic is not deferred forever
        # waiting on pre-crash switches the member will never deliver.
        # max() only: a post-anchor switch replayed from the seed buffer
        # may already have advanced a cursor past the global value here.
        for handle in sorted(rts.handles(), key=lambda h: h.obj_id):
            obj_id = handle.obj_id
            if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                continue
            key = (recovered, obj_id)
            rts._node_epoch[key] = max(rts._node_epoch.get(key, 0),
                                       rts._epoch_by_obj.get(obj_id, 0))
            rts._dest_epoch[key] = max(rts._dest_epoch.get(key, 0),
                                       rts._dest_epoch_required.get(obj_id, 0))
        self.catching_up.discard(recovered)
        rts.stats.node_rejoins += 1
        record.completed_at = rts.sim.now
        # Seat hand-back happens after the member is a full member again
        # (the relocation guard would refuse a catching-up target).
        record.seats_handed_back = self._hand_back_seats(proc, recovered)
        rts.stats.seats_handed_back += record.seats_handed_back

    def _rejoin_shard(self, proc: "SimProcess", recovered: int, shard: int,
                      generation: int) -> None:
        """Re-enter one broadcast group's total order (anchor + seed)."""
        rts = self.rts
        group = rts.router.group_for(shard)
        member = group.member(recovered)
        node = rts.cluster.node(recovered)
        if group.sequencer_node_id == recovered:
            # The seat's in-memory state died with the crash; hand it to
            # the lowest caught-up peer, renumbering from live evidence.
            donors = self._seed_donors(shard, recovered)
            if not donors:
                # Sole survivor: re-found the order from scratch.  Whatever
                # predated the crash is lost cluster-wide.
                group.install_sequencer(recovered, 1)
                member.mark_synced()
                return
            group.handoff_sequencer(donors[0], trust_old=False)
        key = (recovered, shard)
        self.awaiting_seed.add(key)
        invocation_id = next(rts._invocation_ids)
        rts._pending[invocation_id] = _PendingWrite(proc=proc)
        proc.flush()
        member.begin_rejoin(("rejoin", recovered, generation, invocation_id),
                            size=CONTROL_MESSAGE_SIZE)
        proc.suspend()
        rts._pending.pop(invocation_id, None)
        # Await the out-of-band seed; re-request on a timeout (the donor
        # chosen at the anchor's delivery may have died before sending, or
        # its unicast may have been lost).
        while key in self.awaiting_seed:
            proc.hold(group.retry_timeout)
            if (self._rejoin_epoch.get(recovered, 0) != generation
                    or not node.alive):
                return
            if key in self.awaiting_seed:
                self._request_seed(recovered, shard, generation)

    def _seed_donors(self, shard: int, rejoining: int) -> List[int]:
        """Live, synced, caught-up members able to seed a rejoin (sorted)."""
        group = self.rts.router.group_for(shard)
        return sorted(
            nid for nid, member in group.members.items()
            if member.node.alive and member.synced and nid != rejoining
            and nid not in self.catching_up)

    def _apply_rejoin(self, node_id: int, shard: int,
                      delivered: "DeliveredMessage") -> None:
        """One member's delivery of a recovered peer's rejoin anchor.

        At the rejoining member itself the anchor's arrival already
        fast-forwarded the ordering engine (group layer); here it only
        wakes the rejoin thread.  At every other member, the lowest-id
        eligible peer captures the seed — the shard's object states exactly
        as of the anchor's position in the order — and unicasts it.
        """
        rts = self.rts
        _, rejoining, generation, invocation_id = delivered.payload
        rts.cluster.node(node_id).charge_overhead(
            rts.cost_model.cpu.operation_dispatch_cost)
        if node_id == rejoining:
            rts._resolve(invocation_id, None)
            return
        if self._rejoin_epoch.get(rejoining, 0) != generation:
            return  # a newer crash already voided this rejoin
        donors = self._seed_donors(shard, rejoining)
        if donors and donors[0] == node_id:
            # ``upto`` is the anchor's own position: at this point in the
            # delivery loop the donor's state reflects exactly the order up
            # to and including the anchor (later messages in the same
            # deliverable batch have not run their handlers yet).
            self._send_seed(node_id, rejoining, shard, generation,
                            upto=delivered.seqno)

    def _send_seed(self, donor: int, rejoining: int, shard: int,
                   generation: int, upto: int) -> None:
        """Capture and unicast one shard's rejoin seed from ``donor``.

        The capture is synchronous at the donor's delivery position
        ``upto``: the recipient skips delivering anything at or below it,
        so seed state plus replayed order reconstruct the donor's history
        exactly.  Broadcast-mechanism objects routed through this shard
        travel with state, version and epoch cursors; primary-mechanism
        objects need no state here (copies re-replicate on demand).
        """
        rts = self.rts
        manager = rts.managers[donor]
        objects: List[Tuple[Any, ...]] = []
        shard_objs: List[int] = []
        payload_bytes = 0
        for handle in sorted(rts.handles(), key=lambda h: h.obj_id):
            obj_id = handle.obj_id
            if rts._mechanism_of(obj_id) != MECHANISM_BROADCAST:
                continue
            if rts.router.assign(obj_id, handle.name) != shard:
                continue
            shard_objs.append(obj_id)
            if not manager.has_valid_copy(obj_id):
                continue
            replica = manager.get(obj_id)
            objects.append((obj_id, replica.instance.marshal_state(),
                            replica.version,
                            rts._node_epoch.get((donor, obj_id), 0),
                            rts._dest_epoch.get((donor, obj_id), 0)))
            payload_bytes += replica.instance.state_size()
        payload = {"shard": shard, "generation": generation, "upto": upto,
                   "objects": objects}
        if rts._txn_layer is not None:
            # Transaction lock entries and queues travel with the replica
            # state: they are as much a part of the donor's position in
            # the order as the object versions are.
            payload["txn"] = rts._txn_layer.seed_state(donor, shard_objs)
        node = rts.cluster.node(donor)
        node.send(node.make_message(
            rejoining, KIND_SEED, size=32 + payload_bytes, payload=payload))

    def _request_seed(self, rejoining: int, shard: int, generation: int) -> None:
        """Re-request a seed that never arrived (donor died or loss)."""
        donors = self._seed_donors(shard, rejoining)
        if not donors:
            # Degraded rejoin: nobody left who could seed this member.
            # Whatever predated the anchor is lost cluster-wide; proceed
            # with what the order delivers from here on.
            self._finish_seed(rejoining, shard, upto=0)
            return
        node = self.rts.cluster.node(rejoining)
        node.send(node.make_message(
            donors[0], KIND_SEED_REQ, size=CONTROL_MESSAGE_SIZE,
            payload={"shard": shard, "requester": rejoining,
                     "generation": generation}))

    def _on_seed_request(self, node_id: int, payload: Dict[str, Any]) -> None:
        """A donor answers a rejoiner's re-request with a fresh seed."""
        rejoining = payload["requester"]
        shard = payload["shard"]
        generation = payload["generation"]
        if self._rejoin_epoch.get(rejoining, 0) != generation:
            return
        member = self.rts.router.group_for(shard).member(node_id)
        if (not member.node.alive or not member.synced
                or node_id in self.catching_up):
            return  # cannot serve a seed we do not fully hold ourselves
        # Outside a delivery handler every delivered message has been
        # applied, so the donor's position is its delivery cursor.
        self._send_seed(node_id, rejoining, shard, generation,
                        upto=member.engine.next_expected - 1)

    def _on_seed(self, node_id: int, payload: Dict[str, Any]) -> None:
        """The rejoining member installs a seed and opens its delivery gate."""
        rts = self.rts
        shard = payload["shard"]
        if (node_id, shard) not in self.awaiting_seed:
            return  # duplicate (two donors raced); the first one won
        if self._rejoin_epoch.get(node_id, 0) != payload["generation"]:
            return  # stale seed from a rejoin a later crash voided
        manager = rts.managers[node_id]
        count = 0
        for obj_id, state, version, node_epoch, dest_epoch in payload["objects"]:
            manager.install_snapshot(rts.handle(obj_id), state, version)
            rts.stats.replicas_created += 1
            rts._node_epoch[(node_id, obj_id)] = node_epoch
            if dest_epoch:
                rts._dest_epoch[(node_id, obj_id)] = dest_epoch
            rts.bcast.wake_replica_waiters(node_id, obj_id)
            count += 1
        if rts._txn_layer is not None and payload.get("txn"):
            rts._txn_layer.install_seed(node_id, payload["txn"])
        record = self._rejoin_record(node_id)
        if record is not None:
            record.objects_reseeded += count
        self._finish_seed(node_id, shard, upto=payload["upto"])

    def _rejoin_record(self, node_id: int) -> Optional[RejoinRecord]:
        """The latest rejoin of ``node_id``, if it ever rejoined."""
        return next((r for r in reversed(self.rts.rejoins) if r.node_id == node_id), None)

    def _finish_seed(self, node_id: int, shard: int, upto: int) -> None:
        """Open the delivery gate: replay buffered deliveries, then flush.

        Order matters: the buffered deliveries (received between anchor and
        seed) carry the *earliest* post-``upto`` positions, so they replay
        before :meth:`GroupMember.resume_delivery` skips the cursor past
        ``upto`` and flushes anything later still parked in the engine.
        """
        key = (node_id, shard)
        self.awaiting_seed.discard(key)
        deliver = self.rts._deliverer(node_id, shard)
        replayed = 0
        for delivered in self._seed_buffer.pop(key, []):
            if delivered.seqno <= upto:
                continue  # covered by the seed snapshot
            deliver(delivered)
            replayed += 1
        record = self._rejoin_record(node_id)
        if record is not None:
            record.deliveries_replayed += replayed
        self.rts.router.group_for(shard).member(node_id).resume_delivery(upto)

    def _hand_back_seats(self, proc: "SimProcess", recovered: int) -> int:
        """Hand primary seats back toward a rejoined heaviest writer."""
        rts = self.rts
        handed = 0
        for handle in sorted(rts.handles(), key=lambda h: h.obj_id):
            obj_id = handle.obj_id
            if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                continue
            if rts.directory.primary_of(obj_id) == recovered:
                continue
            if rts.reconfig.heaviest_writer(obj_id) != recovered:
                continue
            if rts.reconfig.relocate_primary(proc, handle, target=recovered):
                handed += 1
        return handed
