"""The primary-copy mechanism: one primary seat, dynamic secondary copies.

:class:`PrimaryCopyPath` serves reads from a valid local copy or by RPC to
the primary, and sends writes through the primary, which propagates them
by invalidation or two-phase update (:mod:`repro.rts.p2p`).  It owns the
coherence messages and RPC ports, the lag probes, the freeze service seat
moves use, and the exactly-once bookkeeping: per-copy applied-write tables
and the last-committed record a crash takeover falls back to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from ..amoeba.message import estimate_size
from ..amoeba.rpc import RpcReply, RpcRequest
from ..errors import RpcPeerDeadError, RtsError
from .broadcast import MIGRATED
from .object_model import RETRY
from .p2p.invalidation import KIND_INVALIDATE, InvalidationProtocol
from .p2p.update import KIND_UNLOCK, KIND_UPDATE, TwoPhaseUpdateProtocol
from .policy import FIXED_POLICIES, MECHANISM_PRIMARY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.node import Node
    from ..sim.process import SimProcess
    from .base import ObjectHandle
    from .hybrid import HybridRts

KIND_ACK = "p2p.ack"
KIND_DROP = "p2p.drop"

PORT_READ = "orca.obj.read"
PORT_WRITE = "orca.obj.write"
PORT_FETCH = "orca.obj.fetch"
#: Freeze-and-snapshot service used by policy migrations and seat moves.
PORT_MIGRATE = "orca.obj.migrate"

#: On-wire retry markers carried in RPC replies (strings, like the classic
#: ``"__retry__"``, so they survive the payload plumbing untouched).
MARKER_RETRY = "__retry__"
MARKER_MIGRATED = "__migrated__"
MARKER_MIGRATING = "__migrating__"


@dataclass
class _AckRound:
    """Fan-out bookkeeping: one primary write waiting for acknowledgements."""

    remaining: int
    proc: Optional["SimProcess"] = None
    #: Nodes still owing an acknowledgement; a node crash releases its debt
    #: (a dead machine will never answer, and its copy is gone with it).
    destinations: Set[int] = None  # type: ignore[assignment]


class PrimaryCopyPath:
    """Reads local-or-RPC, writes via the primary and a coherence protocol."""

    #: Bounded re-probe budget for a member lagging behind a switch it may
    #: have lost to packet loss (see arm_lag_probe).
    LAG_PROBE_LIMIT = 12

    def __init__(self, rts: "HybridRts") -> None:
        self.rts = rts
        self.protocols = {
            "invalidation": InvalidationProtocol(self),
            "update": TwoPhaseUpdateProtocol(self),
        }
        self.installed = False
        self._round_ids = itertools.count(1)
        self.rounds: Dict[int, _AckRound] = {}
        #: round id -> node that must receive the acknowledgements.
        self._ack_destinations: Dict[int, int] = {}
        #: Coherence messages that raced ahead of a switch at some member.
        self.deferred: Dict[Tuple[int, int], List[Tuple[str, Dict[str, Any]]]] = {}
        #: (node_id, obj_id) -> armed lag-probe timer (see arm_lag_probe).
        self._lag_probes: Dict[Tuple[int, int], int] = {}
        #: Objects frozen at their primary for a state transfer.
        self.frozen: Set[int] = set()
        #: (primary, obj_id) -> count of primary-write commits in flight
        #: there; a freeze drains this to zero before snapshotting (two
        #: overlapping two-phase rounds share one replica lock bit, so the
        #: lock alone cannot prove quiescence).
        self.inflight_writes: Dict[Tuple[int, int], int] = {}
        #: Cluster-unique write-invocation ids for the primary-copy path.
        self._write_ids = itertools.count(1)
        #: (node_id, obj_id) -> {origin: (seq, result)} of the latest write
        #: each client process got applied there.  The dedup table that
        #: makes a client's re-issue after a primary crash idempotent; it
        #: travels with every copy (fetches, update fan-outs, relocation
        #: and takeover switches).  Each client has at most one write
        #: outstanding, so retaining only its newest id bounds the table
        #: at O(clients) however long the run.
        self.applied: Dict[Tuple[int, int], Dict[str, Tuple[int, Any]]] = {}
        #: obj_id -> (state, version, dedup table) as of the last committed
        #: primary write — the commit record a takeover falls back to when
        #: the only valid copy died with its machine (primary-invalidate
        #: objects after any write).
        self.last_committed: Dict[int, Tuple[Any, int, Dict]] = {}

    def install(self) -> None:
        """Register the point-to-point handlers, RPC services and crash hook."""
        self.installed = True
        rts = self.rts
        for node in rts.cluster.nodes:
            nid = node.node_id
            node.on_crash(lambda n=nid: self._on_node_crash(n))
            for kind in (KIND_INVALIDATE, KIND_UPDATE, KIND_UNLOCK):
                node.register_handler(
                    kind, lambda m, n=nid: self._on_coherence(n, m.kind, m.payload))
            node.register_handler(KIND_ACK,
                                  lambda m, n=nid: self._on_ack(n, m.payload))
            node.register_handler(KIND_DROP,
                                  lambda m, n=nid: self._on_drop(n, m.payload))
            rpc = rts.cluster.rpc_for(nid)
            rpc.register_service(PORT_READ,
                                 lambda req, n=nid: self._serve_read(n, req))
            rpc.register_service(PORT_WRITE,
                                 lambda req, n=nid: self._serve_write(n, req),
                                 may_block=True)
            rpc.register_service(PORT_FETCH,
                                 lambda req, n=nid: self._serve_fetch(n, req),
                                 may_block=True)
            rpc.register_service(PORT_MIGRATE,
                                 lambda req, n=nid: self._serve_migrate(n, req),
                                 may_block=True)

    def _protocol_for(self, obj_id: int):
        return self.protocols[FIXED_POLICIES[self.rts._policy_by_obj[obj_id]].protocol]

    def forget_node(self, node_id: int) -> None:
        """A recovered machine's dedup tables and deferred traffic are gone."""
        for table in (self.applied, self.deferred):
            for key in [k for k in table if k[0] == node_id]:
                del table[key]

    # -- client side ------------------------------------------------------ #

    def create(self, proc: "SimProcess", node: "Node", handle: "ObjectHandle",
               spec_class, args: Tuple[Any, ...],
               kwargs: Optional[Dict[str, Any]]) -> None:
        """Install the primary copy on the caller's machine."""
        rts = self.rts
        instance = spec_class.create(args, kwargs)
        rts.managers[node.node_id].install(handle.obj_id, handle.name, instance,
                                           is_primary=True)
        rts.directory.register(handle.obj_id, node.node_id)
        rts.stats.replicas_created += 1
        self.commit_record(handle.obj_id, node.node_id)
        proc.advance(rts.cost_model.cpu.operation_dispatch_cost)
        if rts.replicate_everywhere:
            for other in rts.cluster.nodes:
                if other.node_id != node.node_id:
                    self.replicate_to(handle, other.node_id)

    def replicate_to(self, handle: "ObjectHandle", node_id: int) -> None:
        """Eagerly install a secondary copy on ``node_id`` (no cost charged)."""
        rts = self.rts
        primary = rts.directory.primary_of(handle.obj_id)
        source = rts.managers[primary].get(handle.obj_id)
        if rts.managers[node_id].has_valid_copy(handle.obj_id):
            return
        rts.managers[node_id].install_snapshot(
            handle, source.instance.marshal_state(), source.version)
        self.applied[(node_id, handle.obj_id)] = dict(
            self.applied_table(primary, handle.obj_id))
        rts.directory.add_copy(handle.obj_id, node_id)
        rts.stats.replicas_created += 1

    def read(self, proc: "SimProcess", nid: int, handle: "ObjectHandle",
             op, args, kwargs) -> Any:
        rts = self.rts
        manager = rts.managers[nid]
        if manager.has_valid_copy(handle.obj_id):
            replica = manager.get(handle.obj_id)
            # Reads wait while the copy is locked by an in-flight update.
            while replica.locked:
                replica.on_next_change(lambda p=proc: p.wake())
                proc.suspend()
            while True:
                result = manager.execute_read(handle.obj_id, op, args, kwargs)
                if result is not RETRY:
                    break
                rts.stats.guard_retries += 1
                replica.on_next_change(lambda p=proc: p.wake())
                proc.suspend()
            rts.stats.note_read(handle.obj_id, local=True)
            return result
        # No local copy: remote read at the primary.
        while True:
            if rts._mechanism_of(handle.obj_id) != MECHANISM_PRIMARY:
                return MIGRATED
            primary = rts.directory.primary_of(handle.obj_id)
            if not rts.cluster.node(primary).alive:
                # The primary died; the read re-routes after the takeover.
                self.await_recovery(proc, handle.obj_id)
                continue
            try:
                result = rts.cluster.rpc_for(nid).call(
                    proc, primary, PORT_READ,
                    payload={"obj_id": handle.obj_id, "op_name": op.name,
                             "args": args, "kwargs": kwargs or {}},
                    size=16 + estimate_size(args),
                )
            except RpcPeerDeadError:
                self.await_recovery(proc, handle.obj_id)
                continue
            if isinstance(result, str) and result == MARKER_MIGRATED:
                return MIGRATED
            if isinstance(result, str) and result == MARKER_MIGRATING:
                # The seat exists but cannot serve yet (e.g. a takeover
                # switch still in flight): back off and retry.
                proc.hold(rts.cost_model.cpu.protocol_cost * 4)
                continue
            if not (isinstance(result, str) and result == MARKER_RETRY):
                rts.stats.note_read(handle.obj_id, local=False)
                return result
            rts.stats.guard_retries += 1
            proc.hold(rts.cost_model.cpu.protocol_cost * 4)

    def _serve_read(self, nid: int, request: RpcRequest) -> Any:
        rts = self.rts
        payload = request.payload
        handle = rts.handle(payload["obj_id"])
        op = handle.spec_class.operation_def(payload["op_name"])
        manager = rts.managers[nid]
        if rts._mechanism_of(payload["obj_id"]) != MECHANISM_PRIMARY:
            # The object migrated away while the read was in flight; the
            # client re-routes it under the new policy.
            return MARKER_MIGRATED
        if not manager.has_valid_copy(payload["obj_id"]):
            # Still a primary-copy object, but this seat cannot serve yet —
            # typically a takeover-elected primary that has not delivered
            # its own switch.  The client backs off and retries (this
            # handler runs in event context and must not block).
            return MARKER_MIGRATING
        result = manager.execute_read(payload["obj_id"], op, payload["args"],
                                      payload["kwargs"])
        if result is RETRY:
            return MARKER_RETRY
        return result

    def write(self, proc: "SimProcess", nid: int, handle: "ObjectHandle",
              op, args, kwargs, wid=None) -> Any:
        rts = self.rts
        obj_id = handle.obj_id
        # One write id per invocation, stable across retries: it is what
        # lets the new primary after a crash (or the old one after a lost
        # reply) recognise a re-issued write and apply it exactly once.
        # The origin is the client *process* (names are deterministic), so
        # dedup state needs only the newest id per origin.  The transaction
        # layer passes its own stable per-sub-operation id instead.
        if wid is None:
            wid = (proc.name, next(self._write_ids))
        while True:
            if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                return self._migrated_result(obj_id, wid)
            primary = rts.directory.primary_of(obj_id)
            if not rts.cluster.node(primary).alive:
                # The primary died; wait out the takeover, then re-route.
                self.await_recovery(proc, obj_id)
                continue
            if primary == nid:
                # The primary must have applied every pre-switch write (i.e.
                # delivered the switch) before it can serialise new ones.
                rts._await_switch(proc, nid, obj_id)
                if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                    return self._migrated_result(obj_id, wid)
                if obj_id in self.frozen:
                    proc.hold(rts.cost_model.cpu.protocol_cost * 4)
                    continue
                if rts.directory.primary_of(obj_id) != nid:
                    # The primary moved while this write was parked across
                    # the switch; route it to the new one.
                    continue
                rts.stats.local_writes += 1
                result = self._commit_write(proc, obj_id, op, args, kwargs, wid)
            else:
                rts.stats.rpc_writes += 1
                try:
                    result = rts.cluster.rpc_for(nid).call(
                        proc, primary, PORT_WRITE,
                        payload={"obj_id": obj_id, "op_name": op.name,
                                 "args": args, "kwargs": kwargs or {},
                                 "wid": wid},
                        size=16 + estimate_size(args) + estimate_size(kwargs or {}),
                    )
                except RpcPeerDeadError:
                    # The primary crashed with this write in flight.  A
                    # surviving secondary takes over; the retry re-routes
                    # there, and the write id suppresses a second apply if
                    # the write already reached the surviving state.
                    self.await_recovery(proc, obj_id)
                    continue
                if isinstance(result, str) and result == MARKER_MIGRATED:
                    return self._migrated_result(obj_id, wid)
                if isinstance(result, str) and result == MARKER_MIGRATING:
                    proc.hold(rts.cost_model.cpu.protocol_cost * 4)
                    continue
                if isinstance(result, str) and result == MARKER_RETRY:
                    result = RETRY
            if result is not RETRY:
                return result
            # Guarded write rejected: wait a little and retry at the primary.
            rts.stats.guard_retries += 1
            proc.hold(rts.cost_model.cpu.protocol_cost * 4)

    def _migrated_result(self, obj_id: int, wid) -> Any:
        """Route a primary write bounced by a concurrent mechanism switch.

        The commit record is the authority on whether an earlier issue of
        this write already committed under the primary regime (its reply
        may have died with the primary).  Re-routing a committed write to
        the broadcast path would apply it a second time — broadcast writes
        carry no ids — so return the recorded result instead.
        """
        committed = self.last_committed.get(obj_id)
        if committed is not None:
            duplicate, recorded = self._lookup_applied(committed[2], wid)
            if duplicate:
                self.rts.stats.deduplicated_writes += 1
                return recorded
        return MIGRATED

    def _commit_write(self, proc: "SimProcess", obj_id: int, op, args, kwargs,
                      wid) -> Any:
        """Dedup-checked protocol write at the primary, plus commit record.

        Runs on the primary node (client or RPC server thread).  A write id
        already present in the primary's applied table is a client re-issue
        of a write that committed (e.g. the reply was lost to a crash): the
        recorded result is returned without touching the object again.
        """
        rts = self.rts
        primary = rts.directory.primary_of(obj_id)
        if rts._txn_layer is not None:
            # A transaction pinning this seat holds ordinary writes here
            # (its own sub-operations pass); serialisation order at the
            # primary is unchanged, the writes just park first.
            rts._txn_layer.seat_gate(proc, obj_id, wid)
        table = self.applied_table(primary, obj_id)
        duplicate, recorded = self._lookup_applied(table, wid)
        if duplicate:
            rts.stats.deduplicated_writes += 1
            return recorded
        key = (primary, obj_id)
        self.inflight_writes[key] = self.inflight_writes.get(key, 0) + 1
        try:
            result = self._protocol_for(obj_id).primary_write(
                proc, obj_id, op, args, kwargs, wid=wid)
        finally:
            remaining = self.inflight_writes.get(key, 0) - 1
            if remaining > 0:
                self.inflight_writes[key] = remaining
            else:
                self.inflight_writes.pop(key, None)
        if result is not RETRY:
            if wid is not None:
                table[wid[0]] = (wid[1], result)
            # The record is refreshed at EVERY commit point, like the
            # write-ahead commit record it models: deferring it while live
            # secondaries exist would lose committed writes when the
            # primary and the last secondary die together (the takeover
            # would restore a stale snapshot).  The O(state) copy per
            # commit is the price of that durability.
            self.commit_record(obj_id, primary)
        return result

    def _serve_write(self, nid: int, request: RpcRequest) -> Any:
        rts = self.rts
        payload = request.payload
        obj_id = payload["obj_id"]
        op = rts.handle(obj_id).spec_class.operation_def(payload["op_name"])
        proc = rts.sim.current_process
        if proc is None:
            raise RtsError("write handler must run in a blocking-capable context")
        if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
            return MARKER_MIGRATED
        rts._await_switch(proc, nid, obj_id)
        if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
            return MARKER_MIGRATED
        if obj_id in self.frozen:
            return MARKER_MIGRATING
        if rts.directory.primary_of(obj_id) != nid:
            # Stale primary: the object migrated here and away again.
            return MARKER_MIGRATING
        result = self._commit_write(proc, obj_id, op, payload["args"],
                                    payload["kwargs"], payload.get("wid"))
        if result is RETRY:
            return MARKER_RETRY
        return result

    def await_recovery(self, proc: "SimProcess", obj_id: int) -> None:
        """Park a client until the object's primary seat is live again."""
        rts = self.rts
        while (rts._mechanism_of(obj_id) == MECHANISM_PRIMARY
               and not rts.cluster.node(rts.directory.primary_of(obj_id)).alive):
            if not rts.cluster.network.supports_broadcast:
                raise RtsError(
                    f"primary of object {obj_id} crashed and this cluster's "
                    f"{rts.cluster.network.name!r} network cannot order a "
                    "takeover switch; the object is lost (as in the paper)")
            proc.hold(rts.cost_model.cpu.protocol_cost * 4)

    # -- dynamic replication --------------------------------------------- #

    def apply_replication_policy(self, proc: "SimProcess", nid: int,
                                 handle: "ObjectHandle") -> None:
        rts = self.rts
        manager = rts.managers[nid]
        has_copy = manager.has_valid_copy(handle.obj_id)
        is_primary = rts.directory.primary_of(handle.obj_id) == nid
        if rts.replication.should_fetch_copy(handle.obj_id, nid, has_copy):
            self._fetch_copy(proc, nid, handle)
        elif rts.replication.should_drop_copy(handle.obj_id, nid, has_copy,
                                              is_primary):
            manager.discard(handle.obj_id)
            rts.directory.remove_copy(handle.obj_id, nid)
            rts.stats.replicas_dropped += 1
            primary = rts.directory.primary_of(handle.obj_id)
            self.send_protocol_message(nid, primary, KIND_DROP,
                                       {"obj_id": handle.obj_id, "node": nid})

    def _fetch_copy(self, proc: "SimProcess", nid: int, handle: "ObjectHandle") -> None:
        """Fetch the object state from the primary and install a local copy."""
        rts = self.rts
        primary = rts.directory.primary_of(handle.obj_id)
        if primary == nid or not rts.cluster.node(primary).alive:
            return
        try:
            reply = rts.cluster.rpc_for(nid).call(
                proc, primary, PORT_FETCH,
                payload={"obj_id": handle.obj_id, "requester": nid},
                size=24,
            )
        except RpcPeerDeadError:
            # The primary died under the fetch; skip it — the next access
            # retries against whatever primary the takeover installs.
            return
        if isinstance(reply, str) and reply == MARKER_MIGRATED:
            return
        state, version, applied = reply
        if rts._mechanism_of(handle.obj_id) != MECHANISM_PRIMARY:
            return
        rts.managers[nid].install_snapshot(handle, state, version)
        self.applied[(nid, handle.obj_id)] = dict(applied)
        rts.stats.replicas_created += 1

    def _serve_fetch(self, nid: int, request: RpcRequest):
        rts = self.rts
        payload = request.payload
        obj_id = payload["obj_id"]
        proc = rts.sim.current_process
        if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
            return MARKER_MIGRATED
        if proc is not None:
            rts._await_switch(proc, nid, obj_id)
        if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
            return MARKER_MIGRATED
        replica = rts.managers[nid].get(obj_id)
        # Do not hand out state in the middle of a write's critical section.
        while replica.locked and proc is not None:
            replica.on_next_change(lambda p=proc: p.wake())
            proc.suspend()
        rts.directory.add_copy(obj_id, payload["requester"])
        state = replica.instance.marshal_state()
        # The applied-write table travels with the copy (bounded at one
        # entry per client), so a secondary promoted after a primary crash
        # can recognise re-issued writes; its bytes ride the reply.
        applied = dict(self.applied_table(nid, obj_id))
        return RpcReply(payload=(state, replica.version, applied),
                        size=(replica.instance.state_size() + 16
                              + estimate_size(applied)))

    # -- freeze and snapshot (seat moves, primary -> broadcast) ----------- #

    def snapshot_seat(self, proc: "SimProcess", node: "Node", primary: int,
                      obj_id: int) -> Tuple[Any, int]:
        """Freeze the object at its primary and return its state, version.

        Runs locally when the caller sits on the primary, otherwise through
        the primary's freeze service (which raises
        :class:`~repro.errors.RpcPeerDeadError` if the primary dies).
        """
        if node.node_id == primary:
            return self._freeze_and_snapshot(proc, primary, obj_id)
        return self.rts.cluster.rpc_for(node.node_id).call(
            proc, primary, PORT_MIGRATE, payload={"obj_id": obj_id}, size=24)

    def _freeze_and_snapshot(self, proc: "SimProcess", primary: int,
                             obj_id: int) -> Tuple[Any, int]:
        """Freeze the primary, drain in-flight writes, snapshot state.

        The freeze comes first so writes arriving during the drain bounce
        (``MARKER_MIGRATING``) instead of starting new coherence rounds.
        The drain must wait on the in-flight commit *count*, not just the
        replica lock: concurrent two-phase rounds share one lock bit, so
        the first round's unlock can expose an unlocked replica while a
        second round is still awaiting acks — snapshotting there would
        miss a write the client is told committed.
        """
        rts = self.rts
        rts._await_switch(proc, primary, obj_id)
        self.frozen.add(obj_id)
        replica = rts.managers[primary].get(obj_id)
        while replica.locked or self.inflight_writes.get((primary, obj_id)):
            if replica.locked:
                replica.on_next_change(lambda p=proc: p.wake())
                proc.suspend()
            else:
                proc.hold(rts.cost_model.cpu.protocol_cost)
        return replica.instance.marshal_state(), replica.version

    def _serve_migrate(self, nid: int, request: RpcRequest) -> RpcReply:
        rts = self.rts
        proc = rts.sim.current_process
        if proc is None:
            raise RtsError("migration freeze must run in a blocking context")
        obj_id = request.payload["obj_id"]
        state, version = self._freeze_and_snapshot(proc, nid, obj_id)
        size = rts.managers[nid].get(obj_id).instance.state_size() + 16
        return RpcReply(payload=(state, version), size=size)

    # -- exactly-once bookkeeping (write ids + commit record) ------------- #

    def applied_table(self, node_id: int, obj_id: int) -> Dict:
        """The applied-write-id table of one machine's copy of one object."""
        return self.applied.setdefault((node_id, obj_id), {})

    def record_applied(self, node_id: int, obj_id: int, wid, result) -> None:
        """Note that ``node_id``'s copy has applied write ``wid``.

        Called by the update protocol's secondary side, so a secondary
        promoted by a takeover can recognise the client re-issue of a write
        that was in flight when the primary died.  Only the newest id per
        origin client is kept (FIFO clients have one write outstanding).
        """
        if wid is None or result is RETRY:
            return
        origin, seq = wid
        self.applied_table(node_id, obj_id)[origin] = (seq, result)

    @staticmethod
    def _lookup_applied(table: Dict, wid) -> Tuple[bool, Any]:
        """Was ``wid`` the last write this copy applied for its origin?"""
        if wid is None:
            return False, None
        entry = table.get(wid[0])
        if entry is not None and entry[0] == wid[1]:
            return True, entry[1]
        return False, None

    def commit_record(self, obj_id: int, primary: Optional[int] = None) -> None:
        """Refresh the object's last-committed record from its primary copy.

        The record — state snapshot, version, and the applied-write table —
        is what a takeover falls back to when no surviving machine holds a
        valid copy (a primary-invalidate object dies with every write's
        sole copy).  It models the commit record the primary writes at the
        protocol's commit point; like the directory it is bookkeeping and
        charges no communication.
        """
        if primary is None:
            primary = self.rts.directory.primary_of(obj_id)
        manager = self.rts.managers[primary]
        if not manager.has_valid_copy(obj_id):
            return
        replica = manager.get(obj_id)
        self.last_committed[obj_id] = (
            replica.instance.marshal_state(), replica.version,
            self.applied_table(primary, obj_id))

    # -- protocol plumbing used by the coherence strategies --------------- #

    def new_transaction(self, expected_acks: int,
                        destinations: Optional[List[int]] = None) -> int:
        """Open one acknowledgement round of a coherence fan-out."""
        round_id = next(self._round_ids)
        self.rounds[round_id] = _AckRound(
            remaining=expected_acks, destinations=set(destinations or ()))
        return round_id

    def await_acks(self, proc: "SimProcess", round_id: int) -> None:
        ack_round = self.rounds[round_id]
        if ack_round.remaining > 0:
            ack_round.proc = proc
            proc.suspend()
        del self.rounds[round_id]

    def send_ack(self, from_node: int, round_id: int) -> None:
        primary_node = self._ack_destinations.get(round_id)
        if primary_node is None:
            return
        self.send_protocol_message(from_node, primary_node, KIND_ACK,
                                   {"txn_id": round_id, "node": from_node})

    def send_protocol_message(self, src: int, dst: int, kind: str,
                              payload: Dict[str, Any]) -> None:
        if kind == KIND_UPDATE:
            size = 32 + estimate_size(payload.get("args", ())) + estimate_size(
                payload.get("kwargs", {}))
        else:
            size = 32
        if kind in (KIND_INVALIDATE, KIND_UPDATE, KIND_UNLOCK):
            # Stamp coherence traffic with the regime it was issued under,
            # so a message that was in flight when a takeover (or switch)
            # superseded its regime is dropped identically at every member.
            payload.setdefault(
                "epoch", self.rts._epoch_by_obj.get(payload["obj_id"], 0))
        node = self.rts.cluster.node(src)
        node.send(node.make_message(dst, kind, payload=payload, size=size))
        if kind in (KIND_INVALIDATE, KIND_UPDATE):
            self._ack_destinations[payload["txn_id"]] = src

    # -- incoming protocol messages --------------------------------------- #

    def _defer_if_lagging(self, nid: int, kind: str,
                          payload: Dict[str, Any]) -> bool:
        """Queue a coherence message that raced ahead of a policy switch.

        A member that has not yet delivered the switch establishing the
        current primary regime must not apply (or discard state for)
        coherence traffic from that regime: the totally-ordered writes the
        switch is sequenced after may still be undelivered locally.
        """
        obj_id = payload["obj_id"]
        key = (nid, obj_id)
        rts = self.rts
        if rts._node_epoch.get(key, 0) >= rts._epoch_by_obj.get(obj_id, 0):
            return False
        self.deferred.setdefault(key, []).append((kind, payload))
        # The deferred message is out-of-band evidence this member missed
        # sequenced traffic; if the group has gone quiet (every later write
        # moved off the broadcast path), nothing in-band will ever reveal
        # the gap — so probe for it.
        self.arm_lag_probe(nid, obj_id)
        return True

    def arm_lag_probe(self, node_id: int, obj_id: int, attempt: int = 0) -> None:
        """Schedule a recovery probe for a member lagging the object's epoch.

        A member can lag legitimately (the switch is still being sequenced
        or in flight), but it can also have *lost* the switch to packet
        loss at a moment when all later traffic left the broadcast path —
        e.g. the migration that very switch performed moved the object's
        writes onto the primary-copy RPC path, so no further broadcast
        will ever reveal the gap and the deferred coherence message would
        wedge its sender forever.  The probe fires after the group's retry
        timeout, asks the member's groups for the first unseen seqno
        (answered from any member's retained history — the sequencer may
        be dead), and re-arms itself a bounded number of times while the
        member still lags.
        """
        key = (node_id, obj_id)
        if key in self._lag_probes:
            return
        rts = self.rts
        node = rts.cluster.node(node_id)
        if not node.alive or rts.router is None:
            return
        delay = rts.router.group_for(0).retry_timeout
        self._lag_probes[key] = node.kernel.set_timer(
            delay, self._fire_lag_probe, node_id, obj_id, attempt)

    def _fire_lag_probe(self, node_id: int, obj_id: int, attempt: int) -> None:
        rts = self.rts
        self._lag_probes.pop((node_id, obj_id), None)
        if rts._node_epoch.get((node_id, obj_id), 0) >= rts._epoch_by_obj.get(obj_id, 0):
            return  # caught up; the deferred messages already flushed
        if attempt >= self.LAG_PROBE_LIMIT:
            return  # give up: behave as before the probe existed
        # The switch may ride any of the groups (shard moves relocate an
        # object's order at run time), so probe them all; a probe for a
        # seqno that does not exist is simply never answered.
        for group in rts.router.groups:
            group.member(node_id).probe_gap()
        self.arm_lag_probe(node_id, obj_id, attempt + 1)

    def _stale_regime(self, nid: int, payload: Dict[str, Any]) -> bool:
        """Was this coherence message issued under a superseded regime?

        A member that already delivered a later switch (a policy change, a
        seat relocation, or a crash takeover) must not apply coherence
        traffic from before it: the switch snapshot is the agreed state, and
        an in-flight update from the dead regime would diverge it.  Every
        member makes the same epoch comparison, so the drop is identical
        everywhere; senders still waiting on an acknowledgement are acked.
        """
        return (payload.get("epoch", 0)
                < self.rts._node_epoch.get((nid, payload["obj_id"]), 0))

    def _drop_stale(self, nid: int, payload: Dict[str, Any]) -> None:
        if "txn_id" in payload:
            # Acknowledge so a (possibly still live) old primary waiting on
            # the fan-out is not left hanging.
            self.send_ack(nid, payload["txn_id"])

    def flush_deferred(self, node_id: int, obj_id: int) -> None:
        for kind, payload in self.deferred.pop((node_id, obj_id), []):
            if self._stale_regime(node_id, payload):
                # The switch that released this message also superseded the
                # regime that sent it (e.g. a takeover landed on top of the
                # crash that raced this update): drop, do not apply.
                self._drop_stale(node_id, payload)
            elif self.rts._mechanism_of(obj_id) == MECHANISM_PRIMARY:
                self._on_coherence(node_id, kind, payload)
            elif "txn_id" in payload:
                # The regime that sent this message is gone; acknowledge so
                # its primary (if still waiting) is not left hanging.
                self.send_ack(node_id, payload["txn_id"])

    def _on_coherence(self, nid: int, kind: str, payload: Dict[str, Any]) -> None:
        """Secondary side of an invalidate, update or unlock message."""
        if self._stale_regime(nid, payload):
            if kind != KIND_UNLOCK:
                self._drop_stale(nid, payload)
            return
        if self._defer_if_lagging(nid, kind, payload):
            return
        if kind == KIND_INVALIDATE:
            self.protocols["invalidation"].handle_invalidate(nid, payload)
        elif kind == KIND_UPDATE:
            self.protocols["update"].handle_update(nid, payload)
        else:
            self.protocols["update"].handle_unlock(nid, payload)

    def _on_ack(self, nid: int, payload: Dict[str, Any]) -> None:
        ack_round = self.rounds.get(payload["txn_id"])
        if ack_round is None:
            return
        if ack_round.destinations:
            # An ack only counts while its sender still owes one: a node
            # that crashed with its ack in flight already had its debt
            # released by the crash listener, and double-counting it would
            # complete the fan-out before the live secondaries applied.
            if payload.get("node") not in ack_round.destinations:
                return
            ack_round.destinations.discard(payload.get("node"))
        ack_round.remaining -= 1
        if ack_round.remaining <= 0 and ack_round.proc is not None:
            ack_round.proc.wake()

    def _on_drop(self, nid: int, payload: Dict[str, Any]) -> None:
        # A secondary informs the primary that it discarded its copy; the
        # directory may already reflect this (the secondary updates it
        # directly), so this is a tolerant no-op if so.
        self.rts.directory.entry(payload["obj_id"]).copyset.discard(payload["node"])

    def _on_node_crash(self, crashed: int) -> None:
        """React to a machine crash: release debts, prune copies, recover.

        Three duties, in order: (a) release every acknowledgement the dead
        machine will never send, so primaries mid-fan-out complete on the
        survivors; (b) prune its copies from the directory and discard its
        primary-managed replicas (their state died with the machine, and a
        later :meth:`Node.recover` must never serve them); (c) start a
        primary takeover for every object whose primary seat just died.
        """
        rts = self.rts
        for ack_round in list(self.rounds.values()):
            if crashed in ack_round.destinations:
                ack_round.destinations.discard(crashed)
                ack_round.remaining -= 1
                if ack_round.remaining <= 0 and ack_round.proc is not None:
                    ack_round.proc.wake()
        # Its copies die with it: prune the directory so later fan-outs and
        # migrations never count on the dead member.
        for obj_id in rts.directory.objects():
            entry = rts.directory.entry(obj_id)
            if crashed != entry.primary_node:
                entry.copyset.discard(crashed)
        dead_manager = rts.managers[crashed]
        for obj_id, policy in list(rts._policy_by_obj.items()):
            if (FIXED_POLICIES[policy].mechanism == MECHANISM_PRIMARY
                    and obj_id in dead_manager.replicas):
                dead_manager.discard(obj_id)
        # Disarm the dead member's lag probes: their timers are suppressed
        # by the kernel (dead node), and a stale entry would block
        # re-arming if the node later recovers and lags again.
        for key, timer in list(self._lag_probes.items()):
            if key[0] == crashed:
                rts.cluster.node(crashed).kernel.cancel_timer(timer)
                self._lag_probes.pop(key, None)
        rts.recovery.schedule_takeovers()
        if rts._txn_layer is not None:
            # After the runtime's own recovery: orphaned transactions (the
            # dead machine coordinated them) are driven to completion by
            # the lowest live node under presumed abort.
            rts._txn_layer.on_node_crash(crashed)
