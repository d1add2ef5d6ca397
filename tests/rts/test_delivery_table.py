"""The delivery table: every ordered broadcast record kind has one owner.

``HybridRts`` routes each record delivered in a shard's total order through
a table filled by its components (broadcast path, switch core,
reconfiguration, recovery, and the lazily created transaction layer).
These tests drive a run that emits every kind the runtime knows — creates,
plain and batched writes, policy switches, a shard move, a seat relocation,
a crash takeover, a rejoin, and same- and cross-shard transactions — and
check that each emitted kind reached exactly one registered handler.
"""

from __future__ import annotations

import pytest

from repro.amoeba.broadcast.group import GroupMember
from repro.amoeba.broadcast.protocol import DeliveredMessage
from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import RtsError
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation
from repro.txn import TXN_KINDS

#: Record kind -> the component class whose handler owns it.
OWNERS = {
    "create": "BroadcastPath",
    "op": "BroadcastPath",
    "batch": "BroadcastPath",
    "switch": "HybridRts",
    "shard-switch": "Reconfiguration",
    "shard-arrive": "Reconfiguration",
    "rejoin": "Recovery",
}
RUNTIME_KINDS = set(OWNERS)


class Counter(ObjectSpec):
    def init(self, value=0):
        self.value = value

    @operation(write=False)
    def read(self):
        return self.value

    @operation(write=True)
    def add(self, delta):
        self.value += delta
        return self.value


@pytest.fixture
def emitted(monkeypatch):
    """Record the kind of every record a group member hands to its order."""
    kinds = []
    broadcast = GroupMember.broadcast
    begin_rejoin = GroupMember.begin_rejoin

    def recording_broadcast(member, payload, *args, **kwargs):
        kinds.append(payload[0])
        return broadcast(member, payload, *args, **kwargs)

    def recording_rejoin(member, payload, *args, **kwargs):
        kinds.append(payload[0])
        return begin_rejoin(member, payload, *args, **kwargs)

    monkeypatch.setattr(GroupMember, "broadcast", recording_broadcast)
    monkeypatch.setattr(GroupMember, "begin_rejoin", recording_rejoin)
    return kinds


def run_every_episode(rts, cluster):
    """One run through every control episode that broadcasts a record."""
    victim = 4

    def main():
        proc = cluster.sim.current_process

        def settle(reconfigure):
            # A reconfiguration refuses while the previous switch of the
            # same object is still being delivered somewhere; retry.
            for _ in range(1000):
                if reconfigure():
                    return
                proc.hold(0.001)
            raise AssertionError("reconfiguration never admitted")

        a = rts.create_object(proc, Counter, (0,), name="a")
        b = rts.create_object(proc, Counter, (0,), name="b")
        settle(lambda: rts.move_shard(proc, b, 1 - rts.shard_of(b)))
        if rts.shard_of(a) == rts.shard_of(b):
            settle(lambda: rts.move_shard(proc, a, 1 - rts.shard_of(a)))
        rts.invoke(proc, a, "add", (1,))
        settle(lambda: rts.migrate(proc, a, "primary-update"))
        settle(lambda: rts.migrate(proc, a, "broadcast"))
        rts.invoke(proc, a, "add", (1,))
        # Same-shard fast path, then cross-shard two-phase commit.
        rts.transact(proc, [(a, "add", (1,))])
        rts.transact(proc, [(a, "add", (1,)), (b, "add", (1,))])
        seat = rts.create_object(proc, Counter, (0,), name="seat",
                                 policy="primary-update")
        settle(lambda: rts.relocate_primary(proc, seat, target=victim))
        rts.invoke(proc, seat, "add", (1,))
        cluster.node(victim).crash()
        rts.invoke(proc, seat, "add", (1,))
        assert rts.recoveries, "the crash must have triggered a takeover"
        cluster.node(victim).recover()
        for _ in range(5000):
            if rts.is_caught_up(victim):
                break
            proc.hold(0.001)
        assert rts.is_caught_up(victim)
        assert rts.invoke(proc, a, "read") == 4

    cluster.node(0).kernel.spawn_thread(main)
    cluster.run()


def test_every_emitted_kind_has_exactly_one_registered_owner(emitted):
    cluster = Cluster(ClusterConfig(num_nodes=5, seed=5))
    with cluster:
        rts = HybridRts(cluster, num_shards=2)
        assert set(rts._delivery) == RUNTIME_KINDS
        run_every_episode(rts, cluster)
        owners = {kind: type(handler.__self__).__name__
                  for kind, handler in rts._delivery.items()}
        assert owners == dict(OWNERS, **{kind: "TransactionLayer"
                                         for kind in TXN_KINDS})

    batched = Cluster(ClusterConfig(num_nodes=3, seed=5))
    with batched:
        rts = HybridRts(batched, batching=True)

        def writer():
            proc = batched.sim.current_process
            counter = rts.create_object(proc, Counter, (0,))
            rts.invoke(proc, counter, "add", (1,))

        batched.node(0).kernel.spawn_thread(writer)
        batched.run()

    # Every kind the runtime emitted is owned; every owned kind was
    # emitted (so the table holds no stale entries).
    assert set(emitted) == RUNTIME_KINDS | TXN_KINDS


def test_unknown_kind_raises():
    cluster = Cluster(ClusterConfig(num_nodes=2, seed=5))
    with cluster:
        rts = HybridRts(cluster)
        deliver = rts._deliverer(0, 0)
        stray = DeliveredMessage(seqno=1, origin=1, uid=None,
                                 payload=("bogus", 7), size=8)
        with pytest.raises(RtsError, match="bogus"):
            deliver(stray)


def test_registering_a_kind_twice_is_rejected():
    cluster = Cluster(ClusterConfig(num_nodes=2, seed=5))
    with cluster:
        rts = HybridRts(cluster)
        with pytest.raises(RtsError, match="already"):
            rts.register_delivery("op", lambda node_id, shard, delivered: None)
        rts.register_delivery("custom", lambda node_id, shard, delivered: None)
        with pytest.raises(RtsError, match="already"):
            rts.register_delivery("custom", lambda node_id, shard, delivered: None)


def test_seed_gate_buffers_then_replays_through_the_table():
    """A member awaiting its rejoin seed buffers deliveries (its own anchor
    excepted) and replays the ones the seed does not cover, in order,
    through the same table."""
    cluster = Cluster(ClusterConfig(num_nodes=3, seed=5))
    with cluster:
        rts = HybridRts(cluster)
        seen = []
        rts.register_delivery(
            "probe", lambda node_id, shard, delivered:
                seen.append((node_id, shard, delivered.seqno)))
        rts.recovery.awaiting_seed.add((1, 0))
        deliver = rts._deliverer(1, 0)
        for seqno in (4, 5, 6):
            deliver(DeliveredMessage(seqno=seqno, origin=0, uid=None,
                                     payload=("probe",), size=8))
        assert seen == []
        rts.recovery._finish_seed(1, 0, upto=4)
        assert seen == [(1, 0, 5), (1, 0, 6)]
        deliver(DeliveredMessage(seqno=7, origin=0, uid=None,
                                 payload=("probe",), size=8))
        assert seen[-1] == (1, 0, 7)
