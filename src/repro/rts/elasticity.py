"""Elasticity: planned node drains, live scale-in and the rebalancer.

A drain evacuates every primary and sequencer seat before the machine
leaves; a shard removal moves every object off a retired group with
drain-and-switch moves; the rebalancer moves hot objects off the hottest
group and grows or shrinks the group set within its bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Set

from ..errors import ConfigurationError, RtsError
from .policy import MECHANISM_PRIMARY
from .sharding import RebalanceParams, RebalancePlanner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.broadcast.group import BroadcastGroup
    from ..sim.process import SimProcess
    from .hybrid import HybridRts


@dataclass
class DrainRecord:
    """One planned node departure: every seat evacuated, then the exit."""

    node_id: int
    started_at: float
    primary_seats_moved: int = 0
    sequencer_seats_moved: int = 0
    completed_at: Optional[float] = None


class Elasticity:
    """Node drains, shard removal and the background rebalancing loop."""

    def __init__(self, rts: "HybridRts") -> None:
        self.rts = rts
        #: Nodes being drained out of the cluster (drain_node in progress).
        self.draining: Set[int] = set()
        self._rebalancer_active = False

    # -- planned drain --------------------------------------------------- #

    def drain_node(self, proc: "SimProcess", node_id: int) -> bool:
        rts = self.rts
        catching_up = rts.recovery.catching_up
        node = rts.cluster.node(node_id)
        if not node.alive:
            raise RtsError(
                f"drain_node() drains live nodes; node {node_id} is crashed "
                "(crash recovery owns dead ones)")
        if node_id in catching_up:
            raise RtsError(
                f"node {node_id} is still catching up from a recovery and "
                "cannot be drained yet")
        if node_id in self.draining:
            return False
        if not any(n.alive and n.node_id != node_id for n in rts.cluster.nodes):
            raise RtsError(
                f"cannot drain node {node_id}: it is the last live machine")
        self.draining.add(node_id)
        record = DrainRecord(node_id=node_id, started_at=rts.sim.now)
        rts.drains.append(record)
        try:
            for handle in sorted(rts.handles(), key=lambda h: h.obj_id):
                obj_id = handle.obj_id
                if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                    continue
                while rts.directory.primary_of(obj_id) == node_id:
                    target = self._drain_target(obj_id, node_id)
                    if target is None:
                        raise RtsError(
                            f"cannot drain node {node_id}: no full member "
                            f"left to take the primary seat of object "
                            f"{obj_id}")
                    if rts.reconfig.relocate_primary(proc, handle, target=target):
                        record.primary_seats_moved += 1
                        break
                    # Transient refusal (a switch still settling); retry.
                    proc.hold(rts.cost_model.cpu.protocol_cost * 4)
            if rts.router is not None:
                for shard in rts.router.active_shards():
                    group = rts.router.group_for(shard)
                    if group.sequencer_node_id != node_id:
                        continue
                    while group.sequencer.queue_depth > 0:
                        proc.hold(group.retry_timeout)
                    candidates = [
                        nid for nid, member in group.members.items()
                        if member.node.alive and member.synced and nid != node_id
                        and nid not in catching_up and nid not in self.draining]
                    if not candidates:
                        raise RtsError(
                            f"cannot drain node {node_id}: no full member "
                            f"left to take shard {shard}'s sequencer seat")
                    group.handoff_sequencer(min(candidates), trust_old=True)
                    record.sequencer_seats_moved += 1
            # Wait until no RPC anywhere is still addressed to the node.
            # After the final poll returns clean the node retires in the
            # same event — no other process can slip a new call in between,
            # and all new traffic routes at the relocated seats anyway.
            while any(endpoint.pending_to(node_id)
                      for endpoint in rts.cluster.rpc.values()):
                proc.hold(rts.cost_model.cpu.protocol_cost * 4)
            node.crash()
            rts.stats.nodes_drained += 1
            record.completed_at = rts.sim.now
            return True
        finally:
            self.draining.discard(node_id)

    def _drain_target(self, obj_id: int, leaving: int) -> Optional[int]:
        """The heaviest-writing full member to inherit a drained seat."""
        rts = self.rts
        decider = rts.replication.decider
        candidates = [
            node.node_id for node in rts.cluster.nodes
            if node.alive and node.node_id != leaving
            and node.node_id not in rts.recovery.catching_up
            and node.node_id not in self.draining]
        if not candidates:
            return None
        return max(candidates, key=lambda nid: (
            decider.stats_for(obj_id, nid).total_writes, -nid))

    # -- live scale-in (merge a broadcast group away) --------------------- #

    def remove_shard(self, proc: "SimProcess", shard: int) -> bool:
        rts = self.rts
        router = rts._ensure_router()
        if not 0 <= shard < router.num_shards:
            raise ConfigurationError(
                f"cannot remove shard {shard}: only {router.num_shards} "
                "shards exist")
        if shard in router.retired:
            return False  # idempotent: a second remove is a no-op
        if router.num_active_shards <= 1:
            raise ConfigurationError("cannot remove the last active shard")
        if rts.recovery.catching_up:
            return False  # a rejoin seed is computed against current routes
        # Retire first: placements and planner moves stop targeting the
        # group immediately, so the evacuation below cannot race new
        # arrivals (already-assigned objects keep their recorded shard).
        router.retire_shard(shard)
        evacuees = sorted(
            handle.obj_id for handle in rts.handles()
            if router.assigned_shard(handle.obj_id) == shard)
        destinations = router.active_shards()
        for index, obj_id in enumerate(evacuees):
            handle = rts.handle(obj_id)
            dest = destinations[index % len(destinations)]
            attempts = 0
            while router.assigned_shard(obj_id) == shard:
                if rts.reconfig.move_shard(proc, handle, dest):
                    break
                attempts += 1
                if attempts > 256:
                    raise RtsError(
                        f"cannot evacuate object {obj_id} off retiring "
                        f"shard {shard}: moves keep being refused")
                proc.hold(rts.cost_model.cpu.protocol_cost * 4)
        group = router.group_for(shard)
        self._await_group_drained(proc, group)
        group.sequencer.retire()
        rts.stats.shards_removed += 1
        rts.removed_shards.append(shard)
        return True

    def _await_group_drained(self, proc: "SimProcess",
                             group: "BroadcastGroup") -> None:
        """Wait until a group's order is fully served and fully delivered."""
        def drained() -> bool:
            if group.sequencer.queue_depth > 0:
                return False
            highest = group.sequencer.highest_assigned
            return all(
                member.engine.next_expected > highest
                for member in group.members.values()
                if member.node.alive and member.synced)
        while not drained():
            proc.hold(group.retry_timeout)

    # -- the background rebalancing controller --------------------------- #

    def maybe_start_rebalancer(self) -> None:
        """(Re)start the controller loop when write traffic flows.

        The controller is armed by the first broadcast write (and re-armed
        by the first write after it went quiet), not at construction: a
        long, write-free setup phase must not run its quiet-round budget
        down before the workload even starts.
        """
        if self._rebalancer_active:
            return
        # The controller must live on a machine that can actually broadcast
        # the switches; if its host dies later, the loop exits and the next
        # write re-arms a controller on a surviving node.
        host = next((node for node in self.rts.cluster.nodes if node.alive), None)
        if host is None:
            return
        self._rebalancer_active = True
        host.kernel.spawn_thread(self._rebalance_body, name="shard-rebalancer")

    def _rebalance_body(self) -> None:
        """Periodic plan-and-move rounds over the router's load windows.

        Each round: optionally grow the group set toward ``grow_to``, ask
        the planner for moves off the hottest shard, execute them, and
        reset the load window.  The loop exits after ``quiet_rounds``
        consecutive rounds without a single new write anywhere (so a
        drained workload lets the simulation terminate); fresh traffic
        re-arms it.
        """
        rts = self.rts
        proc = rts.sim.current_process
        host = rts._node_of(proc)
        params = rts.rebalance
        router = rts.router
        planner = RebalancePlanner(router, imbalance=params.imbalance,
                                   min_writes=params.min_writes,
                                   max_moves=params.max_moves,
                                   queue_weight=params.queue_weight,
                                   byte_weight=params.byte_weight,
                                   exclude=rts.reconfig.in_move_cooldown)

        def total_writes() -> int:
            return sum(stats.writes for stats in router.shard_stats.values())

        try:
            quiet = 0
            last_total = total_writes()
            while quiet < params.quiet_rounds:
                proc.hold(params.interval)
                if not host.alive:
                    # A dead node cannot broadcast switches; bow out so the
                    # next write re-arms the controller on a live machine.
                    return
                total = total_writes()
                if total == last_total:
                    quiet += 1
                    continue
                last_total = total
                quiet = 0
                live = sum(1 for n in rts.cluster.nodes if n.alive)
                if (params.grow_to is not None
                        and router.num_active_shards < min(params.grow_to, live)):
                    # Never outgrow the machines: every group needs a
                    # sequencer seat on a live node.
                    rts.add_shard()
                elif (params.shrink_to is not None
                        and router.num_active_shards > params.shrink_to
                        and not rts.recovery.catching_up):
                    idle = self._coolest_idle_shard(params)
                    if idle is not None:
                        # At most one merge per round: scale-in is the
                        # expensive direction (a full drain-and-switch per
                        # evacuated object) and the next window re-earns it.
                        self.remove_shard(proc, idle)
                moves = planner.plan()
                for move in moves:
                    rts.reconfig.move_shard(proc, rts.handle(move.obj_id), move.dst)
                if moves:
                    # The evidence behind these moves is spent; the next
                    # decision must re-earn itself on a fresh window.  (No
                    # reset on quiet rounds: the window keeps accumulating
                    # until there is enough traffic to decide on.)
                    router.reset_window()
                    # Moves take virtual time; re-read the baseline so a
                    # round spent moving does not look like fresh traffic.
                    last_total = total_writes()
        finally:
            self._rebalancer_active = False

    def _coolest_idle_shard(self, params: RebalanceParams) -> Optional[int]:
        """The active shard to merge away, or ``None`` if none is idle.

        Only a shard whose window load is at or below ``shrink_below``
        qualifies: merging a busy group would stuff its traffic onto the
        survivors and immediately re-trigger growth.
        """
        router = self.rts.router
        active = router.active_shards()
        if len(active) <= 1:
            return None
        loads = router.window_loads()
        coolest = min(active, key=lambda s: (loads.get(s, 0), s))
        if loads.get(coolest, 0) > params.shrink_below:
            return None
        return coolest
