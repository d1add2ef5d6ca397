"""Per-layer attribution of host CPU and virtual time, from outside ``src/``.

:class:`LayerTracer` wraps the public entry points of every layer of the
library (``sim``, ``amoeba``, ``rts``, ``txn``, ``gateway``, ``orca``,
``apps``, ``workloads``, ``metrics``) for the duration of one traced run and
restores them afterwards.  Nothing in the library changes.

Host CPU is *self* time: each wrapped call opens a frame on a per-thread
stack, and ``time.thread_time()`` is charged to the innermost open frame's
layer, so time spent in a nested wrapped call is never charged to its
caller.  Simulated processes are OS threads that strictly alternate, so a
thread's CPU inside a frame is exactly that layer's work.  A process thread's
root frame takes the layer of the function it was spawned with, so gateway
arrival pumps, worker loops and client loops land in the layer that wrote
them.

Virtual spans (broadcast ordering, transaction latency, gateway queue wait)
are read off the simulated clock at entry and exit and kept in memory.  The
tracer only reads clocks and counters, so a traced run's virtual results are
identical to an untraced run's.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

LAYERS = ("sim", "amoeba", "rts", "txn", "gateway", "orca", "apps", "workloads", "metrics")

#: Layer of the simulator's control handshake (reported as ``sim.handoff_cpu_s``).
HANDOFF = "sim.handoff"


def owner_layer(fn: Any) -> str:
    """The layer whose module defines ``fn``; benchmark scenario code is ``workloads``."""
    parts = (getattr(fn, "__module__", None) or "").split(".")
    if parts[0] == "repro":
        return parts[1] if len(parts) > 1 and parts[1] in LAYERS else "other"
    return "workloads"


class LayerTracer:
    """Wraps layer entry points while installed; collects CPU, counts and spans."""

    def __init__(self) -> None:
        self.cpu: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.spans: Dict[str, List[float]] = {}
        self.sequencers: List[Any] = []
        self.events = 0
        self.window_cpu = 0.0
        self.window_wall = 0.0
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._sim: Any = None
        self._pushed: Dict[int, float] = {}

    # -- frames ------------------------------------------------------------ #

    def _enter(self, layer: str) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        now = time.thread_time()
        if stack:
            top = stack[-1]
            self.cpu[top[0]] = self.cpu.get(top[0], 0.0) + (now - top[1])
        stack.append([layer, now])

    def _exit(self) -> None:
        stack = self._local.stack
        now = time.thread_time()
        layer, mark = stack.pop()
        self.cpu[layer] = self.cpu.get(layer, 0.0) + (now - mark)
        if stack:
            stack[-1][1] = now

    def framed(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        """``fn`` wrapped in a frame of ``layer``."""
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return wrapper

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _frame_method(self, owner: Any, name: str, layer: str) -> None:
        if name in owner.__dict__:
            self._patch(owner, name, self.framed(owner.__dict__[name], layer))

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _now(self) -> float:
        sim = self._sim
        proc = sim.current_process
        return proc.local_time if proc is not None else sim.now

    # -- installation ------------------------------------------------------ #

    def install(self) -> "LayerTracer":
        from repro.amoeba.broadcast.group import BroadcastGroup, GroupMember
        from repro.amoeba.broadcast.sequencer import Sequencer
        from repro.amoeba.network import BaseNetwork
        from repro.amoeba.nic import NetworkInterface
        from repro.amoeba.node import Node
        from repro.amoeba.rpc import RpcEndpoint
        from repro.gateway.gateway import FairQueue, TokenBucket
        from repro.gateway.session import ClientSession
        from repro.gateway.tier import GatewayTier
        from repro.metrics.latency import LatencyRecorder
        from repro.orca.api import BoundObject
        from repro.orca.process import OrcaProcess
        from repro.rts.base import RuntimeSystem
        from repro.sim.kernel import Simulator
        from repro.sim.process import SimProcess
        from repro.txn import TransactionLayer
        from repro.workloads.scenarios import ScenarioRegistry

        tracer = self

        # sim: the run loop is the main thread's root frame and bounds the
        # measured window; every spawned process gets a root frame of the
        # layer its target function lives in.
        run = Simulator.__dict__["run"]

        @functools.wraps(run)
        def traced_run(sim, *args, **kwargs):
            tracer._sim = sim
            events, cpu, wall = sim.events_processed, time.process_time(), time.perf_counter()
            tracer._enter("sim")
            try:
                return run(sim, *args, **kwargs)
            finally:
                tracer._exit()
                tracer.window_cpu += time.process_time() - cpu
                tracer.window_wall += time.perf_counter() - wall
                tracer.events += sim.events_processed - events

        self._patch(Simulator, "run", traced_run)

        spawn = Simulator.__dict__["spawn"]

        @functools.wraps(spawn)
        def traced_spawn(sim, target, *args, **kwargs):
            rooted = tracer.framed(target, owner_layer(target))
            return spawn(sim, rooted, *args, **kwargs)

        self._patch(Simulator, "spawn", traced_spawn)
        for name in ("hold", "suspend", "wake", "join"):
            self._frame_method(SimProcess, name, HANDOFF)
        if "_transfer_control" in SimProcess.__dict__:
            transfer = SimProcess.__dict__["_transfer_control"]

            def traced_transfer(proc):
                tracer._count("switches")
                return transfer(proc)

            self._patch(SimProcess, "_transfer_control", self.framed(traced_transfer, HANDOFF))

        # amoeba: wire, dispatch, RPC and ordered broadcast.
        self._frame_method(BaseNetwork, "send", "amoeba")
        self._frame_method(Node, "dispatch", "amoeba")
        self._frame_method(NetworkInterface, "receive_packet", "amoeba")
        self._frame_method(RpcEndpoint, "call", "amoeba")
        broadcast = GroupMember.__dict__["broadcast"]

        def traced_broadcast(member, payload, size=0, on_delivered=None, method=None):
            start = tracer._now()

            def delivered(seqno):
                tracer.spans.setdefault("order", []).append(tracer._now() - start)
                if on_delivered is not None:
                    on_delivered(seqno)

            return broadcast(member, payload, size=size, on_delivered=delivered, method=method)

        self._patch(GroupMember, "broadcast", self.framed(traced_broadcast, "amoeba"))
        sequencer_init = Sequencer.__dict__["__init__"]

        def traced_sequencer_init(seq, *args, **kwargs):
            sequencer_init(seq, *args, **kwargs)
            tracer.sequencers.append(seq)

        self._patch(Sequencer, "__init__", traced_sequencer_init)

        # Handlers registered with amoeba run in the registering layer.
        set_handler = BroadcastGroup.__dict__["set_delivery_handler"]

        def traced_set_handler(group, node_id, handler):
            return set_handler(group, node_id, tracer.framed(handler, owner_layer(handler)))

        self._patch(BroadcastGroup, "set_delivery_handler", traced_set_handler)
        register = RpcEndpoint.__dict__["register_service"]

        def traced_register(endpoint, port, handler, *args, **kwargs):
            framed = tracer.framed(handler, owner_layer(handler))
            return register(endpoint, port, framed, *args, **kwargs)

        self._patch(RpcEndpoint, "register_service", traced_register)

        # rts and txn.
        self._frame_method(RuntimeSystem, "invoke", "rts")
        transact = TransactionLayer.__dict__["transact"]

        def traced_transact(layer, proc, ops, on_guard="retry"):
            start = proc.local_time
            try:
                return transact(layer, proc, ops, on_guard=on_guard)
            finally:
                tracer.spans.setdefault("transact", []).append(proc.local_time - start)

        self._patch(TransactionLayer, "transact", self.framed(traced_transact, "txn"))
        self._frame_method(TransactionLayer, "on_deliver", "txn")

        # gateway: session state machines, fair queue, quotas, accounting.
        self._frame_method(ClientSession, "advance", "gateway")
        self._frame_method(ClientSession, "release", "gateway")
        self._frame_method(TokenBucket, "try_take", "gateway")
        self._frame_method(FairQueue, "evict_lower_priority", "gateway")
        for name in ("note_completion", "note_shed"):
            self._frame_method(GatewayTier, name, "gateway")
        push, pop = FairQueue.__dict__["push"], FairQueue.__dict__["pop"]

        def traced_push(queue, entry):
            tracer._pushed[id(entry)] = tracer._now()
            return push(queue, entry)

        def traced_pop(queue):
            entry = pop(queue)
            pushed = tracer._pushed.pop(id(entry), None)
            if pushed is not None:
                tracer.spans.setdefault("queue_wait", []).append(tracer._now() - pushed)
            return entry

        self._patch(FairQueue, "push", self.framed(traced_push, "gateway"))
        self._patch(FairQueue, "pop", self.framed(traced_pop, "gateway"))

        # orca: the language surface; forked functions run in their own layer.
        self._frame_method(BoundObject, "invoke", "orca")
        self._frame_method(OrcaProcess, "compute", "orca")
        self._frame_method(OrcaProcess, "join", "orca")
        fork = OrcaProcess.__dict__["fork"]

        def traced_fork(proc, func, *args, **kwargs):
            return fork(proc, tracer.framed(func, owner_layer(func)), *args, **kwargs)

        self._patch(OrcaProcess, "fork", self.framed(traced_fork, "orca"))

        # workloads and metrics.
        for kind in ScenarioRegistry.names():
            self._frame_method(ScenarioRegistry.get(kind), "perform", "workloads")
        self._frame_method(LatencyRecorder, "record", "metrics")
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
