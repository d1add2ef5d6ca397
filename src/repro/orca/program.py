"""Whole-program execution: build a cluster, run main, collect measurements.

:class:`OrcaProgram` is the top-level entry point used by the examples and
benchmarks.  It assembles the simulated cluster, instantiates the requested
runtime system, runs the user's ``main(proc, *args)`` function as the first
Orca process on processor 0, and returns a :class:`ProgramResult` with the
program's return value, the elapsed virtual time, and the communication /
runtime statistics needed to reproduce the paper's measurements.
"""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..amoeba.cluster import Cluster
from ..config import ClusterConfig
from ..errors import ConfigurationError
from ..rts.base import RuntimeSystem
from ..rts.hybrid import HybridRts
from ..rts.policy import DEFAULT_POLICY_FOR_KIND
from .process import OrcaProcess

#: rts= spellings accepted by :class:`OrcaProgram`, with the default policy
#: each configures the unified runtime with.  ``"hybrid"`` is the
#: mixed-per-object spelling; the rest share the cross-layer mapping.
RTS_KINDS = dict(DEFAULT_POLICY_FOR_KIND, hybrid="broadcast")


@dataclass
class ProgramResult:
    """Everything measured during one Orca program run."""

    #: Return value of the program's ``main`` function.
    value: Any
    #: Virtual time at which the last process finished (seconds).
    elapsed: float
    #: Number of processors used.
    num_nodes: int
    #: Which runtime system ran the program.
    rts_name: str
    #: Network traffic summary (messages, bytes, interrupts, ...).
    network: Dict[str, Any] = field(default_factory=dict)
    #: Runtime-system summary (reads, writes, replication decisions, ...).
    rts: Dict[str, Any] = field(default_factory=dict)
    #: Wall-clock seconds spent simulating (for harness bookkeeping only).
    wall_seconds: float = 0.0
    #: Events processed by the simulator.
    events: int = 0
    #: Protocol CPU overhead charged across all nodes (seconds of virtual time).
    overhead_time: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ProgramResult value={self.value!r} elapsed={self.elapsed:.4f}s "
                f"nodes={self.num_nodes} rts={self.rts_name}>")


#: Signature of an Orca main function: ``main(proc, *args) -> value``.
MainFunction = Callable[..., Any]


class OrcaProgram:
    """An Orca program: a main function plus the cluster it runs on."""

    def __init__(self, main: MainFunction, config: Optional[ClusterConfig] = None,
                 rts: str = "broadcast", rts_options: Optional[Dict[str, Any]] = None,
                 network_type: Optional[str] = None) -> None:
        """Prepare a program.

        Parameters
        ----------
        main:
            The main function, called as ``main(proc, *args)`` where ``proc``
            is the root :class:`OrcaProcess` (running on processor 0).
        config:
            Cluster configuration (processor count, cost model, seed).
        rts:
            ``"broadcast"`` (every object broadcast replicated — the paper's
            default), ``"p2p"`` (every object primary copy), ``"hybrid"``
            (per-object policies via ``rts_options["default_policy"]`` and
            ``new_object(policy=...)``), or ``"adaptive"`` (objects migrate
            between policies based on their read/write mix).
        rts_options:
            Extra keyword arguments for the unified runtime constructor
            (e.g. ``{"default_policy": "primary-invalidate"}`` for the
            invalidation flavour of p2p, or
            ``{"num_shards": 4, "batching": True}``).
        network_type:
            ``"ethernet"`` or ``"switched"``; defaults to Ethernet for every
            broadcast-capable configuration and switched for the p2p RTS.
        """
        self.main = main
        self.config = config or ClusterConfig()
        self.rts_kind = rts
        self.rts_options = dict(rts_options or {})
        if rts not in RTS_KINDS:
            raise ConfigurationError(f"unknown runtime system {rts!r}")
        if network_type is None:
            network_type = "switched" if rts == "p2p" else "ethernet"
        self.network_type = network_type
        #: Populated by :meth:`run` (useful for post-run inspection in tests).
        self.cluster: Optional[Cluster] = None
        self.runtime: Optional[RuntimeSystem] = None

    # ------------------------------------------------------------------ #

    def _build_runtime(self, cluster: Cluster) -> RuntimeSystem:
        options = dict(self.rts_options)
        options.setdefault("default_policy", RTS_KINDS[self.rts_kind])
        runtime = HybridRts(cluster, **options)
        if self.rts_kind == "hybrid":
            # Mixed per-object policies: report under the unified name
            # rather than whatever the default policy happens to be.
            runtime.name = "hybrid-rts"
        return runtime

    def run(self, *main_args: Any, keep_cluster: bool = False, **main_kwargs: Any) -> ProgramResult:
        """Execute the program to completion and return its measurements.

        The cluster and runtime are discarded afterwards unless
        ``keep_cluster`` is true (tests use this to inspect internal state).
        """
        started = _wallclock.perf_counter()
        cluster = Cluster(self.config, network_type=self.network_type)
        runtime = self._build_runtime(cluster)
        self.cluster, self.runtime = cluster, runtime

        root = OrcaProcess(cluster, runtime, node_id=0, name="main")
        outcome: Dict[str, Any] = {}

        def _main_body() -> None:
            outcome["value"] = self.main(root, *main_args, **main_kwargs)

        root.sim_proc = cluster.node(0).kernel.spawn_thread(_main_body, name="main")
        try:
            elapsed = cluster.sim.run()
            result = ProgramResult(
                value=outcome.get("value"),
                elapsed=elapsed,
                num_nodes=cluster.num_nodes,
                rts_name=runtime.name,
                network=cluster.network_summary(),
                rts=runtime.read_write_summary(),
                wall_seconds=_wallclock.perf_counter() - started,
                events=cluster.sim.events_processed,
                overhead_time=cluster.total_overhead_time(),
            )
        finally:
            if not keep_cluster:
                cluster.shutdown()
                self.cluster, self.runtime = None, None
        return result

    # ------------------------------------------------------------------ #

    def run_on(self, num_nodes: int, *main_args: Any, **main_kwargs: Any) -> ProgramResult:
        """Run the same program on a cluster of ``num_nodes`` processors."""
        original = self.config
        self.config = original.with_nodes(num_nodes)
        try:
            return self.run(*main_args, **main_kwargs)
        finally:
            self.config = original
