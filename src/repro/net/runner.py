"""Run a workload on the real-process backend and report it like the sim.

:func:`run_real_workload` is the real backend's counterpart of
:meth:`~repro.workloads.runner.WorkloadRunner.run`: it stages a
:class:`~repro.net.harness.RealCluster`, drives the workload to quiescence,
checks convergence against the deterministic stream replay (and, optionally,
a full simulator oracle run), and folds the collected results into the same
:class:`~repro.workloads.runner.WorkloadReport` shape every benchmark and
table already consumes.  The report's ``elapsed`` is *real wall-clock
seconds* (the simulator's is virtual seconds), and per-request latency
summaries are empty — the real clients measure throughput, not per-op
latency — so cross-backend comparisons should stick to throughput, op
counts and converged facts.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..workloads.runner import WorkloadReport
from ..workloads.spec import WorkloadSpec
from .harness import RealCluster, RealClusterConfig
from .oracle import check_convergence, expected_issued_writes, record_sim_oracle
from .runtime import RealTimings


def _network_summary(nodes: Dict[int, Dict[str, Any]]) -> Dict[str, Any]:
    """Cluster-wide traffic totals from the per-node transport counters."""
    totals: Dict[str, int] = {}
    for reply in nodes.values():
        for key, value in reply.get("transport", {}).items():
            totals[key] = totals.get(key, 0) + value
    # The sim's network summary calls its grand total "messages"; mirror it
    # so report consumers can read either backend.
    totals["messages"] = totals.get("messages_sent", 0)
    return totals


def _rts_summary(result: Dict[str, Any],
                 expected: Dict[str, Any]) -> Dict[str, Any]:
    """A per-object summary in the shape ``WorkloadReport`` consumers read."""
    nodes = result["nodes"]
    reference = nodes[sorted(nodes)[0]]["objects"]
    per_object = {
        row["name"]: {
            "writes": expected["per_object_writes"].get(row["name"], 0),
            "policy": row["policy"],
            "shard": row["shard"],
            "primary": row["primary"],
            "version": row["version"],
        }
        for row in reference.values()
    }
    stats: Dict[str, int] = {}
    for reply in nodes.values():
        for key, value in reply.get("stats", {}).items():
            stats[key] = stats.get(key, 0) + value
    return {"rts": "real-sockets", "per_object": per_object, "stats": stats}


def run_real_workload(scenario: str,
                      workload: Optional[WorkloadSpec] = None,
                      num_nodes: int = 3, clients_per_node: int = 1,
                      seed: int = 42, num_shards: int = 2,
                      victims: Any = (), kill_after_writes: Any = (),
                      timings: Optional[RealTimings] = None,
                      check: bool = True,
                      sim_oracle: bool = False) -> WorkloadReport:
    """One oracle-checked workload run on the real-process backend.

    With ``check`` (the default) the converged state is asserted against the
    deterministic stream replay; ``sim_oracle`` additionally runs the full
    simulator on the identical workload and cross-checks its facts.  Either
    failing raises :class:`AssertionError` — a benchmark number from a
    diverged run would be meaningless.
    """
    config_kwargs: Dict[str, Any] = {}
    if timings is not None:
        config_kwargs["timings"] = timings
    config = RealClusterConfig(
        scenario=scenario, workload=workload, num_nodes=num_nodes,
        num_shards=num_shards, clients_per_node=clients_per_node, seed=seed,
        victims=tuple(victims),
        kill_after_writes=tuple(kill_after_writes),
        **config_kwargs)
    expected = expected_issued_writes(config)
    oracle = record_sim_oracle(config) if sim_oracle else None
    with RealCluster(config) as cluster:
        result = cluster.run_workload()
    facts: Dict[str, Any] = {}
    if check:
        facts = check_convergence(result, expected, oracle)
    total_ops = result["reads"] + result["writes"]
    elapsed = result["elapsed"]
    return WorkloadReport(
        scenario=scenario,
        runtime="real-sockets",
        workload=result["workload"],
        num_nodes=num_nodes,
        num_clients=len(result["client_nodes"]) * clients_per_node,
        total_ops=total_ops,
        reads=result["reads"],
        writes=result["writes"],
        elapsed=elapsed,
        throughput=total_ops / elapsed,
        request_latency={},
        rts_latency={},
        network=_network_summary(result["nodes"]),
        rts_summary=_rts_summary(result, expected),
        scenario_facts=facts,
        num_shards=num_shards,
    )
