#!/usr/bin/env python3
"""Substrate demo: PB vs BB broadcast, and invalidation vs two-phase update.

The first half reproduces §3.1's trade-off between the two totally-ordered
broadcast protocols: PB ships the message twice (2m bytes, one interrupt per
receiver), BB ships it once plus a short Accept (m bytes, two interrupts).
The second half compares the point-to-point runtime system's invalidation and
update protocols on a read/write-mix sweep (§3.2.2: "no clear winner").

Run with::

    python examples/protocol_comparison.py
"""

from __future__ import annotations

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig, CostModel
from repro.metrics.report import format_table
from repro.orca.builtin_objects import IntObject
from repro.orca.program import OrcaProgram


def broadcast_protocol_costs(method: str, size: int, count: int = 20):
    cost_model = CostModel().with_overrides(broadcast={"method": method})
    cluster = Cluster(ClusterConfig(num_nodes=8, seed=3, cost_model=cost_model))
    try:
        group = cluster.broadcast_group
        for node in cluster.nodes:
            group.set_delivery_handler(node.node_id, lambda d: None)
        for _ in range(count):
            group.broadcast_from(1, payload="x" * 8, size=size)
        cluster.run()
        receiver = cluster.node(5)
        return {
            "wire_bytes": cluster.network.stats.wire_bytes,
            "interrupts_per_receiver": receiver.nic.stats.interrupts / count,
        }
    finally:
        cluster.shutdown()


def rts_protocol_elapsed(policy: str, read_fraction: float):
    def main(proc):
        shared = proc.new_object(IntObject, 0)
        def worker(wproc, obj, worker_id=0):
            rng_state = worker_id
            for i in range(60):
                wproc.compute(100)
                rng_state = (rng_state * 1103515245 + 12345) % 2**31
                if (rng_state % 1000) / 1000.0 < read_fraction:
                    obj.read()
                else:
                    obj.add(1)
        proc.join_all(proc.fork_workers(worker, shared))
        return shared.read()

    program = OrcaProgram(main, ClusterConfig(num_nodes=8, seed=5), rts="p2p",
                          rts_options={"default_policy": policy,
                                       "replicate_everywhere": True,
                                       "dynamic_replication": False})
    return program.run().elapsed


def main() -> None:
    print("PB vs BB (8 machines, 20 broadcasts each):")
    rows = []
    for size in (200, 1000, 4000):
        for method in ("pb", "bb"):
            stats = broadcast_protocol_costs(method, size)
            rows.append([f"{size}", method.upper(),
                         f"{stats['wire_bytes']}",
                         f"{stats['interrupts_per_receiver']:.1f}"])
    print(format_table(["message bytes", "protocol", "wire bytes", "interrupts/receiver"],
                       rows))
    print("\nInvalidation vs two-phase update (8 machines, swept read fraction):")
    rows = []
    for read_fraction in (0.5, 0.9, 0.99):
        inval = rts_protocol_elapsed("primary-invalidate", read_fraction)
        update = rts_protocol_elapsed("primary-update", read_fraction)
        winner = "update" if update < inval else "invalidation"
        rows.append([f"{read_fraction:.2f}", f"{inval:.4f}", f"{update:.4f}", winner])
    print(format_table(["read fraction", "invalidation (s)", "update (s)", "faster"], rows))


if __name__ == "__main__":
    main()
