"""DYN-REPL — dynamic replication driven by read/write statistics (paper §3.2.2).

"Initially, only one copy of each object is maintained.  As accesses to
objects are made, statistics are maintained.  When the ratio of reads to
writes on any machine exceeds a certain threshold [...] a message is sent to
the primary to fetch a copy.  Similarly, when this ratio falls below another
threshold [...] the local copy is then discarded."

The benchmark runs a two-phase workload (read-mostly, then write-mostly) on
the point-to-point RTS with the policy enabled and disabled, and checks that
the policy (a) acquires copies during the read phase, (b) drops them during
the write phase, and (c) beats the no-replication configuration overall.
"""

from __future__ import annotations

import pytest

from repro.config import ClusterConfig
from repro.orca.builtin_objects import IntObject
from repro.orca.program import OrcaProgram

from conftest import run_once

NUM_PROCS = 6
PHASE_OPS = 60


def two_phase_main(proc):
    shared = proc.new_object(IntObject, 0)

    def worker(wproc, obj, worker_id=0):
        # Phase 1: read-mostly (every machine should acquire a copy).
        for i in range(PHASE_OPS):
            wproc.compute(150)
            obj.read()
            if i % 20 == 19:
                obj.add(1)
        # Phase 2: write-mostly (copies should be dropped again).
        for i in range(PHASE_OPS // 2):
            wproc.compute(150)
            obj.add(1)
            if i % 10 == 9:
                obj.read()

    proc.join_all(proc.fork_workers(worker, shared))
    return shared.read()


def run_with_policy(dynamic: bool):
    program = OrcaProgram(two_phase_main, ClusterConfig(num_nodes=NUM_PROCS, seed=29),
                          rts="p2p", rts_options={"default_policy": "primary-update",
                                                  "dynamic_replication": dynamic})
    result = program.run(keep_cluster=True)
    runtime = program.runtime
    stats = {
        "elapsed": result.elapsed,
        "copies_fetched": runtime.replication.stats.copies_fetched if dynamic else 0,
        "copies_dropped": runtime.replication.stats.copies_dropped if dynamic else 0,
        "local_reads": runtime.stats.local_reads,
        "remote_reads": runtime.stats.remote_reads,
        "value": result.value,
    }
    program.cluster.shutdown()
    return stats


@pytest.mark.benchmark(group="dynamic-replication")
def test_dynamic_replication_adapts_to_phases(benchmark):
    def experiment():
        return run_with_policy(True), run_with_policy(False)

    dynamic, static = run_once(benchmark, experiment)

    # Both configurations compute the same final value.
    assert dynamic["value"] == static["value"]
    # The policy fetched copies in the read phase and dropped them later.
    assert dynamic["copies_fetched"] >= NUM_PROCS - 2
    assert dynamic["copies_dropped"] >= 1
    # Local copies turn remote reads into local ones...
    assert dynamic["local_reads"] > static["local_reads"]
    # ...and that pays off end to end.
    assert dynamic["elapsed"] < static["elapsed"]

    benchmark.extra_info.update({
        "dynamic_elapsed": round(dynamic["elapsed"], 4),
        "static_elapsed": round(static["elapsed"], 4),
        "copies_fetched": dynamic["copies_fetched"],
        "copies_dropped": dynamic["copies_dropped"],
    })
    print(f"\nDynamic replication: {dynamic['copies_fetched']} copies fetched, "
          f"{dynamic['copies_dropped']} dropped; elapsed {dynamic['elapsed']:.4f}s "
          f"vs {static['elapsed']:.4f}s without the policy")
