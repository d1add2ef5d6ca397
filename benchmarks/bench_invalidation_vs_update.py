"""INV-UPD — invalidation versus two-phase update (paper §3.2.2).

"Comparisons of update and invalidation did not show a clear winner.  Which
one is better depends on the problem being solved.  Our experience suggests
that updating is better more often than invalidation."

The benchmark sweeps a synthetic workload's read fraction and write
burstiness over both coherence protocols of the point-to-point RTS and
records which protocol wins each cell.  The assertions check the paper's two
qualitative findings: each protocol wins somewhere (no clear winner), and
update wins at least as many cells as invalidation.
"""

from __future__ import annotations

import pytest

from repro.config import ClusterConfig
from repro.metrics.report import format_table
from repro.orca.builtin_objects import IntObject
from repro.orca.program import OrcaProgram

from conftest import run_once

NUM_PROCS = 8
OPS_PER_WORKER = 40

#: (read_fraction, consecutive_writes) cells of the sweep.  High read
#: fractions favour update (copies stay valid); bursts of consecutive writes
#: favour invalidation (one invalidation replaces many update rounds).
CELLS = [(0.95, 1), (0.9, 1), (0.7, 1), (0.5, 4), (0.3, 6), (0.1, 8)]


def make_program(policy: str, read_fraction: float, burst: int) -> OrcaProgram:
    def main(proc):
        shared = proc.new_object(IntObject, 0)

        def worker(wproc, obj, worker_id=0):
            state = worker_id * 7919 + 13
            ops = 0
            while ops < OPS_PER_WORKER:
                wproc.compute(200)
                state = (state * 1103515245 + 12345) % 2**31
                if (state % 1000) / 1000.0 < read_fraction:
                    obj.read()
                    ops += 1
                else:
                    for _ in range(burst):
                        obj.add(1)
                    ops += burst

        proc.join_all(proc.fork_workers(worker, shared))
        return shared.read()

    return OrcaProgram(main, ClusterConfig(num_nodes=NUM_PROCS, seed=9), rts="p2p",
                       rts_options={"default_policy": policy,
                                    "replicate_everywhere": True,
                                    "dynamic_replication": False})


@pytest.mark.benchmark(group="inv-vs-upd")
def test_invalidation_vs_update_sweep(benchmark):
    def experiment():
        outcome = []
        for read_fraction, burst in CELLS:
            inval = make_program("primary-invalidate", read_fraction, burst).run().elapsed
            update = make_program("primary-update", read_fraction, burst).run().elapsed
            outcome.append((read_fraction, burst, inval, update))
        return outcome

    outcome = run_once(benchmark, experiment)
    update_wins = sum(1 for _rf, _b, inval, update in outcome if update < inval)
    inval_wins = len(outcome) - update_wins

    # "No clear winner": each protocol wins at least one cell...
    assert update_wins >= 1
    assert inval_wins >= 1
    # ..."updating is better more often than invalidation".
    assert update_wins >= inval_wins

    rows = [[f"{rf:.2f}", str(b), f"{inval:.4f}", f"{update:.4f}",
             "update" if update < inval else "invalidation"]
            for rf, b, inval, update in outcome]
    benchmark.extra_info["update_wins"] = update_wins
    benchmark.extra_info["invalidation_wins"] = inval_wins
    print()
    print(format_table(
        ["read fraction", "write burst", "invalidation (s)", "update (s)", "faster"],
        rows, title="§3.2.2 — invalidation vs two-phase update"))
