"""RTS-COMPARE — the broadcast RTS versus the point-to-point RTS (paper §3.2).

The paper built both runtime systems: the broadcast RTS is the one used for
all application measurements (it exploits the Ethernet's hardware broadcast),
while the point-to-point RTS exists for networks without broadcast.  This
benchmark runs the same TSP program on both and checks that (a) both produce
the identical application answer, and (b) on a broadcast-capable network the
broadcast RTS is the faster substrate for this replicated-object workload.
"""

from __future__ import annotations

import pytest

from repro.apps.tsp import random_instance
from repro.apps.tsp.orca_tsp import run_tsp_program

from conftest import SCALE, run_once

NUM_CITIES = 11 if SCALE == "paper" else 9
NUM_PROCS = 8


@pytest.mark.benchmark(group="rts-compare")
def test_broadcast_vs_p2p_rts_on_tsp(benchmark):
    instance = random_instance(NUM_CITIES, seed=14)

    def experiment():
        broadcast = run_tsp_program(instance, num_procs=NUM_PROCS, rts="broadcast")
        p2p_update = run_tsp_program(instance, num_procs=NUM_PROCS, rts="p2p",
                                     rts_options={"default_policy": "primary-update"})
        p2p_inval = run_tsp_program(instance, num_procs=NUM_PROCS, rts="p2p",
                                    rts_options={"default_policy": "primary-invalidate"})
        return broadcast, p2p_update, p2p_inval

    broadcast, p2p_update, p2p_inval = run_once(benchmark, experiment)

    # Identical answers: the RTS choice is semantically transparent.
    assert (broadcast.value.best_length == p2p_update.value.best_length
            == p2p_inval.value.best_length)
    # On broadcast hardware, the broadcast RTS is the better substrate for this
    # job-queue + shared-bound workload.
    assert broadcast.elapsed <= p2p_update.elapsed
    assert broadcast.elapsed <= p2p_inval.elapsed

    benchmark.extra_info.update({
        "broadcast_elapsed": round(broadcast.elapsed, 4),
        "p2p_update_elapsed": round(p2p_update.elapsed, 4),
        "p2p_invalidation_elapsed": round(p2p_inval.elapsed, 4),
    })
    print(f"\nTSP on {NUM_PROCS} CPUs: broadcast RTS {broadcast.elapsed:.3f}s, "
          f"p2p/update {p2p_update.elapsed:.3f}s, p2p/invalidation {p2p_inval.elapsed:.3f}s")
