"""Every consumer of ``client_schedule`` must see the same schedule.

The simulator's client processes, gateway sessions, the real backend's
client threads and the oracle's stream replay all time their requests from
:func:`~repro.workloads.spec.client_schedule`.  The oracle can only vouch
for a real run if all of them issue the identical request stream for one
seeded rng, so each check below runs over a closed, an open, a hybrid
closed→open and an arrival-trace spec.
"""

from __future__ import annotations

import random

import pytest

from repro.gateway.session import WAIT, ClientSession
from repro.net.harness import RealClusterConfig
from repro.net.node_process import _client_loop, _ClientPool
from repro.net.oracle import expected_issued_writes, record_sim_oracle
from repro.net.rts_adapter import ClientProc
from repro.workloads.spec import (
    CLOSED,
    OPEN,
    OPEN_RESTART,
    TRACE,
    PhaseSpec,
    WorkloadSpec,
    client_schedule,
)

SPECS = {
    "closed": WorkloadSpec(name="closed", num_keys=6, read_fraction=0.6,
                           think_time=0.0005, ops_per_client=20),
    "open": WorkloadSpec(name="open", num_keys=6, read_fraction=0.6,
                         client_model="open", arrival_rate=800.0,
                         ops_per_client=20),
    "hybrid": WorkloadSpec(
        name="hybrid", num_keys=6, read_fraction=0.5, arrival_rate=1000.0,
        phases=(PhaseSpec(ops_per_client=8, think_time=0.0005),
                PhaseSpec(ops_per_client=8, client_model="open"),
                PhaseSpec(ops_per_client=6),
                PhaseSpec(ops_per_client=6, client_model="open",
                          read_fraction=0.2))),
    "trace": WorkloadSpec(name="trace", num_keys=6, read_fraction=0.6,
                          client_model="open",
                          arrival_trace=((0.01, 800.0), (0.01, 2000.0))),
}

#: Virtual service time the session driver below charges each request.
SERVICE = 0.001
START = 2.0


def config(spec: WorkloadSpec) -> RealClusterConfig:
    return RealClusterConfig(scenario="counter-farm", workload=spec,
                             num_nodes=3, num_shards=2, clients_per_node=2,
                             seed=17)


def reference_arrivals(spec: WorkloadSpec, seed: int):
    """Arrival times read straight off the schedule's timing tags."""
    now = last_completion = open_clock = START
    arrivals = []
    for request, timing, value in client_schedule(spec, random.Random(seed)):
        if timing == CLOSED:
            arrival = last_completion + value
        elif timing == OPEN:
            open_clock += value
            arrival = open_clock
        elif timing == OPEN_RESTART:
            open_clock = now + value
            arrival = open_clock
        else:
            assert timing == TRACE
            arrival = START + value
        arrivals.append((request, arrival, timing))
        now = max(now, arrival)
        last_completion = now + SERVICE
    return arrivals


@pytest.mark.parametrize("kind", sorted(SPECS))
class TestEveryConsumerSeesOneSchedule:
    def test_gateway_session_matches_schedule(self, kind):
        spec = SPECS[kind]
        expected = reference_arrivals(spec, seed=5)
        session = ClientSession(0, None, spec, random.Random(5), START)
        now = last_completion = START
        seen = []
        while True:
            state = session.advance(now)
            if state is None:
                break
            tag, arrival, request = state
            if tag == WAIT:
                arrival, request = session.release(last_completion)
            seen.append((request, arrival))
            now = max(now, arrival)
            last_completion = now + SERVICE
        assert session.done
        assert seen == [(request, arrival)
                        for request, arrival, _timing in expected]
        if kind == "hybrid":
            assert OPEN_RESTART in {timing for _, _, timing in expected}

    def test_oracle_replay_matches_sim_run(self, kind):
        cfg = config(SPECS[kind])
        expected = expected_issued_writes(cfg)
        sim = record_sim_oracle(cfg)
        assert (sim["reads"], sim["writes"]) == (expected["reads"],
                                                 expected["writes"])
        sim_writes = {name: count for name, count
                      in sim["per_object_writes"].items() if count}
        assert sim_writes == expected["per_object_writes"]

    def test_real_client_loop_matches_oracle_replay(self, kind):
        cfg = config(SPECS[kind])
        expected = expected_issued_writes(cfg)
        scenario, probe = cfg.replay_setup()
        pool = _ClientPool()
        for node_id in cfg.client_nodes:
            for client_id in range(cfg.clients_per_node):
                _client_loop(probe, scenario, cfg.spec,
                             ClientProc(node_id, client_id), pool, cfg.seed)
        assert pool.errors == []
        assert (pool.reads, pool.writes) == (expected["reads"],
                                             expected["writes"])
        assert probe.client_writes == expected["per_client_writes"]
