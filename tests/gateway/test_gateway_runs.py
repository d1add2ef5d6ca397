"""Integration tests: gateway-mode workload runs end to end."""

from __future__ import annotations

import json

import pytest

from repro.config import ClusterConfig, CostModel
from repro.workloads import PhaseSpec, TenantSpec, WorkloadRunner, WorkloadSpec

TWO_TENANTS = WorkloadSpec(
    name="two-tenants", num_keys=8, read_fraction=0.8, client_model="open",
    arrival_rate=200.0, ops_per_client=15,
    tenants=(TenantSpec(name="quiet", sessions=3, priority=1),
             TenantSpec(name="noisy", sessions=6, priority=0,
                        rate=200.0, burst=20.0, arrival_rate=800.0)))


def gateway_run(workload=TWO_TENANTS, gateway=True, seed=11, **kwargs):
    runner = WorkloadRunner("counter-farm", workload=workload,
                            runtime="broadcast", num_nodes=3, seed=seed,
                            gateway=gateway, **kwargs)
    return runner.run()


class TestGatewayRuns:
    def test_counters_conserve_and_validate_passes(self):
        report = gateway_run()
        gw = report.rts_summary["gateway"]
        # Only completed requests touch objects; the scenario's own
        # conservation check ran against exactly those.
        assert report.scenario_facts["counter_total"] == report.writes
        assert report.total_ops == gw["completed"]
        assert gw["offered"] == gw["completed"] + gw["shed"]
        for row in gw["tenants"].values():
            shed_at_admission = (row["shed"]["quota"] + row["shed"]["overload"]
                                 + row["shed"]["queue_full"])
            assert row["offered"] == row["admitted"] + shed_at_admission
            assert row["completed"] == row["admitted"] - row["shed"]["evicted"]
            assert row["latency"]["count"] == row["completed"]

    def test_sessions_are_not_processes(self):
        report = gateway_run()
        gw = report.rts_summary["gateway"]
        # 9 sessions per node x 3 nodes, but only (1 driver + 4 workers)
        # per node actually run as simulated processes.
        assert report.num_clients == gw["sessions"] == 27
        assert gw["gateways"] == 3

    def test_quota_sheds_the_noisy_tenant_only(self):
        report = gateway_run()
        tenants = report.rts_summary["gateway"]["tenants"]
        assert tenants["noisy"]["shed"]["quota"] > 0
        assert tenants["quiet"]["shed"]["quota"] == 0
        assert tenants["quiet"]["completed"] == tenants["quiet"]["offered"]

    def test_deterministic_fingerprint(self):
        first = json.dumps(gateway_run().fingerprint(), sort_keys=True)
        second = json.dumps(gateway_run().fingerprint(), sort_keys=True)
        assert first == second

    def test_seed_changes_the_run(self):
        first = json.dumps(gateway_run(seed=11).fingerprint(), sort_keys=True)
        second = json.dumps(gateway_run(seed=12).fingerprint(), sort_keys=True)
        assert first != second

    def test_classic_runs_carry_no_gateway_block(self):
        report = gateway_run(gateway=None)
        assert "gateway" not in report.rts_summary
        assert "gateway" not in report.fingerprint()


class TestOverloadShedding:
    def test_queue_bound_sheds_when_offered_exceeds_capacity(self):
        crowd = WorkloadSpec(
            name="crowd", num_keys=4, read_fraction=0.5, client_model="open",
            arrival_rate=3000.0, ops_per_client=30,
            tenants=(TenantSpec(name="crowd", sessions=8),))
        report = gateway_run(workload=crowd,
                             gateway={"workers": 1, "accept_queue": 4})
        row = report.rts_summary["gateway"]["tenants"]["crowd"]
        assert row["shed"]["queue_full"] > 0
        # The accept queue caps in-gateway waiting: everything admitted
        # still completed, it just waited a bounded amount.
        assert row["completed"] == row["admitted"]

    def test_downstream_depth_sheds_low_priority_first(self):
        # The shed signal is the sequencer's service queue, which only
        # forms when ordering work costs CPU (the calibrated default is 0).
        cost = CostModel().with_overrides(cpu={"sequencing_cost": 2.0e-3})
        config = ClusterConfig(num_nodes=3, seed=11, cost_model=cost)
        mixed = WorkloadSpec(
            name="mixed", num_keys=4, read_fraction=0.2, client_model="open",
            arrival_rate=2000.0, ops_per_client=25,
            tenants=(TenantSpec(name="premium", sessions=2, priority=1),
                     TenantSpec(name="standard", sessions=6, priority=0)))
        report = WorkloadRunner(
            "counter-farm", workload=mixed, runtime="broadcast",
            num_nodes=3, seed=11, config=config,
            gateway={"workers": 4, "accept_queue": None, "shed_depth": 1},
        ).run()
        tenants = report.rts_summary["gateway"]["tenants"]
        assert tenants["standard"]["shed"]["overload"] > 0
        # Top-priority traffic is never overload-shed.
        assert tenants["premium"]["shed"]["overload"] == 0

    def test_eviction_prefers_low_priority_victims(self):
        mixed = WorkloadSpec(
            name="evict", num_keys=4, read_fraction=0.5, client_model="open",
            arrival_rate=4000.0, ops_per_client=25,
            tenants=(TenantSpec(name="premium", sessions=2, priority=1),
                     TenantSpec(name="standard", sessions=6, priority=0)))
        report = gateway_run(workload=mixed,
                             gateway={"workers": 1, "accept_queue": 2})
        tenants = report.rts_summary["gateway"]["tenants"]
        assert tenants["standard"]["shed"]["evicted"] > 0
        assert tenants["premium"]["shed"]["evicted"] == 0


class TestGatewayClientModels:
    def test_closed_loop_sessions_complete_everything(self):
        closed = WorkloadSpec(
            name="closed", num_keys=4, read_fraction=0.75,
            client_model="closed", think_time=0.0002, ops_per_client=10,
            tenants=(TenantSpec(name="only", sessions=4),))
        report = gateway_run(workload=closed)
        gw = report.rts_summary["gateway"]
        # Closed-loop sessions self-pace: nothing queues deep enough to shed.
        assert gw["shed"] == 0
        assert gw["completed"] == 4 * 3 * 10

    def test_hybrid_phases_run_and_fingerprint_deterministically(self):
        hybrid = WorkloadSpec(
            name="hybrid", num_keys=4, read_fraction=0.75,
            client_model="closed", think_time=0.0002, arrival_rate=400.0,
            phases=(PhaseSpec(ops_per_client=6),
                    PhaseSpec(ops_per_client=6, client_model="open"),
                    PhaseSpec(ops_per_client=6, client_model="closed")),
            tenants=(TenantSpec(name="only", sessions=4),))
        first = json.dumps(gateway_run(workload=hybrid).fingerprint(),
                           sort_keys=True)
        second = json.dumps(gateway_run(workload=hybrid).fingerprint(),
                            sort_keys=True)
        assert first == second

    def test_trace_driven_sessions(self):
        report = WorkloadRunner("diurnal-trace", runtime="broadcast",
                                num_nodes=3, seed=5, gateway=True).run()
        gw = report.rts_summary["gateway"]
        assert gw["completed"] > 0
        assert report.scenario_facts["counter_total"] == report.writes


class TestScenarioKinds:
    @pytest.mark.parametrize("kind", ["multi-tenant-noisy-neighbour",
                                      "flash-crowd", "diurnal-trace"])
    def test_gateway_kinds_run_under_the_classic_runner_too(self, kind):
        # Without a gateway the tenant list is inert; the kinds must still
        # run (and validate) as plain workloads on the classic runner.
        report = WorkloadRunner(kind, runtime="broadcast", num_nodes=3,
                                clients_per_node=1, seed=7).run()
        assert report.total_ops > 0
        assert "gateway" not in report.rts_summary

    @pytest.mark.parametrize("kind", ["multi-tenant-noisy-neighbour",
                                      "flash-crowd", "diurnal-trace"])
    def test_gateway_kinds_run_through_the_gateway(self, kind):
        runner = WorkloadRunner(kind, runtime="broadcast", num_nodes=3,
                                seed=7, gateway=True)
        report = runner.run()
        gw = report.rts_summary["gateway"]
        assert gw["completed"] > 0
        assert set(gw["tenants"]) == {t.name for t in runner.workload.tenants}
