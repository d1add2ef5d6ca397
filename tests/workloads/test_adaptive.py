"""Workload-level tests for the adaptive runtime kind and mixed policies."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.workloads import RUNTIME_KINDS, WorkloadRunner, WorkloadSpec

MIXED = WorkloadSpec(name="mixed", num_keys=8, read_fraction=0.95,
                     hot_keys=2, hot_read_fraction=0.05,
                     popularity="zipfian", zipf_s=1.2,
                     ops_per_client=70, think_time=0.0003)


def run(scenario="counter-farm", runtime="adaptive", workload=MIXED, **kwargs):
    return WorkloadRunner(scenario, workload=workload, runtime=runtime,
                          num_nodes=4, clients_per_node=1, seed=13,
                          **kwargs).run()


class TestAdaptiveRuntimeKind:
    def test_adaptive_is_a_runtime_kind(self):
        assert "adaptive" in RUNTIME_KINDS

    def test_hot_keys_get_write_hot_traffic(self):
        report = run()
        # With hot_read_fraction=0.05 on the two Zipf-hottest keys, writes
        # dominate the stream even though cold keys are 95% reads.
        assert report.writes > report.reads * 0.3
        assert report.scenario_facts["counter_total"] == report.writes

    def test_write_hot_counters_migrate_cold_ones_stay(self):
        report = run()
        policies = report.final_policies()
        assert policies["counter[0]"] == "primary-invalidate"
        assert policies["counter[1]"] == "primary-invalidate"
        # The cold tail stays broadcast replicated.
        cold = [policies[f"counter[{i}]"] for i in range(2, 8)]
        assert set(cold) == {"broadcast"}
        assert report.rts_summary["migrations"]["to_primary"] >= 2

    def test_adaptive_report_is_deterministic(self):
        first, second = run(), run()
        assert first.fingerprint() == second.fingerprint()
        assert first.request_latency == second.request_latency

    def test_adaptive_composes_with_sharding_and_batching(self):
        report = run(num_shards=2, batching={"max_batch": 4})
        assert report.scenario_facts["counter_total"] == report.writes
        assert report.rts_summary["sharding"]["num_shards"] == 2

    def test_sharding_still_rejected_on_point_to_point(self):
        with pytest.raises(ConfigurationError):
            WorkloadRunner("counter-farm", runtime="p2p", num_shards=2)


class TestPolicyMixScenario:
    @pytest.mark.parametrize("runtime", RUNTIME_KINDS)
    def test_runs_on_every_runtime(self, runtime):
        report = run("policy-mix", runtime=runtime,
                     workload=WorkloadSpec(name="pm", num_keys=8,
                                           read_fraction=0.8,
                                           ops_per_client=15,
                                           think_time=0.0002))
        assert report.scenario_facts["ledger_total"] == report.writes
        assert report.scenario_facts["catalog_size"] == 8

    def test_objects_run_under_different_policies_on_hybrid(self):
        report = run("policy-mix", runtime="broadcast",
                     workload=WorkloadSpec(name="pm", num_keys=8,
                                           read_fraction=0.8,
                                           ops_per_client=15,
                                           think_time=0.0002))
        policies = report.scenario_facts["policies"]
        assert policies == {"catalog": "broadcast",
                            "ledger": "primary-invalidate"}
        rows = report.object_rows()
        assert rows["ledger"]["policy"] == "primary-invalidate"
        assert rows["catalog"]["policy"] == "broadcast"

    def test_per_object_rows_reconcile_with_totals(self):
        report = run("policy-mix", runtime="broadcast",
                     workload=WorkloadSpec(name="pm", num_keys=8,
                                           read_fraction=0.8,
                                           ops_per_client=15,
                                           think_time=0.0002))
        rows = report.object_rows()
        # Measured traffic (setup writes excluded) adds up per object.
        assert rows["ledger"]["writes"] == report.writes
        measured_reads = sum(row["reads"] for row in rows.values())
        # Validation reads run after the window but still count per object;
        # client reads all hit the catalog.
        assert rows["catalog"]["reads"] >= report.reads


class TestHotKeySpecValidation:
    def test_hot_keys_require_hot_read_fraction(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="x", hot_keys=2)

    def test_hot_keys_bounded_by_key_space(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="x", num_keys=4, hot_keys=5,
                         hot_read_fraction=0.1)

    def test_streams_identical_to_seed_when_disabled(self):
        import random
        from repro.workloads.spec import client_schedule

        base = WorkloadSpec(name="b", num_keys=8, read_fraction=0.7,
                            ops_per_client=30)
        biased = base.with_overrides(hot_keys=2, hot_read_fraction=0.7)
        first = list(client_schedule(base, random.Random(5)))
        second = list(client_schedule(biased, random.Random(5)))
        # Same threshold for hot and cold -> identical stream, key draws and
        # mix draws interleave in the same fixed order.
        assert first == second
