"""The four benchmark workloads and the checks that gate their results.

Each workload is one function ``run_<name>(seed, scale)`` that builds its
inputs from ``seed`` alone, drives the unmodified library through its public
API and returns a plain-dict *result*: what the program produced (counter
totals, balances, tour length, ...), the raw per-request virtual latencies,
and the counts the per-layer report needs.  :func:`check` re-derives the
expected outputs from the result and lists every discrepancy, so a doctored
result is rejected without re-running anything.

``scale`` shrinks the request counts (1.0 is the benchmark size; the
self-test runs at toy scale).  Only request counts shrink: cluster shapes,
rates and policies stay the same.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

from repro.apps.tsp import orca_tsp, random_instance, solve_sequential
from repro.apps.tsp.problem import generate_jobs, search_subtree
from repro.errors import TransactionAborted
from repro.metrics.latency import LatencyRecorder
from repro.workloads import PhaseSpec, TenantSpec, WorkloadRunner, WorkloadSpec
from repro.workloads.scenarios import (
    BankAccount,
    CounterFarm,
    Scenario,
    ScenarioRegistry,
)

#: Latency limit (virtual seconds) behind ``virt_goodput_ops_s``: a request
#: that completes later than this, or is shed or aborted, is a miss.
LATENCY_LIMIT = {
    "write-storm": 0.100,
    "gateway-flash-crowd": 0.010,
    "bank-2pc-crash": 0.100,
    "tsp-bound": 0.010,
}


class FirstRequestClock:
    """Host time of the first client request, for ``setup_s``."""

    def __init__(self) -> None:
        self.at: Optional[float] = None

    def tick(self) -> None:
        if self.at is None:
            self.at = time.perf_counter()

    def measured(self) -> Dict[str, float]:
        """Host seconds from the first request until now."""
        return {"host_measured_s": time.perf_counter() - self.at}


class SampleCapture:
    """Keeps every raw latency sample a :class:`LatencyRecorder` receives.

    The library's recorders are geometric-bucket histograms; percentiles and
    latency-limit counts need exact values, so while the capture is active
    each recorder's samples are also appended to a compact array of its own.
    """

    def __init__(self) -> None:
        self._original: Optional[Callable[..., None]] = None
        self.samples: Dict[int, array] = {}
        self.recorders: Dict[int, LatencyRecorder] = {}

    def __enter__(self) -> "SampleCapture":
        original = LatencyRecorder.record
        samples, recorders = self.samples, self.recorders

        def record(recorder: LatencyRecorder, kind: str, seconds: float) -> None:
            key = id(recorder)
            bucket = samples.get(key)
            if bucket is None:
                bucket = samples[key] = array("d")
                recorders[key] = recorder
            bucket.append(seconds)
            original(recorder, kind, seconds)

        self._original = original
        LatencyRecorder.record = record  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc_info: Any) -> None:
        LatencyRecorder.record = self._original  # type: ignore[method-assign]

    def samples_matching(self, summaries: Dict[str, Dict[str, float]]) -> List[float]:
        """Raw samples of the recorder whose summaries equal ``summaries``."""
        for key, recorder in self.recorders.items():
            if recorder.summaries() == summaries:
                return self.samples[key].tolist()
        raise RuntimeError("no latency recorder matches the report")


class WriteSampler(LatencyRecorder):
    """A runtime latency recorder that also keeps every write's raw latency."""

    def __init__(self) -> None:
        super().__init__()
        self.writes = array("d")

    def record(self, kind: str, seconds: float) -> None:
        super().record(kind, seconds)
        if kind == "write":
            self.writes.append(seconds)


# ---------------------------------------------------------------------- #
# Scenario kinds private to the benchmark
# ---------------------------------------------------------------------- #


class _CountingFarm(CounterFarm):
    """Counter farm that reports per-counter totals instead of asserting."""

    clock = FirstRequestClock()
    last: Optional["_CountingFarm"] = None

    def __init__(self, spec: WorkloadSpec) -> None:
        super().__init__(spec)
        _CountingFarm.last = self
        #: Virtual completion time of every request, in completion order.
        self.finished: List[float] = []

    def perform(self, rts, proc, request):
        self.clock.tick()
        value = super().perform(rts, proc, request)
        self.finished.append(proc.local_time)
        return value

    def validate(self, rts, proc, totals):
        counters = [rts.invoke(proc, h, "read") for h in self.handles]
        return {"counters": counters, "writes_done": totals["writes"]}


class _CrashingBank(Scenario):
    """Bank transfers over mixed policies while the primaries' node dies.

    Accounts alternate ``broadcast`` / ``primary-update``; every
    primary-update seat is moved onto the victim (the last node), which no
    client uses and which crashes halfway through the offered schedule.
    Each committed transfer is logged so the check can recompute every
    balance and catch a transfer applied twice or lost across the takeover.
    """

    clock = FirstRequestClock()
    last: Optional["_CrashingBank"] = None

    def __init__(self, spec: WorkloadSpec) -> None:
        super().__init__(spec)
        _CrashingBank.last = self
        self.committed: List[List[int]] = []
        self.aborted = 0
        #: account -> virtual completion times of ops that touched it.
        self.completions: Dict[int, List[float]] = {}
        self.finished: List[float] = []
        #: Per completion: False when the transfer aborted.
        self.ok: List[bool] = []
        self.crashed_at: Optional[float] = None

    def client_nodes(self, cluster) -> List[int]:
        return [n.node_id for n in cluster.nodes[:-1]]

    def setup(self, rts, proc) -> None:
        policies = ("broadcast", "primary-update")
        self.handles = [
            rts.create_object(proc, BankAccount, (100,), name=f"acct[{i}]", policy=policies[i % 2])
            for i in range(self.spec.num_keys)
        ]
        cluster = rts.cluster
        self.victim = cluster.nodes[-1].node_id
        self.seated = [i for i in range(len(self.handles)) if i % 2 == 1]
        for i in self.seated:
            rts.relocate_primary(proc, self.handles[i], target=self.victim)

        crash_at = 0.5 * self.spec.ops_per_client / self.spec.arrival_rate

        def crasher() -> None:
            cproc = cluster.sim.current_process
            cproc.hold(crash_at)
            self.crashed_at = cproc.local_time
            cluster.node(self.victim).crash()

        cluster.node(0).kernel.spawn_thread(crasher, name="crasher", daemon=True)

    def _done(self, proc, *accounts: int) -> None:
        now = proc.local_time
        for account in accounts:
            self.completions.setdefault(account, []).append(now)

    def perform(self, rts, proc, request):
        self.clock.tick()
        aborted = self.aborted
        value = self._transfer_or_read(rts, proc, request)
        self.finished.append(proc.local_time)
        self.ok.append(self.aborted == aborted)
        return value

    def _transfer_or_read(self, rts, proc, request):
        src = request.key
        if not request.is_write:
            value = rts.invoke(proc, self.handles[src], "read")
            self._done(proc, src)
            return value
        dst = (src + 1 + request.seq % (len(self.handles) - 1)) % len(self.handles)
        amount = request.seq % 5 + 1
        ops = [
            (self.handles[src], "withdraw", (amount,)),
            (self.handles[dst], "deposit", (amount,)),
        ]
        try:
            result = rts.transact(proc, ops, on_guard="abort")
        except TransactionAborted:
            self.aborted += 1
            return None
        self.committed.append([src, dst, amount])
        self._done(proc, src, dst)
        return result

    def validate(self, rts, proc, totals):
        return {"balances": [rts.invoke(proc, h, "read") for h in self.handles]}


ScenarioRegistry.register("perfbench-counters", _CountingFarm)
ScenarioRegistry.register("perfbench-bank", _CrashingBank)


def _ops(count: int, scale: float) -> int:
    return max(1, int(round(count * scale)))


def _runner_result(
    runner: WorkloadRunner, scenario_class, clock: FirstRequestClock
) -> Dict[str, Any]:
    """Run ``runner`` and return its report plus the raw request latencies."""
    # The runner builds the scenario itself, so the clock goes in by class.
    scenario_class.clock = clock
    with SampleCapture() as capture:
        report = runner.run()
    measured = clock.measured()
    latencies = capture.samples_matching(report.request_latency)
    scenario = scenario_class.last
    if len(scenario.finished) != len(latencies):
        raise RuntimeError("completion times and latency samples do not pair up")
    return {
        "report": report,
        "latencies": latencies,
        "finished": scenario.finished,
        "ok": getattr(scenario, "ok", [True] * len(latencies)),
        **measured,
    }


def window(
    finished: List[float], latencies: List[float], ok: List[bool], limit: float
) -> Dict[str, float]:
    """Completions, and successful completions within ``limit``, in the central window.

    The window runs from the time the first 10% of requests had completed
    to the time 90% had, so neither the ramp-up nor the drain of the last
    stragglers (whose timing varies most from seed to seed) is counted.
    """
    ordered = sorted(finished)
    start = ordered[len(ordered) // 10]
    end = ordered[(len(ordered) * 9) // 10]
    inside = [(lat, good) for t, lat, good in zip(finished, latencies, ok) if start < t <= end]
    on_time = sum(1 for lat, good in inside if good and lat <= limit)
    return {"window_s": end - start, "window_ops": len(inside), "window_on_time": on_time}


def _p50_p99(summaries: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    return {kind: {"p50": row["p50"], "p99": row["p99"]} for kind, row in summaries.items()}


def _common(report, out: Dict[str, Any], name: str) -> Dict[str, Any]:
    latencies = out["latencies"]
    return {
        **window(out["finished"], latencies, out["ok"], LATENCY_LIMIT[name]),
        "virt_elapsed_s": report.elapsed,
        "latencies": latencies,
        "network": report.network,
        "rts": {k: v for k, v in report.rts_summary.items() if k != "per_object"},
        "rts_latency": _p50_p99(report.rts_latency),
    }


# ---------------------------------------------------------------------- #
# The workloads
# ---------------------------------------------------------------------- #


def run_write_storm(seed: int, scale: float = 1.0) -> Dict[str, Any]:
    """Write-only counter farm: 64 nodes x 2 closed-loop clients, one shard."""
    clock = FirstRequestClock()
    spec = WorkloadSpec(
        name="write-storm",
        num_keys=32,
        read_fraction=0.0,
        think_time=0.0005,
        ops_per_client=_ops(20, scale),
    )
    runner = WorkloadRunner(
        "perfbench-counters",
        workload=spec,
        runtime="broadcast",
        num_nodes=64,
        clients_per_node=2,
        seed=seed,
    )
    out = _runner_result(runner, _CountingFarm, clock)
    report, facts = out["report"], out["report"].scenario_facts
    result = _common(report, out, "write-storm")
    result.update(
        workload="write-storm",
        first_request=clock.at,
        host_measured_s=out["host_measured_s"],
        attempted=report.total_ops,
        completed=report.total_ops,
        shed=0,
        aborted=0,
        ops=report.total_ops,
        writes_done=facts["writes_done"],
        counters=facts["counters"],
    )
    return result


#: Gateway flash crowd: per-gateway calm arrival rate of the crowd tenant.
CROWD_RATE = 1500.0
CROWD_SESSIONS = 16


def run_gateway_flash_crowd(seed: int, scale: float = 1.0) -> Dict[str, Any]:
    """Open-loop crowd (calm, 4x, calm) plus a protected quiet tenant."""
    clock = FirstRequestClock()
    per_session = CROWD_RATE / CROWD_SESSIONS
    burst = _ops(240, scale)
    calm = max(1, burst // 4)
    crowd = TenantSpec(name="crowd", sessions=CROWD_SESSIONS)
    # Sessions of both tenants follow the same phase schedule (a spec has
    # one), so the quiet tenant's 125 req/s calm rate comes from its two
    # sessions, and it also quadruples during the crowd phase.
    quiet = TenantSpec(name="quiet", sessions=2, weight=4.0, priority=1)
    spec = WorkloadSpec(
        name="gateway-flash-crowd",
        num_keys=32,
        read_fraction=0.9,
        client_model="open",
        arrival_rate=per_session,
        tenants=(crowd, quiet),
        phases=(
            PhaseSpec(ops_per_client=calm),
            PhaseSpec(ops_per_client=burst, arrival_rate=per_session * 4),
            PhaseSpec(ops_per_client=calm),
        ),
    )
    runner = WorkloadRunner(
        "perfbench-counters",
        workload=spec,
        runtime="adaptive",
        num_nodes=4,
        seed=seed,
        gateway={"workers": 2, "accept_queue": 2},
    )
    out = _runner_result(runner, _CountingFarm, clock)
    report, facts = out["report"], out["report"].scenario_facts
    gateway = report.rts_summary["gateway"]
    tenants = {
        name: {
            "offered": row["offered"],
            "admitted": row["admitted"],
            "completed": row["completed"],
            "shed": dict(row["shed"]),
            "p99_s": row["latency"]["p99"],
        }
        for name, row in gateway["tenants"].items()
    }
    result = _common(report, out, "gateway-flash-crowd")
    result.update(
        workload="gateway-flash-crowd",
        first_request=clock.at,
        host_measured_s=out["host_measured_s"],
        attempted=gateway["offered"],
        completed=gateway["completed"],
        shed=gateway["shed"],
        aborted=0,
        ops=report.total_ops,
        writes_done=facts["writes_done"],
        counters=facts["counters"],
        tenants=tenants,
    )
    return result


#: Bank: offered load (all clients together, per virtual second).
BANK_RATE = 700.0
BANK_CLIENTS_PER_NODE = 2


def run_bank_2pc_crash(seed: int, scale: float = 1.0) -> Dict[str, Any]:
    """Open-loop transfers across 4 shards while the primaries' node crashes."""
    clock = FirstRequestClock()
    clients = 7 * BANK_CLIENTS_PER_NODE
    spec = WorkloadSpec(
        name="bank-2pc-crash",
        num_keys=16,
        read_fraction=0.5,
        client_model="open",
        arrival_rate=BANK_RATE / clients,
        ops_per_client=_ops(80, scale),
    )
    runner = WorkloadRunner(
        "perfbench-bank",
        workload=spec,
        runtime="broadcast",
        num_nodes=8,
        clients_per_node=BANK_CLIENTS_PER_NODE,
        num_shards=4,
        seed=seed,
    )
    out = _runner_result(runner, _CrashingBank, clock)
    report, bank = out["report"], _CrashingBank.last
    crash_at = bank.crashed_at
    unavailable = 0.0
    for account in bank.seated:
        after = [t for t in bank.completions.get(account, ()) if t > crash_at]
        if after:
            unavailable = max(unavailable, min(after) - crash_at)
    result = _common(report, out, "bank-2pc-crash")
    result.update(
        workload="bank-2pc-crash",
        first_request=clock.at,
        host_measured_s=out["host_measured_s"],
        attempted=report.total_ops,
        completed=report.total_ops - bank.aborted,
        shed=0,
        aborted=bank.aborted,
        ops=report.total_ops,
        balances=report.scenario_facts["balances"],
        committed=bank.committed,
        endowment=100 * spec.num_keys,
        crash_at=crash_at,
        seated=len(bank.seated),
        unavailable_s=unavailable,
        takeovers=report.rts_summary.get("recovery", {}).get("primary_recoveries", 0),
    )
    return result


#: TSP: cities, job depth (partial routes of 4 cities: 990 jobs for 12
#: cities, so 16 workers stay busy) and processor count.  Toy scale uses 8
#: cities.
TSP_CITIES = 12
TSP_DEPTH = 4
TSP_PROCS = 16
#: Accepted instance size: search nodes of the sequential branch-and-bound.
#: Random 12-city instances range over 30x in search effort; the band keeps
#: every instance's work (and so the run's cost) comparable across seeds.
TSP_NODE_BAND = (85_000, 115_000)


class _OverBudget(Exception):
    pass


def _search_nodes(instance, budget: int) -> int:
    """Sequential search effort of ``instance``, or ``budget + 1`` if larger."""
    state = {"bound": instance.nearest_neighbour_tour()[1], "nodes": 0}

    def report_tour(length, tour):
        state["bound"] = min(state["bound"], length)

    def account_work(units):
        if state["nodes"] > budget:
            raise _OverBudget

    def read_bound():
        return state["bound"]

    try:
        for job in generate_jobs(instance, TSP_DEPTH):
            state["nodes"] += search_subtree(instance, job, read_bound, report_tour, account_work)
    except _OverBudget:
        return budget + 1
    return state["nodes"]


def tsp_instance_seed(seed: int, scale: float = 1.0) -> int:
    """The first instance seed drawn from ``seed`` whose effort is in the band."""
    rng = random.Random(seed)
    if scale < 1.0:
        return rng.randrange(2**31)
    low, high = TSP_NODE_BAND
    while True:
        candidate = rng.randrange(2**31)
        if low <= _search_nodes(random_instance(TSP_CITIES, seed=candidate), high) <= high:
            return candidate


def prepare_inputs(name: str, seed: int, scale: float = 1.0) -> Dict[str, Any]:
    """Everything one repetition of ``name`` needs, generated from ``seed``."""
    if name == "tsp-bound":
        return {"seed": seed, "instance_seed": tsp_instance_seed(seed, scale)}
    return {"seed": seed}


def run_tsp_bound(seed: int, instance_seed: int, scale: float = 1.0) -> Dict[str, Any]:
    """The Orca TSP program at 16 processors, then at 1 for the speed-up.

    ``seed`` seeds the simulated cluster; the instance comes from
    ``instance_seed`` (see :func:`tsp_instance_seed`).
    """
    clock = FirstRequestClock()
    cities = TSP_CITIES if scale >= 1.0 else 8
    instance = random_instance(cities, seed=instance_seed)
    original_main, original_search = orca_tsp.tsp_main, orca_tsp.search_subtree
    recorder = WriteSampler()

    @functools.wraps(original_main)
    def main(proc, *args, **kwargs):
        proc.rts.attach_latency_recorder(recorder)
        return original_main(proc, *args, **kwargs)

    def timed_search(*args, **kwargs):
        clock.tick()
        return original_search(*args, **kwargs)

    orca_tsp.search_subtree = timed_search
    try:
        orca_tsp.tsp_main = main
        parallel = orca_tsp.run_tsp_program(
            instance, num_procs=TSP_PROCS, seed=seed, job_depth=TSP_DEPTH
        )
        measured = clock.measured()
        orca_tsp.tsp_main = original_main
        single = orca_tsp.run_tsp_program(instance, num_procs=1, seed=seed, job_depth=TSP_DEPTH)
    finally:
        orca_tsp.tsp_main, orca_tsp.search_subtree = original_main, original_search
    writes = recorder.writes.tolist()
    rts = parallel.rts
    kinds = ("local_reads", "remote_reads", "broadcast_writes", "rpc_writes")
    invocations = sum(rts[kind] for kind in kinds)
    sequential = solve_sequential(instance, job_depth=TSP_DEPTH)
    # Client latency is that of the invocations that leave the processor:
    # job fetches and bound updates, all ordered broadcasts.  Local reads of
    # the bound cost a fixed dispatch each (see rts.read_ms in the trace).
    late = sum(1 for x in writes if x > LATENCY_LIMIT["tsp-bound"])
    return {
        "workload": "tsp-bound", "first_request": clock.at,
        **measured,
        "virt_elapsed_s": parallel.elapsed, "latencies": writes,
        "window_s": parallel.elapsed, "window_ops": invocations,
        "window_on_time": invocations - late,
        "attempted": invocations, "completed": invocations, "shed": 0, "aborted": 0,
        "ops": invocations, "network": parallel.network,
        "rts": {k: v for k, v in rts.items() if k != "per_object"},
        "events": parallel.events,
        "best_length": parallel.value.best_length,
        "single_best_length": single.value.best_length,
        "sequential_best_length": sequential.best_length,
        "jobs": parallel.value.jobs_processed,
        "speedup": single.elapsed / parallel.elapsed,
        "rts_latency": _p50_p99(recorder.summaries()),
    }


WORKLOADS: Dict[str, Callable[[int, float], Dict[str, Any]]] = {
    "write-storm": run_write_storm,
    "gateway-flash-crowd": run_gateway_flash_crowd,
    "bank-2pc-crash": run_bank_2pc_crash,
    "tsp-bound": run_tsp_bound,
}


#: Result fields measured on the host; everything else is virtual and must
#: repeat exactly for the same inputs.
HOST_FIELDS = (
    "first_request",
    "host_measured_s",
    "setup_s",
    "peak_rss_mb",
    "calibration_s",
    "trace",
    "digest",
)


def virtual_digest(result: Dict[str, Any]) -> str:
    """Digest of every virtual-time output and count of one repetition."""
    virtual = {k: v for k, v in result.items() if k not in HOST_FIELDS}
    blob = json.dumps(virtual, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------- #
# Correctness gate
# ---------------------------------------------------------------------- #


def check(result: Dict[str, Any]) -> List[str]:
    """Every way ``result`` disagrees with what the program should produce."""
    errors: List[str] = []
    name = result["workload"]
    if name in ("write-storm", "gateway-flash-crowd"):
        total = sum(result["counters"])
        if total != result["writes_done"]:
            errors.append(f"counter total {total} != completed writes {result['writes_done']}")
    if name == "gateway-flash-crowd":
        for tenant, row in sorted(result["tenants"].items()):
            shed = sum(row["shed"].values())
            if row["offered"] != row["completed"] + shed:
                errors.append(
                    f"tenant {tenant}: offered {row['offered']} != completed "
                    f"{row['completed']} + shed {shed}"
                )
        if result["completed"] + result["shed"] != result["attempted"]:
            errors.append("gateway totals do not add up")
    if name == "bank-2pc-crash":
        balances = result["balances"]
        if sum(balances) != result["endowment"]:
            errors.append(f"balances sum to {sum(balances)}, endowment {result['endowment']}")
        expected = [result["endowment"] // len(balances)] * len(balances)
        for src, dst, amount in result["committed"]:
            expected[src] -= amount
            expected[dst] += amount
        wrong = [i for i, (got, want) in enumerate(zip(balances, expected)) if got != want]
        if wrong:
            errors.append(
                f"accounts {wrong} differ from the committed transfers "
                "(a transfer was lost or applied twice)"
            )
        if result["takeovers"] != result["seated"]:
            errors.append(
                f"{result['takeovers']} primary takeovers, expected one for each "
                f"of the {result['seated']} seats on the crashed node"
            )
    if name == "tsp-bound":
        want = result["sequential_best_length"]
        for key in ("best_length", "single_best_length"):
            if result[key] != want:
                errors.append(f"{key} {result[key]} != sequential optimum {want}")
    if result["completed"] > result["attempted"] or result["attempted"] < 1:
        errors.append("completed/attempted counts are inconsistent")
    return errors
