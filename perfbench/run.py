"""The repository benchmark: simulator host cost and modelled performance.

    python3 perfbench/run.py --workload write-storm --seed 1 --seconds 20 --trace 0

Workloads: ``write-storm``, ``gateway-flash-crowd``, ``bank-2pc-crash`` and
``tsp-bound`` (see ``perfbench/README.md``).  Each repetition runs in a fresh
worker process (``worker.py``).  The first ``VIRTUAL_REPS[workload]``
repetitions run fixed sub-seeds drawn from ``--seed``; their virtual-time
results are pooled into the virtual metrics.  Later repetitions cycle
through the same sub-seeds until ``--seconds`` have passed; they only add
host-time samples, and each must reproduce its sub-seed's virtual results
exactly.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs sub-seeds
untraced and then traced (at least one, then more while ``--seconds``
last), checks that both agree exactly in virtual time, and prints the
per-layer metrics.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A run whose outputs fail a check reports ``correct:
false``, counts every op as failed and reports no metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("write-storm", "gateway-flash-crowd", "bank-2pc-crash", "tsp-bound")

#: Sub-seeds per run whose virtual results are pooled (about 2.6k ops,
#: 26k requests, 1.1k ops and 100k invocations per sub-seed respectively).
VIRTUAL_REPS = {"write-storm": 4, "gateway-flash-crowd": 2, "bank-2pc-crash": 16, "tsp-bound": 6}
#: A repetition that takes longer than this is a failure.
REP_TIMEOUT_S = 60.0

#: The default seed, and a seed held out for checking claimed gains.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("host_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("virt_ops_per_s", "ops/s"),
    ("virt_goodput_ops_s", "ops/s"),
    ("virt_mean_ms", "ms"),
    ("virt_p99_ms", "ms"),
    ("completed_frac", "frac"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.cpu_share", "frac"),
    ("sim.handoff_cpu_share", "frac"),
    ("sim.idle_frac", "frac"),
    ("sim.events_per_op", "1/op"),
    ("sim.switches_per_op", "1/op"),
    ("sim.us_per_event", "us"),
    ("amoeba.cpu_share", "frac"),
    ("amoeba.msgs_per_op", "1/op"),
    ("amoeba.wire_bytes_per_op", "B/op"),
    ("amoeba.interrupts_per_op", "1/op"),
    ("amoeba.order_ms_p50", "vms"),
    ("amoeba.order_ms_p99", "vms"),
    ("amoeba.seq_queue_max", "count"),
    ("rts.cpu_share", "frac"),
    ("rts.read_ms_p50", "vms"),
    ("rts.read_ms_p99", "vms"),
    ("rts.write_ms_p50", "vms"),
    ("rts.write_ms_p99", "vms"),
    ("rts.local_read_frac", "frac"),
    ("rts.guard_retries", "count"),
    ("rts.policy_switches", "count"),
    ("rts.takeovers", "count"),
    ("rts.takeover_ms_max", "vms"),
    ("rts.unavailable_ms", "vms"),
    ("txn.cpu_share", "frac"),
    ("txn.transact_ms_p50", "vms"),
    ("txn.transact_ms_p99", "vms"),
    ("txn.commit_ratio", "frac"),
    ("txn.cross_shard_frac", "frac"),
    ("txn.recoveries", "count"),
    ("gateway.cpu_share", "frac"),
    ("gateway.queue_wait_ms_p50", "vms"),
    ("gateway.queue_wait_ms_p99", "vms"),
    ("gateway.admit_ratio", "frac"),
    ("gateway.shed_quota", "count"),
    ("gateway.shed_overload", "count"),
    ("gateway.shed_queue_full", "count"),
    ("gateway.shed_evicted", "count"),
    ("gateway.quiet_p99_ms", "vms"),
    ("gateway.client_p999_ms", "vms"),
    ("orca.cpu_share", "frac"),
    ("apps.cpu_share", "frac"),
    ("apps.virt_speedup", "x"),
    ("workloads.cpu_share", "frac"),
    ("metrics.cpu_share", "frac"),
    ("other.cpu_share", "frac"),
    ("trace.cpu_s", "s"),
    ("trace.overhead_frac", "frac"),
)

LAYER_CPU = ("sim", "amoeba", "rts", "txn", "gateway", "orca", "apps", "workloads", "metrics")


class RepFailed(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def sub_seed(seed: int, workload: str, index: int) -> int:
    return random.Random(f"{workload}/{seed}/{index}").randrange(2**31)


def slowness(rep: Dict[str, Any]) -> float:
    """How much slower than the reference the host ran this repetition."""
    return statistics.fmean(rep["calibration_s"]) / calibrate.REFERENCE_S


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of raw samples (0.0 when there are none)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def run_rep(workload: str, inputs: Dict[str, Any], trace: bool, scale: float) -> Dict[str, Any]:
    cmd = [sys.executable, WORKER, workload, json.dumps(inputs), "1" if trace else "0", str(scale)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{workload} {inputs} timed out after {REP_TIMEOUT_S:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{workload} {inputs} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #


def end_to_end(
    reps: List[Dict[str, Any]], virtual: List[Dict[str, Any]]
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """End-to-end metric values and their sample counts.

    Host figures are medians over every repetition, each scaled to the
    reference host speed (see ``calibrate.py``).  Virtual figures pool
    the sub-seeds' central windows; ``virt_p99_ms`` is the median of the
    sub-seeds' own p99s, so one unlucky sub-seed cannot move it alone.
    """
    latencies = [x for r in virtual for x in r["latencies"]]
    window_s = sum(r["window_s"] for r in virtual)
    window_ops = sum(r["window_ops"] for r in virtual)
    attempted = sum(r["attempted"] for r in virtual)
    host_rates = [r["ops"] / r["host_measured_s"] * slowness(r) for r in reps]
    p99s = [percentile(r["latencies"], 0.99) for r in virtual]
    values = {
        "host_ops_per_s": statistics.median(host_rates),
        "setup_s": statistics.median(r["setup_s"] / slowness(r) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "virt_ops_per_s": window_ops / window_s,
        "virt_goodput_ops_s": sum(r["window_on_time"] for r in virtual) / window_s,
        "virt_mean_ms": statistics.fmean(latencies) * 1e3,
        "virt_p99_ms": statistics.median(p99s) * 1e3,
        "completed_frac": sum(r["completed"] for r in virtual) / attempted,
    }
    samples = {name: len(reps) for name in ("host_ops_per_s", "setup_s", "peak_rss_mb")}
    samples.update(
        virt_ops_per_s=window_ops,
        virt_goodput_ops_s=window_ops,
        virt_mean_ms=len(latencies),
        virt_p99_ms=len(latencies),
        completed_frac=attempted,
    )
    return values, samples


def workload_extras(workload: str, virtual: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The figures particular to one workload (printed, not gated)."""
    latencies = [x for r in virtual for x in r["latencies"]]
    extras = {"virt_p50_ms": percentile(latencies, 0.50) * 1e3}
    if workload == "gateway-flash-crowd":
        extras["virt_p999_ms"] = percentile(latencies, 0.999) * 1e3
    if workload == "bank-2pc-crash":
        extras["virt_unavailable_ms"] = max(r["unavailable_s"] for r in virtual) * 1e3
        extras["takeovers"] = sum(r["takeovers"] for r in virtual)
    if workload == "tsp-bound":
        extras["virt_speedup"] = statistics.median(r["speedup"] for r in virtual)
    return extras


def per_layer(
    workload: str, pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]]
) -> Dict[str, float]:
    """Per-layer metrics from (untraced, traced) repetitions of the same inputs.

    CPU is given as each layer's share of the process CPU inside the run
    loop; counts and ``trace.cpu_s`` are means per traced repetition;
    ratios and percentiles pool every traced repetition.
    """
    traced = [t for _u, t in pairs]

    def total(path: Tuple[str, ...]) -> float:
        out = 0.0
        for t in traced:
            node: Any = t
            for key in path:
                node = node.get(key) if isinstance(node, dict) else None
                if node is None:
                    break
            out += node or 0
        return out / len(traced)

    cpu: Dict[str, float] = {}
    spans: Dict[str, List[float]] = {}
    for t in traced:
        for layer, value in t["trace"]["cpu"].items():
            cpu[layer] = cpu.get(layer, 0.0) + value / len(traced)
        for key, values in t["trace"]["spans"].items():
            spans.setdefault(key, []).extend(values)
    ops = total(("ops",))
    window_cpu = total(("trace", "window_cpu"))
    events = total(("trace", "events"))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def span_ms(name: str, fraction: float) -> float:
        return percentile(spans.get(name, []), fraction) * 1e3

    def rts_ms(kind: str, key: str) -> float:
        values = [t["rts_latency"].get(kind, {}).get(key, 0.0) for t in traced]
        return statistics.median(values) * 1e3

    reads = total(("rts", "local_reads")) + total(("rts", "remote_reads"))
    commits = total(("rts", "transactions", "commits"))
    aborts = total(("rts", "transactions", "aborts"))
    retries = total(("rts", "transactions", "conflict_retries"))
    cross_shard = total(("rts", "transactions", "cross_shard_commits"))
    tenants = [t.get("tenants", {}) for t in traced]
    rows = [row for ts in tenants for row in ts.values()]
    offered = sum(row["offered"] for row in rows)
    admitted = sum(row["admitted"] for row in rows)

    def shed(reason: str) -> float:
        return sum(row["shed"].get(reason, 0) for row in rows) / len(traced)

    windows = [t["rts"].get("recovery", {}).get("max_window") or 0.0 for t in traced]
    latencies = [x for t in traced for x in t["latencies"]]
    quiet_p99 = max(ts.get("quiet", {}).get("p99_s", 0.0) for ts in tenants)
    client_p999 = percentile(latencies, 0.999) if workload == "gateway-flash-crowd" else 0.0
    speedups = [t["speedup"] for t in traced] if workload == "tsp-bound" else [0.0]
    attributed = sum(cpu.get(layer, 0.0) for layer in LAYER_CPU) + cpu.get("sim.handoff", 0.0)
    traced_wall = sum(t["host_measured_s"] for t in traced)
    untraced_wall = sum(u["host_measured_s"] for u, _t in pairs)
    return {
        "sim.cpu_share": ratio(cpu.get("sim", 0.0), window_cpu),
        "sim.handoff_cpu_share": ratio(cpu.get("sim.handoff", 0.0), window_cpu),
        "sim.idle_frac": 1.0 - ratio(window_cpu, total(("trace", "window_wall"))),
        "sim.events_per_op": ratio(events, ops),
        "sim.switches_per_op": ratio(total(("trace", "counts", "switches")), ops),
        "sim.us_per_event": ratio(cpu.get("sim", 0.0), events) * 1e6,
        "amoeba.cpu_share": ratio(cpu.get("amoeba", 0.0), window_cpu),
        "amoeba.msgs_per_op": ratio(total(("network", "messages")), ops),
        "amoeba.wire_bytes_per_op": ratio(total(("network", "wire_bytes")), ops),
        "amoeba.interrupts_per_op": ratio(total(("network", "interrupts")), ops),
        "amoeba.order_ms_p50": span_ms("order", 0.50),
        "amoeba.order_ms_p99": span_ms("order", 0.99),
        "amoeba.seq_queue_max": max(t["trace"]["seq_queue_max"] for t in traced),
        "rts.cpu_share": ratio(cpu.get("rts", 0.0), window_cpu),
        "rts.read_ms_p50": rts_ms("read", "p50"),
        "rts.read_ms_p99": rts_ms("read", "p99"),
        "rts.write_ms_p50": rts_ms("write", "p50"),
        "rts.write_ms_p99": rts_ms("write", "p99"),
        "rts.local_read_frac": ratio(total(("rts", "local_reads")), reads),
        "rts.guard_retries": total(("rts", "guard_retries")),
        "rts.policy_switches": total(("rts", "migrations", "total")),
        "rts.takeovers": total(("rts", "recovery", "primary_recoveries")),
        "rts.takeover_ms_max": max(windows) * 1e3,
        "rts.unavailable_ms": max(t.get("unavailable_s", 0.0) for t in traced) * 1e3,
        "txn.cpu_share": ratio(cpu.get("txn", 0.0), window_cpu),
        "txn.transact_ms_p50": span_ms("transact", 0.50),
        "txn.transact_ms_p99": span_ms("transact", 0.99),
        "txn.commit_ratio": ratio(commits, commits + aborts + retries),
        "txn.cross_shard_frac": ratio(cross_shard, commits),
        "txn.recoveries": total(("rts", "transactions", "recoveries")),
        "gateway.cpu_share": ratio(cpu.get("gateway", 0.0), window_cpu),
        "gateway.queue_wait_ms_p50": span_ms("queue_wait", 0.50),
        "gateway.queue_wait_ms_p99": span_ms("queue_wait", 0.99),
        "gateway.admit_ratio": ratio(admitted, offered),
        "gateway.shed_quota": shed("quota"),
        "gateway.shed_overload": shed("overload"),
        "gateway.shed_queue_full": shed("queue_full"),
        "gateway.shed_evicted": shed("evicted"),
        "gateway.quiet_p99_ms": quiet_p99 * 1e3,
        "gateway.client_p999_ms": client_p999 * 1e3,
        "orca.cpu_share": ratio(cpu.get("orca", 0.0), window_cpu),
        "apps.cpu_share": ratio(cpu.get("apps", 0.0), window_cpu),
        "apps.virt_speedup": statistics.median(speedups),
        "workloads.cpu_share": ratio(cpu.get("workloads", 0.0), window_cpu),
        "metrics.cpu_share": ratio(cpu.get("metrics", 0.0), window_cpu),
        "other.cpu_share": ratio(window_cpu - attributed, window_cpu),
        "trace.cpu_s": window_cpu,
        "trace.overhead_frac": ratio(traced_wall, untraced_wall) - 1.0,
    }


# ---------------------------------------------------------------------- #
# Running
# ---------------------------------------------------------------------- #


def measure(
    workload: str, seed: int, seconds: float, trace: bool, scale: float
) -> Tuple[Dict[str, Any], List[str]]:
    """Run the workload; returns the result object and the report lines."""
    import suite

    k = VIRTUAL_REPS[workload] if scale >= 1.0 else 1
    inputs = [suite.prepare_inputs(workload, sub_seed(seed, workload, i), scale) for i in range(k)]
    lines: List[str] = []
    errors: List[str] = []
    deadline = time.perf_counter() + seconds
    if trace:
        pairs = []
        while not pairs or (len(pairs) < k and time.perf_counter() < deadline):
            i = len(pairs)
            untraced = run_rep(workload, inputs[i], False, scale)
            traced = run_rep(workload, inputs[i], True, scale)
            if traced["digest"] != untraced["digest"]:
                errors.append(f"sub-seed {inputs[i]}: traced run differs in virtual time")
            errors.extend(suite.check(untraced) + suite.check(traced))
            pairs.append((untraced, traced))
        reps = [r for pair in pairs for r in pair]
        values = per_layer(workload, pairs)
        units = PER_LAYER
        samples: Dict[str, int] = {name: len(pairs) for name, _unit in PER_LAYER}
    else:
        reps = []
        while len(reps) < k or time.perf_counter() < deadline:
            i = len(reps)
            rep = run_rep(workload, inputs[i % k], False, scale)
            if i >= k and rep["digest"] != reps[i % k]["digest"]:
                errors.append(f"sub-seed {inputs[i % k]}: a repeat differs in virtual time")
            errors.extend(suite.check(rep))
            reps.append(rep)
        values, samples = end_to_end(reps, reps[:k])
        units = END_TO_END
        raw_rate = statistics.median(r["ops"] / r["host_measured_s"] for r in reps)
        raw_setup = statistics.median(r["setup_s"] for r in reps)
        lines.append(
            f"  unscaled host figures: host_ops_per_s {raw_rate:.6g}, setup_s {raw_setup:.6g}, "
            f"host slowness {statistics.median(slowness(r) for r in reps):.4g}"
        )
        for key, value in workload_extras(workload, reps[:k]).items():
            lines.append(f"  {workload}.{key} = {value:.6g} (from {k} sub-seeds)")
    correct = not errors
    attempted = sum(r["attempted"] for r in reps)
    verdict = "correct" if correct else "INCORRECT"
    sub_seeds = [inp["seed"] for inp in inputs]
    lines.insert(
        0,
        f"{workload}: seed {seed}, {len(reps)} repetitions, sub-seeds {sub_seeds}, "
        f"verdict {verdict}",
    )
    lines.extend(f"  error: {e}" for e in errors)
    metrics: Dict[str, Any] = {}
    if correct:
        for name, unit in units:
            lines.append(f"  {name:28s} {values[name]:14.6f} {unit:6s} n={samples[name]}")
            metrics[name] = {"value": values[name], "unit": unit}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": metrics,
    }
    return result, lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink request counts (the self-test uses toy sizes)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: library source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    try:
        result, lines = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
