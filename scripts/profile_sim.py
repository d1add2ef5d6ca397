"""Profile the simulator hot path over a parameterised benchmark cell.

Runs one broadcast-heavy workload cell (the same shape as
``benchmarks/bench_kernel_scaling.py``) under ``cProfile`` and prints a
top-N table by cumulative and by internal time, so "make the kernel faster"
always starts from a measurement instead of a hunch.  CI can archive the
output as an artifact to track where the time goes across commits.

Every simulated process runs in its own thread, which a plain ``cProfile``
of the kernel thread never sees.  This script therefore also wraps
``SimProcess._bootstrap`` (here, not in ``src/``) so each process thread
runs under its own profiler, and merges those with the kernel thread's
profile.  All profilers time with the thread's own CPU clock, so a thread
parked in the handshake's ``lock.acquire`` while the other side runs
accrues nothing; the handshake's CPU, and the wall time no thread spent on
CPU (the wake-up latency between threads), are reported on their own
lines instead of in the tables.  From Python 3.12 ``cProfile`` is built on
``sys.monitoring`` and allows one active profiler per process, so there the
script runs a single wall-clock profiler and warns that its output is
unverified and may mix calls from every thread into one call stack.

Usage::

    PYTHONPATH=src python scripts/profile_sim.py
    PYTHONPATH=src python scripts/profile_sim.py --nodes 64 --ops 20 --top 40
    PYTHONPATH=src python scripts/profile_sim.py --out profile.txt
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - script-mode bootstrap
    sys.path.insert(0, _SRC)

from repro.config import ClusterConfig, CostModel
from repro.sim.process import SimProcess
from repro.workloads import WorkloadRunner, WorkloadSpec

#: pstats key of a raw lock's ``acquire``: the thread handshake.
HANDSHAKE_KEY = ("~", 0, "<method 'acquire' of '_thread.lock' objects>")


def build_cell(args: argparse.Namespace):
    """The profiled workload: sequenced write broadcasts, loaded sequencer."""
    cost_model = CostModel().with_overrides(cpu={"sequencing_cost": args.sequencing_cost})
    spec = WorkloadSpec(
        name="counter-farm-writes",
        num_keys=32,
        read_fraction=0.0,
        ops_per_client=args.ops,
        think_time=args.think_time,
    )

    def cell():
        runner = WorkloadRunner(
            "counter-farm",
            workload=spec,
            runtime="broadcast",
            num_nodes=args.nodes,
            clients_per_node=args.clients,
            seed=args.seed,
            num_shards=args.shards,
            config=ClusterConfig(num_nodes=args.nodes, seed=args.seed, cost_model=cost_model),
        )
        return runner.run()

    return cell


#: Per-thread profilers need a cProfile that keeps one profiler per thread.
PER_THREAD = sys.version_info < (3, 12)


def profile_process_threads():
    """Run every process thread under its own thread-CPU profiler.

    Returns the list the finished threads' profilers are appended to and a
    function that restores the original ``SimProcess._bootstrap``.
    """
    bootstrap = SimProcess.__dict__["_bootstrap"]
    finished = []

    def profiled_bootstrap(proc):
        profiler = cProfile.Profile(time.thread_time)
        profiler.enable()
        try:
            bootstrap(proc)
        finally:
            profiler.disable()
            finished.append(profiler)

    SimProcess._bootstrap = profiled_bootstrap
    return finished, lambda: setattr(SimProcess, "_bootstrap", bootstrap)


def take_handshake(stats: pstats.Stats):
    """Remove the handshake's ``lock.acquire`` from ``stats``; return
    (calls, seconds)."""
    entry = stats.stats.pop(HANDSHAKE_KEY, None)
    if entry is None:
        return 0, 0.0
    primitive, calls, internal, _cumulative, _callers = entry
    stats.total_calls -= calls
    stats.prim_calls -= primitive
    stats.total_tt -= internal
    return calls, internal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile the discrete-event hot path over one bench cell"
    )
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--clients", type=int, default=6, help="closed-loop clients per node")
    parser.add_argument("--ops", type=int, default=40, help="ops per client")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--think-time", type=float, default=0.0005)
    parser.add_argument(
        "--sequencing-cost",
        type=float,
        default=2.0e-4,
        help="per-message sequencer service time (seconds)",
    )
    parser.add_argument("--top", type=int, default=25, help="rows per ranking table")
    parser.add_argument("--out", default=None, help="also write the report to this file")
    args = parser.parse_args(argv)

    cell = build_cell(args)
    if PER_THREAD:
        thread_profilers, restore = profile_process_threads()
        profiler = cProfile.Profile(time.thread_time)
    else:
        thread_profilers, restore = [], lambda: None
        profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        report = cell()
    finally:
        profiler.disable()
        restore()
    wall = time.perf_counter() - started

    buf = io.StringIO()
    buf.write(
        f"profile_sim: {args.nodes} nodes x {args.clients} clients x "
        f"{args.ops} ops (shards={args.shards}, seed={args.seed})\n"
        f"wall={wall:.3f}s ops={report.total_ops} "
        f"virtual_throughput={report.throughput:.1f} ops/s\n"
    )
    stats = pstats.Stats(profiler, stream=buf)
    kernel_calls, kernel_wait = take_handshake(stats)
    if PER_THREAD:
        threads = pstats.Stats(*thread_profilers)
        thread_calls, thread_wait = take_handshake(threads)
        buf.write(
            f"CPU in the tables: kernel thread {stats.total_tt:.3f}s, "
            f"{len(thread_profilers)} process threads {threads.total_tt:.3f}s\n"
            f"thread handshake (not in the tables): lock.acquire CPU "
            f"{kernel_wait + thread_wait:.3f}s in {kernel_calls + thread_calls} "
            f"calls; wall time on no thread's CPU "
            f"{wall - stats.total_tt - threads.total_tt - kernel_wait - thread_wait:.3f}s\n\n"
        )
        stats.add(threads)
    else:
        warning = (
            "WARNING: this Python allows one active profiler per process: one "
            "wall-clock profile, unverified, whose calls may mix every "
            "thread's; use Python < 3.12 for the per-thread profile\n"
        )
        buf.write(
            f"{warning}lock.acquire (not in the tables) "
            f"{kernel_wait:.3f}s in {kernel_calls} calls\n\n"
        )
    buf.write(f"=== top {args.top} by cumulative time ===\n")
    stats.sort_stats("cumulative").print_stats(args.top)
    buf.write(f"\n=== top {args.top} by internal time ===\n")
    stats.sort_stats("tottime").print_stats(args.top)

    text = buf.getvalue()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
