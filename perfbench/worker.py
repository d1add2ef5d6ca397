"""Run one repetition of one workload in a fresh process; print its result.

    python3 perfbench/worker.py WORKLOAD INPUTS_JSON TRACE SCALE

``INPUTS_JSON`` is what :func:`suite.prepare_inputs` generated; ``TRACE`` is
``1`` to attribute CPU and virtual time to layers (see ``tracer.py``).  The
result, with the host-side figures of this process (set-up time, peak
resident memory, reference-loop times), goes to stdout as one JSON line.
Run by ``run.py``; every repetition gets a process of its own so that set-up
and memory are measured from a cold start.
"""

import os
import time

import calibrate

# Simulated processes are threads that strictly alternate, so one CPU is
# all a run can use; pinning keeps every handoff on the same core instead
# of letting the scheduler's placement swing the host time.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
CALIBRATION_BEFORE = calibrate.loop_seconds()

#: Taken before anything of the library is imported: set-up starts here.
PROCESS_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _trace_summary(tracer) -> dict:
    return {
        "cpu": tracer.cpu,
        "counts": tracer.counts,
        "spans": tracer.spans,
        "events": tracer.events,
        "window_cpu": tracer.window_cpu,
        "window_wall": tracer.window_wall,
        "seq_queue_max": max((s.max_queue_depth for s in tracer.sequencers), default=0),
    }


def main(argv) -> int:
    name, inputs, trace, scale = argv[1], json.loads(argv[2]), argv[3] == "1", float(argv[4])
    sys.path[:0] = [SRC, HERE]
    import suite

    tracer = None
    if trace:
        from tracer import LayerTracer

        tracer = LayerTracer().install()
    try:
        result = suite.WORKLOADS[name](scale=scale, **inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["setup_s"] = result.pop("first_request") - PROCESS_START
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["calibration_s"] = [CALIBRATION_BEFORE, calibrate.loop_seconds()]
    result["digest"] = suite.virtual_digest(result)
    if tracer is not None:
        result["trace"] = _trace_summary(tracer)
    json.dump(result, sys.stdout, default=repr)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
