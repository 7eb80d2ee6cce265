"""One fresh benchmark process: set up a workload's inputs, run its operations
in a closed loop (one outstanding operation, one thread), check every output
against the goldens, and print one JSON line of raw measurements.

Started by run.py, never by hand:

    python3 perfbench/worker.py ROLE WORKLOAD SEED SIZE SPAWNED_AT

ROLE is ``setup`` (stop after set-up), ``measure`` (one untraced pass) or
``trace`` (an untraced pass, a span-traced pass and an element-counting
pass).  SPAWNED_AT is the parent's ``time.time()`` just before it started
this process, so set-up time includes interpreter start.
"""

import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

PROBE_EVERY_S = 0.02
# Median probe time on the 2-vCPU Xeon VM described in NOTES.md; a
# calibrated time is the time the operation would take at that probe speed.
PROBE_REF_S = 2.8e-4


def _probe_kernel() -> None:
    s = 0
    for i in range(3000):
        s += i * i % 7


class SpeedProbe:
    """Interpreter speed sampled every 20 ms by a fixed pure-Python loop.

    On a VM whose cores are shared, throughput drifts by up to 1.75x within
    seconds (NOTES.md).  An operation's time divided by the probe's slowdown
    around it cancels that drift; see NOTES.md.
    """

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        start = time.perf_counter()
        _probe_kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(w, ops, goldens: dict, probe: SpeedProbe) -> dict:
    """Run each operation once; time it and check its outputs.

    Each operation starts from a collected heap, so its cost does not depend
    on the operations run before it (the seed only orders them).  The
    collection is not timed, nor is the probe time inside an operation.
    """
    raw, cal, cpu, cal_cpu, failures, defects = [], [], 0.0, 0.0, [], 0
    for key, args in ops:
        gc.collect()
        probe.sample()
        n0 = len(probe.samples)
        start, cpu0 = time.perf_counter(), time.process_time()
        try:
            out = w.run(*args)
        except Exception as exc:  # a failed operation, counted, not fatal
            out = None
            failures.append(f"{key}: raised {exc.__class__.__name__}: {exc}")
        probed = sum(probe.samples[n0:])
        wall = time.perf_counter() - start - probed
        busy = time.process_time() - cpu0 - probed
        # the last ~1 s before the operation plus the time it ran
        speed = PROBE_REF_S / statistics.median(probe.samples[max(0, n0 - 50):])
        raw.append(wall)
        cal.append(wall * speed)
        cpu += busy
        cal_cpu += busy * speed
        if out is None:
            continue
        golden = goldens.get(key)
        bad = (["no golden recorded"] if golden is None
               else w.check(out, golden))
        if bad:
            failures.append(f"{key}: {'; '.join(bad)}")
        elif w.known_defect(out):
            defects += 1
    return {"raw_wall_s": sum(raw), "raw_cpu_s": cpu, "wall_s": sum(cal),
            "cpu_s": cal_cpu, "op_s": cal, "failures": failures,
            "known_defects": defects}


def main(argv, probe: SpeedProbe) -> dict:
    role, name, seed, size, spawned_at = argv
    seed, spawned_at = int(seed), float(spawned_at)
    # imported under the running probe, so set-up is sampled from here on
    import tracing
    import workloads
    w = workloads.WORKLOADS[name]
    frame = workloads.FRAMES[name][size]
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)[name][size]

    ops = w.inputs(frame, seed)
    setup_s = time.time() - spawned_at
    probe.sample()  # at least one sample, however short the set-up
    speed = PROBE_REF_S / statistics.median(probe.samples)
    result = {"raw_setup_s": setup_s, "setup_s": setup_s * speed}
    if role == "setup":
        return result

    # One pass: a second would build its inputs while the first pass's
    # groups and memos are still alive, and peak RSS would count both.
    passes = [run_pass(w, ops, goldens, probe)]
    if role == "trace":
        # Set-up and operations are traced apart, so that the per-operation
        # layers cover the same work as wall_s and the element counts.
        setup_tracer, tracer = tracing.Tracer(), tracing.Tracer()
        del ops
        with setup_tracer.installed():
            ops = w.inputs(frame, seed)
        with tracer.installed():
            passes.append(run_pass(w, ops, goldens, probe))
        del ops
        counts = Counter()
        with tracing.count_elements(counts):
            ops = w.inputs(frame, seed)  # built inside: groups keep their mul
            counts.clear()
            passes.append(run_pass(w, ops, goldens, probe))
        result.update(self_s=dict(tracer.self_s),
                      setup_self_s=dict(setup_tracer.self_s),
                      calls=dict(tracer.calls),
                      counts={**tracer.counts, **counts},
                      overhead_s=passes[1]["wall_s"] - passes[0]["wall_s"])
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    with SpeedProbe() as speed_probe:
        measured = main(sys.argv[1:], speed_probe)
    print(json.dumps(measured))
