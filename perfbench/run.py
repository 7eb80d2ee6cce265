"""gklab benchmark: run one workload and print every metric by name and unit.

    python3 perfbench/run.py --workload analyze-catalog --seed 1 --seconds 25 --trace 0

Run from a checkout holding ``src/gklab``.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones (see NOTES.md).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it describe the
machine and the run.  The operations run once each, in one fresh worker
process (worker.py); the pinned frames are sized so that this takes about
``--seconds`` (25) on the machine in NOTES.md.  More workers that only set up
give the median set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up is measured in this many fresh processes; the short set-ups spread
# most for their length, so they get more samples (NOTES.md).
SETUP_SAMPLES = {"analyze-catalog": 7, "corpus-verify": 7, "product-pairs": 3}
RUN_TIMEOUT_S = 170  # the whole run, all workers included

# Element tuples hold strings, so str hash randomisation would reorder every
# set of group elements and change the work of early-exit scans per process.
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB")]


def per_layer_metrics() -> list[tuple[str, str]]:
    import tracing
    return ([(layer, "s") for layer in tracing.LAYERS]
            + [(f"setup.{layer}", "s") for layer in tracing.LAYERS]
            + [(name, "count") for name in tracing.COUNT_METRICS]
            + [(f"{mod}.{fn}.calls", "count")
               for mod, fn, _ in tracing.wrapped_functions()]
            + [("trace.overhead_s", "s")])


def machine() -> dict:
    """What a result is only comparable on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "sympy": metadata.version("sympy"), "cpu": cpu,
            "loadavg_1m": os.getloadavg()[0]}


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def spawn(role: str, args, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), role,
           args.workload, str(args.seed), args.size]
    spawned_at = time.time()
    proc = subprocess.run(cmd + [repr(spawned_at)], stdout=subprocess.PIPE,
                          text=True, cwd=ROOT, env=WORKER_ENV,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.exit(f"error: {role} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; the frames set the work")
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: seconds-long frames for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gklab", "__init__.py")):
        print(f"error: no gklab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    print("machine:", json.dumps(machine(), sort_keys=True))

    try:
        if args.trace:
            run = spawn("trace", args, deadline)
            setups = [run]
        else:
            setups = [spawn("setup", args, deadline)
                      for _ in range(SETUP_SAMPLES[args.workload] - 1)]
            run = spawn("measure", args, deadline)
            setups.append(run)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1

    passes = run["passes"]
    op_s = [t for p in passes for t in p["op_s"]]
    failures = [f for p in passes for f in p["failures"]]
    defects = sum(p["known_defects"] for p in passes)
    attempted = len(op_s)
    print(f"run: workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"{len(passes)} pass(es), {attempted} operations, "
          f"closed loop with 1 outstanding operation")
    for f in failures:
        print("FAILED", f)
    # fail_frac counts the known product_cut_predicate mismatches too; the
    # JSON "failed" counts only outputs that differ from the goldens.
    print(f"fail_frac {(len(failures) + defects) / attempted:.4f} "
          f"({len(failures)} failed against goldens + {defects} known "
          f"predicate mismatches, of {attempted} attempted)")

    if args.trace:
        values = {**run["self_s"], **run["counts"],
                  **{f"setup.{k}": v for k, v in run["setup_self_s"].items()},
                  "trace.overhead_s": run["overhead_s"],
                  **{f"{k}.calls": v for k, v in run["calls"].items()}}
        print(f"tracing overhead (calibrated): traced pass "
              f"{passes[1]['wall_s']:.3f} s - untraced pass "
              f"{passes[0]['wall_s']:.3f} s = {run['overhead_s']:.3f} s")
        wanted = per_layer_metrics()
    else:
        (measured,) = passes
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": measured["wall_s"],
            "cpu_s": measured["cpu_s"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        # Percentiles of a few dozen unlike operations swing with which one
        # sits at the rank, beyond any bound: printed, not in BENCHMARK.json.
        p50, p90 = percentile(op_s, 50), percentile(op_s, 90)
        print(f"samples: setup_s {len(setups)} processes, wall_s/cpu_s "
              f"1 pass, {attempted} operations")
        print(f"op latency (calibrated): op_p50_s {p50:.4f} s, op_p90_s "
              f"{p90:.4f} s, {sum(t > p90 for t in op_s)} operations beyond "
              f"op_p90_s")
        print("uncalibrated: setup_s "
              f"{statistics.median(s['raw_setup_s'] for s in setups):.3f} s, "
              f"wall_s {measured['raw_wall_s']:.3f} s, "
              f"cpu_s {measured['raw_cpu_s']:.3f} s")
        wanted = END_TO_END
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in wanted}
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
