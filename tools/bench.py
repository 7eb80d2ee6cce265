"""Time gklab's end-to-end frames in fresh processes, and print a BENCH file.

    python3 tools/bench.py CHECKOUT [CHECKOUT ...] [-o OUT]

A frame is one ``gklab`` command: each ``gklab verify`` suite, ``verify
invariants --count 1000``, and ``gklab analyze`` of each spec in the first
CHECKOUT's ``tools/frames``.  Every run starts a fresh interpreter on its
CHECKOUT's own ``src``, in that CHECKOUT, with ``PYTHONHASHSEED=0`` and
every ``__pycache__`` under it removed first, so a parent copy is timed the
same way as the change.  A run records its wall time, its own peak RSS
(``os.wait4``: ``RUSAGE_CHILDREN`` would give the largest child so far),
its exit status and the sha256 of its stdout.  Linux carries a process's
peak RSS into the program it execs, so each run is forked by a small
spawner (``SPAWN``, an interpreter without ``site``) that times it and
reads its peak, and the peak holds none of this launcher's.  A run still
going after ``RUN_TIMEOUT_S`` is ended by ``SIGALRM`` and reads exit -14.

The runs go in rounds, each round running every frame once in turn on
every CHECKOUT, the order of the checkouts reversed in every other round,
so a drift of the machine weighs on every frame and checkout alike.  A
frame whose first run takes ``LARGE_S`` or more gets ``LARGE_RUNS`` runs,
any other ``RUNS``.  For each CHECKOUT, in the order given, each frame
reports the median and quartiles of its wall times and peaks, its exit
statuses and its stdout hashes; the file also records the machine: Python
version, CPU count and model, and the load average.  The JSON goes to
stdout, or to OUT.  Exits 1 if a frame exits nonzero or prints different
bytes on different runs, 2 on a usage error.  Uses only the standard
library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from ab_pairs import RUN_TIMEOUT_S, clear_pycache, quartiles

LARGE_S = 2.0
RUNS = 5
LARGE_RUNS = 3
MAIN = "import sys; from gklab.cli import main; sys.exit(main())"
# argv: a time limit in seconds, then the command to run; prints its wall
# time, peak RSS in KiB and exit code to stderr, and gives it stdout and a
# null stderr.  The alarm outlives the exec, and ends the command unless
# it handles SIGALRM, which gklab does not.
SPAWN = """\
import os, signal, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
    signal.alarm(int(sys.argv[1]))
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss,
      os.waitstatus_to_exitcode(status), file=sys.stderr)
"""
SUITES = ["classifier", "figure3", "frobenius-families", "invariants",
          "twofrobenius"]


def frames(checkout: Path) -> dict[str, list[str]]:
    """Frame name -> ``gklab`` arguments."""
    out = {f"verify {s}": ["verify", s] for s in SUITES}
    out["verify invariants --count 1000"] = ["verify", "invariants",
                                             "--count", "1000"]
    for spec in sorted((checkout / "tools" / "frames").glob("*.json")):
        out[f"analyze {spec.stem}"] = ["analyze", f"tools/frames/{spec.name}"]
    return out


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg_1m": os.getloadavg()[0]}


def run_once(checkout: Path, args: list[str]) -> dict:
    """One fresh process of ``gklab args`` in checkout."""
    clear_pycache(checkout)
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SPAWN, str(RUN_TIMEOUT_S),
         sys.executable, "-c", MAIN, *args],
        cwd=checkout, env=env, capture_output=True, check=True)
    wall, kib, code = proc.stderr.split()
    return {"wall_s": round(float(wall), 4),
            "peak_rss_mb": round(int(kib) / 1024, 1), "exit": int(code),
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}


def spread(values: list[float]) -> dict:
    return dict(zip(("q1", "median", "q3"),
                    (round(q, 4) for q in quartiles(values))))


def summary(args: list[str], runs: list[dict]) -> dict:
    return {"command": ["gklab", *args], "runs": len(runs),
            "wall_s": spread([r["wall_s"] for r in runs]),
            "peak_rss_mb": spread([r["peak_rss_mb"] for r in runs]),
            "exit": sorted({r["exit"] for r in runs}),
            "stdout_sha256": sorted({r["stdout_sha256"] for r in runs}),
            "samples": runs}


def bench(checkouts: list[Path], todo: dict[str, list[str]],
          runs: int = RUNS) -> dict:
    """The report of timing the frames todo on each of checkouts."""
    samples = [{name: [] for name in todo} for _ in checkouts]
    wanted = dict.fromkeys(todo, runs)
    order = list(enumerate(checkouts))
    for k in range(max(runs, LARGE_RUNS)):
        for name, cmd in todo.items():
            for i, checkout in order if k % 2 == 0 else order[::-1]:
                if len(samples[i][name]) == wanted[name]:
                    continue
                run = run_once(checkout, cmd)
                samples[i][name].append(run)
                print(f"{checkout} {name}: {run['wall_s']:.3f} s, "
                      f"{run['peak_rss_mb']} MB, exit {run['exit']}",
                      file=sys.stderr, flush=True)
                if k == i == 0 and run["wall_s"] >= LARGE_S:
                    wanted[name] = LARGE_RUNS
    return {"machine": machine(),
            "settings": {"PYTHONHASHSEED": "0", "large_s": LARGE_S},
            "checkouts": [{n: summary(todo[n], s[n]) for n in todo}
                          for s in samples]}


def failed(report: dict) -> bool:
    """Whether a frame exited nonzero or printed different bytes."""
    return any(f["exit"] != [0] or len(f["stdout_sha256"]) > 1
               for checkout in report["checkouts"] for f in checkout.values())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", type=Path, nargs="+", metavar="checkout")
    parser.add_argument("-o", "--out", type=Path)
    args = parser.parse_args(argv)
    for checkout in args.checkouts:
        if not (checkout / "src" / "gklab").is_dir():
            parser.error(f"no src/gklab in {checkout}")
    report = bench(args.checkouts, frames(args.checkouts[0]))
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if failed(report) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
