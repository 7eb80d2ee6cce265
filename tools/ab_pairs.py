"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N

Each pair runs ``perfbench/run.py --workload W --seed 1 --seconds 25
--trace 0`` once in PARENT_DIR and once in CHANGE_DIR, one process at a
time, with every ``__pycache__`` under both directories removed before each
run.  The side that runs first alternates: the parent in odd-numbered
pairs, the change in even-numbered ones, so a drift of the machine over the
runs weighs on both sides alike.  Each run's end-to-end metrics are printed
as it ends; then, for each metric, the parent's median and quartiles, the
change's median, their ratio, the number of pairs in which the change read
lower (ties count for neither), and whether the two medians differ by more
than the parent's interquartile range.  Two verdicts follow.  "Claim rule
met" holds when there are at least 10 pairs, the change read lower in at
least 9 of every 10, and its median is lower than the parent's by more than
that range: the rule a claimed gain is judged by.  "Worse than the bound"
holds when the change's median exceeds the parent's by more than the
metric's ``end_to_end`` bound in ``BENCHMARK.json``, a fraction of the
parent's median.  Every metric is one where lower is better.
Exits 1 if any run reads ``correct`` false or ``failed`` > 0, 2 if a run
does not finish.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 300
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), interpolated inclusively."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(pairs: list[tuple[dict, dict]]) -> list[dict]:
    """One row per metric of the runs' JSON objects, from (parent, change)
    pairs: the parent's median and quartiles, the change's median, the
    ratio change/parent, the number of pairs with the change lower,
    whether the medians differ by more than the parent's quartiles do, and
    the claim and bound verdicts."""
    rows, bound = [], {m["name"]: m["bound"] for m in
                       json.loads(BENCHMARK.read_text())["end_to_end"]}
    for name in pairs[0][0]["metrics"]:
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        q1, med, q3 = quartiles(parent)
        cmed = statistics.median(change)
        lower = sum(c < p for p, c in zip(parent, change))
        beyond = abs(cmed - med) > q3 - q1
        rows.append({"metric": name, "parent_median": med,
                     "parent_q1": q1, "parent_q3": q3,
                     "change_median": cmed,
                     "ratio": cmed / med if med else float("nan"),
                     "lower": lower, "pairs": len(pairs),
                     "beyond_iqr": beyond,
                     "claim_met": (len(pairs) >= 10
                                   and 10 * lower >= 9 * len(pairs)
                                   and beyond and cmed < med),
                     "bound": bound[name],
                     "worse_than_bound": cmed > med * (1 + bound[name])})
    return rows


def summary_line(r: dict) -> str:
    """One metric's row of the summary, as printed."""
    def yes(flag):
        return "yes" if flag else "no"
    return (f"  {r['metric']:12s} {r['parent_median']:.6g} "
            f"[{r['parent_q1']:.6g}, {r['parent_q3']:.6g}] -> "
            f"{r['change_median']:.6g} ({r['ratio']:.4f}), change lower "
            f"in {r['lower']}/{r['pairs']}, medians differ by more than "
            f"the parent's IQR: {yes(r['beyond_iqr'])}, claim rule met: "
            f"{yes(r['claim_met'])}, worse than the bound "
            f"({r['bound']:g}): {yes(r['worse_than_bound'])}")


def failed(run: dict) -> bool:
    return not run["correct"] or run["failed"] > 0


def clear_pycache(*dirs: Path) -> None:
    for d in dirs:
        for cache in list(d.rglob("__pycache__")):
            shutil.rmtree(cache, ignore_errors=True)


def run_once(directory: Path, workload: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "25", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=directory, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{directory}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    pairs = []
    sides = [("parent", args.parent), ("change", args.change)]
    try:
        for k in range(1, args.pairs + 1):
            pair = {}
            for side, d in sides if k % 2 else sides[::-1]:
                clear_pycache(args.parent, args.change)
                run = pair[side] = run_once(d, args.workload)
                values = " ".join(f"{n} {m['value']:.6g}"
                                  for n, m in run["metrics"].items())
                print(f"pair {k} {side}: {values} correct {run['correct']} "
                      f"failed {run['failed']}", flush=True)
            pairs.append((pair["parent"], pair["change"]))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.workload}, {len(pairs)} pairs: parent median "
          f"[quartiles] -> change median (ratio), change lower in n/N")
    for r in summary(pairs):
        print(summary_line(r))
    return 1 if any(failed(run) for pair in pairs for run in pair) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
