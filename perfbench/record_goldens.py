"""Record the outputs every benchmark operation must reproduce.

    python3 perfbench/record_goldens.py > perfbench/goldens.json

Run it at the commit whose outputs are the reference; it runs every
operation of every workload frame once (about a minute).
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def record() -> dict:
    goldens = {}
    for name, w in workloads.WORKLOADS.items():
        for size, frame in workloads.FRAMES[name].items():
            goldens.setdefault(name, {})[size] = {
                key: w.golden(w.run(*args))
                for key, args in sorted(w.inputs(frame, 0))}
    return goldens


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))
