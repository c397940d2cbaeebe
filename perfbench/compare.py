#!/usr/bin/env python3
"""Compare two sets of benchmark run records, refusing records from different hosts.

Usage (from the repository root):

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the JSON records `run.py` writes (one per workload,
seed and trace mode; pass `--results DIR` to `run.py` to keep the two
sides apart).  For every workload and metric the script prints the median
of each side, their ratio, the base side's quartile spread, and whether the
head side is worse than the base by more than the metric's bound in
`BENCHMARK.json`.  It exits with code 2, printing no comparison, when the
records were measured on different hosts (processor count, CPU model or
compiler differ), and with code 1 when a bounded metric regressed.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HOST_KEYS = ("nproc", "cpu_model", "rustc")
ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not records:
        sys.exit(f"compare.py: no run records in {directory}")
    return records


def medians(records):
    """{(workload, metric): (unit, [values])} over correct runs."""
    out = defaultdict(lambda: (None, []))
    for r in records:
        if not r["result"]["correct"]:
            print(f"compare.py: skipping incorrect run {r['workload']} seed {r['host']['seed']}")
            continue
        for name, m in r["result"]["metrics"].items():
            unit, values = out[(r["workload"], name)]
            values.append(m["value"])
            out[(r["workload"], name)] = (m["unit"], values)
    return out


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, head = load(sys.argv[1]), load(sys.argv[2])
    hosts = {tuple(r["host"][k] for k in HOST_KEYS) for r in base + head}
    if len(hosts) > 1:
        print("compare.py: refusing to compare runs from different hosts:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, h)), file=sys.stderr)
        sys.exit(2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    b, h = medians(base), medians(head)
    regressed = False
    print(f"{'workload':16} {'metric':34} {'base':>14} {'head':>14} {'head/base':>9} {'base IQR':>8}")
    for key in sorted(set(b) & set(h)):
        unit, bv = b[key]
        _, hv = h[key]
        mb, mh = statistics.median(bv), statistics.median(hv)
        ratio = mh / mb if mb else float("nan")
        flag = ""
        if key[1] in bounds:
            direction, bound = bounds[key[1]]
            worse = (mh - mb) / mb if direction == "lower" else (mb - mh) / mb
            if mb and worse > bound:
                flag, regressed = f"  WORSE than bound {bound}", True
        print(f"{key[0]:16} {key[1] + ' (' + unit + ')':34} {mb:14.6g} {mh:14.6g} {ratio:9.4f} "
              f"{spread(bv):8.4f}{flag}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
