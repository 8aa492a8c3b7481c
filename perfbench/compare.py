#!/usr/bin/env python3
"""Summarise or compare result sets written by run.py --out.

    python3 perfbench/compare.py base.jsonl            # spread per metric
    python3 perfbench/compare.py base.jsonl new.jsonl  # median change too

For every workload and end-to-end metric it prints the median, the
quartile spread (Q3 - Q1, from statistics.quantiles(n=4)) as a share of
the median, and, given two sets, the change of the median in the
metric's "worse" direction against the bound BENCHMARK.json fixes.
Two sets measured with different OpenMP thread counts are not compared.
Exits 1 when a spread or a change exceeds its bound.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{workload: {metric: [values]}} and {workload: set of thread counts}."""
    by_workload, threads = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            prov = rec["provenance"]
            if prov["trace"]:
                continue
            threads.setdefault(prov["workload"], set()).add(prov["omp_threads"])
            metrics = by_workload.setdefault(prov["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return by_workload, threads


def spread(values):
    """(median, (Q3 - Q1) / median) of a list of measurements."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def worse_by(base, new, better):
    """Relative change of `new` against `base`, positive when worse."""
    change = (new - base) / base
    return -change if better == "higher" else change


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    sets = [load(p) for p in argv[1:]]
    if len(sets) == 2:
        for workload in set(sets[0][1]) & set(sets[1][1]):
            a, b = sets[0][1][workload], sets[1][1][workload]
            if a != b:
                sys.exit("refusing to compare %s: OpenMP thread counts differ (%s vs %s)"
                         % (workload, sorted(a), sorted(b)))
    failed = False
    for workload, metrics in sorted(sets[0][0].items()):
        for name, values in metrics.items():
            bound = spec[name]["bound"]
            med, sp = spread(values)
            row = "%-17s %-12s n=%-2d median=%-12.6g spread=%6.3f" % (
                workload, name, len(values), med, sp)
            flag = ""
            if name != "setup_s" and sp > bound:
                flag, failed = " SPREAD>BOUND", True
            elif sp > bound / 3:
                flag = " spread>bound/3"
            if len(sets) == 2:
                new = sets[1][0].get(workload, {}).get(name)
                if new:
                    nmed, nsp = spread(new)
                    w = worse_by(med, nmed, spec[name]["better"])
                    row += "  new median=%-12.6g spread=%6.3f worse_by=%+.3f" % (nmed, nsp, w)
                    if w > bound:
                        flag, failed = flag + " WORSE>BOUND", True
            print(row + "  bound=%.2f%s" % (bound, flag))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
