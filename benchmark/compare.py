#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

Usage:

    python3 benchmark/compare.py P1.json C1.json [P2.json C2.json ...]

Arguments are results.json files written by diablo_bench (benchmark/out/
results.json), given as alternating parent/change pairs, each pair run
back to back on the same host.  For every workload and end-to-end metric
it prints both sides' medians and quartiles over the pairs, the change's
win fraction, and a verdict:

  gain        at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither), and the medians differ by more
              than the parent's interquartile range;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's spread (IQR / median) is wider than the bound,
              unless every change run reads better than every parent run;
  same        none of the above.

With a single pair, the spread is that of the timed reps inside the
parent's file.  Files from different host shapes (CPU counts,
oversubscription) are refused: their numbers are not comparable.  Exits 1
when any metric regressed, 2 on bad input.
"""

import json
import os
import statistics
import sys

MIN_PAIRS = 10
HEAD = "%-15s %-12s %11s %-21s %11s %-21s %5s  %s"
ROW = "%-15s %-12s %11.5g %-21s %11.5g %-21s %5s  %s"
MANIFEST = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def host_shape(doc):
    h = doc["host"]
    return (h["online_cpus"], h["allowed_cpus"], len(h["cpus_used"]),
            h["oversubscribed"])


def verdict(parent, change, lower_better, bound, within_file_iqr):
    """Verdict of one workload x metric; parent/change are run medians."""
    pm = statistics.median(parent)
    cm = statistics.median(change)
    if len(parent) > 1:
        q1, q3 = quartiles(parent)
        iqr = q3 - q1
    else:
        iqr = within_file_iqr

    def better(c, p):
        return c < p if lower_better else c > p

    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    win_frac = wins / len(parent)
    worse_by = (cm - pm if lower_better else pm - cm) / pm if pm else 0.0
    all_better = all(better(c, p) for c in change for p in parent)
    if win_frac >= 0.9 and better(cm, pm) and abs(cm - pm) > iqr:
        v = "gain" if len(parent) >= MIN_PAIRS else "gain? (<10 pairs)"
    elif worse_by > bound:
        v = "regression"
    elif pm and iqr / abs(pm) > bound and not all_better:
        v = "unresolved"
    else:
        v = "same"
    return pm, cm, win_frac, v


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as f:
            docs.append(json.load(f))
    shapes = {host_shape(d) for d in docs}
    if len(shapes) != 1:
        print("refusing to compare results from different host shapes "
              "(online, allowed, used CPUs, oversubscribed): %s"
              % sorted(shapes), file=sys.stderr)
        return 2
    with open(MANIFEST) as f:
        metrics = json.load(f)["end_to_end"]
    parents, changes = docs[0::2], docs[1::2]
    workloads = [w for w in parents[0]["workloads"]
                 if all(w in d["workloads"] for d in docs)]

    regressed = False
    print("%d pair(s); host %s" % (len(parents), sorted(shapes)[0]))
    print(HEAD % ("workload", "metric", "parent", "q1..q3", "change",
                  "q1..q3", "wins", "verdict"))
    for w in workloads:
        for m in metrics:
            name = m["name"]
            rows = [d["workloads"][w]["end_to_end"].get(name)
                    for d in docs]
            if any(r is None for r in rows):
                print("%-15s %-12s missing" % (w, name))
                continue
            p = [d["workloads"][w]["end_to_end"][name]["median"]
                 for d in parents]
            c = [d["workloads"][w]["end_to_end"][name]["median"]
                 for d in changes]
            first = parents[0]["workloads"][w]["end_to_end"][name]
            pm, cm, win_frac, v = verdict(
                p, c, m["better"] == "lower", m["bound"],
                first["q3"] - first["q1"])
            if len(parents) == 1:
                pq = (first["q1"], first["q3"])
                last = changes[0]["workloads"][w]["end_to_end"][name]
                cq = (last["q1"], last["q3"])
            else:
                pq, cq = quartiles(p), quartiles(c)
            regressed = regressed or v == "regression"
            print(ROW % (w, name, pm, "%.4g..%.4g" % pq, cm,
                         "%.4g..%.4g" % cq, "%.0f%%" % (100 * win_frac), v))
        failed = [d["workloads"][w]["failed"] for d in docs]
        if any(failed):
            print("%-15s failed reps per file: %s" % (w, failed))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
