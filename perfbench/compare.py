#!/usr/bin/env python3
"""Compare saved benchmark records of two versions of the program.

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Each file is a record written by `perfbench/run.py --out FILE`.  Records
are grouped by workload; for every metric the script prints each side's
median, the change, and for end-to-end metrics whether the change stays
within the bound BENCHMARK.json fixes.  It refuses to compare records
whose simulator fingerprints differ, because their simulated statistics
(and so their work per pass) differ.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    by_workload = {}
    for p in paths:
        with open(p) as f:
            rec = json.load(f)
        by_workload.setdefault(rec["provenance"]["workload"], []).append(rec)
    return by_workload


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load(a.base), load(a.new)
    prints = {r["provenance"]["fingerprint"]
              for side in (base, new) for recs in side.values() for r in recs}
    if len(prints) != 1:
        sys.exit("refusing to compare: simulator fingerprints differ: "
                 + ", ".join(sorted(prints)))
    regressions = 0
    for workload in sorted(set(base) & set(new)):
        print("== %s (%d base, %d new)" % (workload, len(base[workload]), len(new[workload])))
        for section in ("end_to_end", "per_layer"):
            names = set.intersection(*(set(r[section]) for r in base[workload] + new[workload]))
            for name in sorted(names & set(declared)):
                b = statistics.median(r[section][name]["value"] for r in base[workload])
                n = statistics.median(r[section][name]["value"] for r in new[workload])
                change = (n - b) / b if b else 0.0
                m = declared[name]
                worse = change > 0 if m["better"] == "lower" else change < 0
                verdict = ""
                if "bound" in m:
                    if worse and abs(change) > m["bound"]:
                        verdict = "REGRESSION (bound %g)" % m["bound"]
                        regressions += 1
                    else:
                        verdict = "within bound %g" % m["bound"]
                print("  %-46s %14.6g -> %14.6g %-6s %+8.2f%%  %s"
                      % (name, b, n, m["unit"], 100 * change, verdict))
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
