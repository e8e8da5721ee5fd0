#!/usr/bin/env python3
"""Compare two sets of voltcache benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result directories (perfbench/run.py writes them to
<build dir>/results/) or single result files. Results are grouped by
workload; untraced results are compared metric by metric against the bounds
in BENCHMARK.json.

Per workload it prints one verdict:
  host changed  the host or build fingerprints differ: no pass or fail;
  pass / fail   every end-to-end median is (not) within its bound of BASE;
and it flags "simulated results changed" whenever a seed's
simulated-statistics digest differs, whatever the timing verdict.

Exit status: 0 all pass, 1 some fail, 3 host changed (and none fail),
2 usage error.
"""

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


def load(path):
    paths = [path] if os.path.isfile(path) else glob.glob(os.path.join(path, "*.json"))
    results = []
    for p in sorted(paths):
        if p.endswith(".record.json"):
            continue
        with open(p, encoding="utf-8") as f:
            result = json.load(f)
        if result.get("trace") == 0:
            results.append(result)
    return results


def bounds():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("compare: no untraced results in one of the inputs", file=sys.stderr)
        return 2
    limits = bounds()
    failed = host_changed = False
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        report = benchlib.compare([r for r in base if r["workload"] == workload],
                                  [r for r in new if r["workload"] == workload], limits)
        print("%s: %s" % (workload, report["verdict"]))
        if report["host_changed"]:
            print("  host changed: %s differ; re-measure the base on this host"
                  % ", ".join(report["host_changed"]))
            host_changed = True
        if report["sim_changed"]:
            print("  simulated results changed for seeds %s" % report["sim_changed"])
        for row in report["rows"]:
            print("  %-18s %-10s base %.6g new %.6g worse %+.1f%% (bound %.0f%%, base spread %.1f%%)"
                  % (row["metric"], row["status"], row["base_median"], row["new_median"],
                     100 * row["worse_share"], 100 * row["bound"], 100 * row["base_spread"]))
        failed = failed or report["verdict"] == "fail"
    return 1 if failed else 3 if host_changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
