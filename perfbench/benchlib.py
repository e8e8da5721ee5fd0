"""Statistics of the voltcache benchmark: turns a harness record into the
reported metrics, stamps results with a host fingerprint, and compares two
sets of results.

A harness record (written by the vcbench binary) holds raw samples: set-up
times, timed operations ("ops"), check counts, layer values and spans. All
rules that turn samples into numbers live here so they are tested once
(perfbench/tests).
"""

import math
import os
import platform
import statistics

E2E_METRICS = [
    ("setup_s", "s"),
    ("legs_per_s", "1/s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("leg_ms_p50", "ms"),
    ("leg_ms_p90", "ms"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("paper_epi_gap_pp", "pp"),
]

SCHEMES = ["defect-free", "conventional-760mV", "8T", "simple-wdis",
           "wilkerson-plus", "fba-plus", "idc-plus", "ffw-bbr"]

PER_LAYER_METRICS = (
    [("error_rate", "1"),
     ("workload.build_ms", "ms"),
     ("compiler.bbr_ms", "ms"),
     ("linker.link_us", "us"),
     ("linker.links", "count"),
     ("linker.place_fail_frac", "1"),
     ("analysis.verify_us", "us"),
     ("faults.mapgen_us_per_chip", "us"),
     ("faults.chips", "count"),
     ("cpu.exec_ms", "ms"),
     ("cpu.record_ms", "ms"),
     ("cpu.trace_bytes", "B"),
     ("replay.batch_ms", "ms"),
     ("replay.lane_us", "us"),
     ("replay.lanes", "count")]
    + [("schemes.%s.lane_us" % s, "us") for s in SCHEMES]
    + [("sim.%s.%s" % (s, m), u) for s in SCHEMES
       for m, u in (("cpi", "cycles"), ("ifetch_stall_cpi", "cycles"),
                    ("dmem_stall_cpi", "cycles"), ("l2_per_kilo", "count"))]
    + [("sweep.unattributed_frac", "1"),
       ("hash.leg_digest_ns", "ns"),
       ("serve.store.lookup_ns", "ns"),
       ("serve.store.store_us", "us"),
       ("serve.store.hit_frac", "1"),
       ("serve.protocol_us", "us"),
       ("serve.overhead_ms", "ms"),
       ("obs.journal_lines", "count"),
       ("obs.journal_dropped_frac", "1"),
       ("obs.trace_spans", "count")]
)

# Fingerprint fields that describe the host and the build; a difference in
# any of them makes two results incomparable. git describe is stamped too,
# but it names the code under test, which a comparison is meant to vary.
HOST_FIELDS = ("cores", "cpu_model", "compiler", "flags", "build_type", "ipo")


# --- percentiles -----------------------------------------------------------

def tail_percentile(samples, cap=90, beyond=10):
    """The highest whole percentile, at most `cap`, that leaves at least
    `beyond` samples above it (nearest-rank), with its value.

    Returns (percentile, value). When no percentile from 50 up leaves
    `beyond` samples above it, the median is reported as percentile 50.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(cap, 50, -1):
        rank = math.ceil(p * n / 100.0)
        if n - rank >= beyond:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


def timing_summary(samples):
    """Median and tail of a timing series, with the sample count (zeros
    when there are no samples: every op of the series failed)."""
    if not samples:
        return {"n": 0, "p50": 0.0, "tail_percentile": 50, "tail": 0.0}
    p, tail = tail_percentile(samples)
    return {"n": len(samples), "p50": statistics.median(samples),
            "tail_percentile": p, "tail": tail}


# --- self time -------------------------------------------------------------

def _union_length(intervals):
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover. `spans` are [name, start, end, parent, thread]
    rows; a child only counts on its parent's thread, clipped to the
    parent's interval. Open spans (end 0) are ignored."""
    children = {}
    for index, (_, start, end, parent, thread) in enumerate(spans):
        if parent >= 0 and end > 0 and spans[parent][4] == thread:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        if end <= 0:
            result.append(0)
            continue
        clipped = [(max(lo, start), min(hi, end))
                   for lo, hi in children.get(index, []) if min(hi, end) > max(lo, start)]
        result.append((end - start) - _union_length(clipped))
    return result


def thread_coverage(spans):
    """Per thread: summed self time over the thread's traced wall time (from
    its first span start to its last span end). Never above 1 when spans
    nest properly."""
    selfs = self_times(spans)
    per_thread = {}
    for (name, start, end, _, thread), own in zip(spans, selfs):
        if end <= 0:
            continue
        entry = per_thread.setdefault(thread, [start, end, 0])
        entry[0] = min(entry[0], start)
        entry[1] = max(entry[1], end)
        entry[2] += own
    return {t: (own / (hi - lo) if hi > lo else 0.0) for t, (lo, hi, own) in per_thread.items()}


# --- errors ----------------------------------------------------------------

def count_errors(record):
    """(attempted, failed): every timed op plus every standalone check."""
    ops = record["ops"]
    attempted = len(ops) + record["checks_attempted"]
    failed = sum(1 for op in ops if not op[5]) + record["checks_failed"]
    return attempted, failed


# --- metrics ---------------------------------------------------------------

def _rate(ops, index):
    """Median over op groups of sum(ops[index]) / sum(seconds)."""
    groups = {}
    for op in ops:
        g = groups.setdefault(op[3], [0.0, 0.0])
        g[0] += op[index]
        g[1] += op[0] / 1000.0
    rates = [amount / seconds for amount, seconds in groups.values() if seconds > 0]
    return statistics.median(rates) if rates else 0.0


def end_to_end(record, traced=False):
    """End-to-end metrics of a record, from its untraced ops (or, with
    traced=True, from its traced ops)."""
    ops = [op for op in record["ops"] if bool(op[4]) == traced]
    if not ops:
        raise ValueError("record has no %s ops" % ("traced" if traced else "untraced"))
    leg_ms = [op[0] * record["threads"] / op[1] for op in ops if op[1] > 0]
    job_ms = [op[0] for op in ops]
    legs = timing_summary(leg_ms)
    jobs = timing_summary(job_ms)
    return {
        "setup_s": statistics.median(record["setup_s"]),
        "legs_per_s": _rate(ops, 1),
        "sim_minstr_per_s": _rate(ops, 2) / 1e6,
        "leg_ms_p50": legs["p50"],
        "leg_ms_p90": legs["tail"],
        "job_ms_p50": jobs["p50"],
        "job_ms_p90": jobs["tail"],
        "peak_rss_mb": record["peak_rss_mb"],
        "paper_epi_gap_pp": record["values"].get("paper_epi_gap_pp", 0.0),
    }, {"leg_ms": legs, "job_ms": jobs}


def per_layer(record):
    """Per-layer metrics of a traced record. A layer that does no work on
    the record's workload reads 0."""
    spans = record["spans"]
    selfs = self_times(spans)
    total = {}
    count = {}
    duration = {}
    for (name, start, end, _, _), own in zip(spans, selfs):
        if end <= 0:
            continue
        total[name] = total.get(name, 0) + own
        count[name] = count.get(name, 0) + 1
        duration[name] = duration.get(name, 0) + (end - start)
    values = record["values"]

    def mean_ns(name):
        return total[name] / count[name] if count.get(name) else 0.0

    def per(numerator_ns, key):
        return numerator_ns / values[key] if values.get(key) else 0.0

    m = {}
    attempted, failed = count_errors(record)
    m["error_rate"] = failed / attempted
    m["workload.build_ms"] = mean_ns("workload.build") / 1e6
    m["compiler.bbr_ms"] = mean_ns("compiler.bbr") / 1e6
    m["linker.link_us"] = mean_ns("linker.link") / 1e3
    m["linker.links"] = values.get("linker.links", 0.0)
    m["linker.place_fail_frac"] = per(values.get("linker.place_fails", 0.0), "linker.links")
    m["analysis.verify_us"] = mean_ns("analysis.verify") / 1e3
    m["faults.mapgen_us_per_chip"] = per(total.get("faults.mapgen", 0) / 1e3, "faults.chips")
    m["faults.chips"] = values.get("faults.chips", 0.0)
    m["cpu.exec_ms"] = mean_ns("cpu.exec") / 1e6
    m["cpu.record_ms"] = mean_ns("cpu.record") / 1e6
    m["cpu.trace_bytes"] = values.get("cpu.trace_bytes", 0.0)
    m["replay.batch_ms"] = mean_ns("replay.batch") / 1e6
    m["replay.lane_us"] = per(total.get("replay.batch", 0) / 1e3, "replay.batch.lanes")
    m["replay.lanes"] = values.get("replay.batch.lanes", 0.0)
    for s in SCHEMES:
        name = "schemes.%s" % s
        m[name + ".lane_us"] = per(total.get(name, 0) / 1e3, name + ".lanes")
        for suffix in ("cpi", "ifetch_stall_cpi", "dmem_stall_cpi", "l2_per_kilo"):
            key = "sim.%s.%s" % (s, suffix)
            m[key] = values.get(key, 0.0)
    mirror = duration.get("sweep.mirror", 0)
    reference = duration.get("sweep.run_1t", 0)
    covered = mirror - total.get("sweep.mirror", 0)
    # Not clamped: a negative share means the mirror's layer calls took
    # longer than the runSweep they mirror (host noise between the two).
    m["sweep.unattributed_frac"] = 1.0 - covered / reference if reference else 0.0
    for key in ("hash.leg_digest_ns", "serve.store.lookup_ns", "serve.store.store_us",
                "serve.store.hit_frac", "serve.protocol_us", "serve.overhead_ms",
                "obs.journal_lines", "obs.journal_dropped_frac", "obs.trace_spans"):
        m[key] = values.get(key, 0.0)
    return m


def tracing_overhead(record):
    """Traced against untraced legs_per_s within one traced run."""
    untraced = end_to_end(record, traced=False)[0]["legs_per_s"]
    traced = end_to_end(record, traced=True)[0]["legs_per_s"]
    return {"untraced_legs_per_s": untraced, "traced_legs_per_s": traced,
            "overhead_frac": 1.0 - traced / untraced if untraced else 0.0}


# --- fingerprint -----------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(record):
    """Host and build identity of a result."""
    build = record["build"]
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": build["compiler"],
        "flags": " ".join(build["flags"].split()),
        "build_type": build["build_type"],
        "ipo": build["ipo"],
        "git_describe": build["git_describe"],
    }


def host_changes(a, b):
    """Names of the host/build fields on which two fingerprints differ."""
    return [f for f in HOST_FIELDS if a.get(f) != b.get(f)]


# --- comparison ------------------------------------------------------------

def compare(base_results, new_results, bounds):
    """Compare two sets of results of one workload.

    `bounds` maps each end-to-end metric name to (better, bound). Returns a
    dict with a verdict: "host changed" (no pass or fail), or "pass"/"fail"
    with per-metric rows; "simulated results changed" is flagged whenever
    the simulated-statistics digests of a seed differ.
    """
    changed = sorted({f for a in base_results for b in new_results
                      for f in host_changes(a["fingerprint"], b["fingerprint"])})
    report = {"host_changed": changed, "sim_changed": [], "rows": []}
    base_digest = {r["seed"]: r["sim_digest"] for r in base_results}
    for r in new_results:
        if r["seed"] in base_digest and base_digest[r["seed"]] != r["sim_digest"]:
            report["sim_changed"].append(r["seed"])
    if changed:
        report["verdict"] = "host changed"
        return report
    verdict = "pass"
    for name, (better, bound) in bounds.items():
        base = [r["metrics"][name] for r in base_results if name in r["metrics"]]
        new = [r["metrics"][name] for r in new_results if name in r["metrics"]]
        if not base or not new:
            continue
        mb, mn = statistics.median(base), statistics.median(new)
        if mb == 0:
            worse = 0.0 if mn == mb else math.inf
        else:
            worse = (mn - mb) / mb if better == "lower" else (mb - mn) / mb
        spread = iqr_share(base)
        if worse > bound:
            status = "fail"
            verdict = "fail"
        elif spread > bound:
            status = "unresolved"
        else:
            status = "pass"
        report["rows"].append({"metric": name, "base_median": mb, "new_median": mn,
                               "worse_share": worse, "base_spread": spread,
                               "bound": bound, "status": status})
    report["verdict"] = verdict
    return report


def iqr_share(values):
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0
