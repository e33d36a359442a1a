#!/usr/bin/env python3
"""Compare two sets of benchmark results. Reports only; never gates.

    python3 perfbench/compare.py BASE.txt CHANGED.txt

Each file holds the stdout of one or more runs of perfbench/run.py (for
example `python3 perfbench/run.py ... >> BASE.txt`); only the detail
records ({"perfbench": ...}) are read. For every (workload, metric) the
report gives each side's median and quartiles over its runs, the change
of the medians, and, for the metrics BENCHMARK.json bounds, whether the
change stays within the bound. Other metrics get no verdict.
Host-context differences between the two sets (nproc, CONDOR_THREADS,
SIMD level, CPU features, build type, compiler) are flagged, because a
comparison across hosts or builds says nothing about the code.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

CONTEXT_KEYS = ("nproc", "CONDOR_THREADS", "thread_budget", "simd_level",
                "cpu_features", "build_type", "compiler")


def load(path):
    """Detail records of one file."""
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith('{"perfbench"'):
            records.append(json.loads(line)["perfbench"])
    if not records:
        sys.exit(f"compare: no perfbench records in {path}")
    return records


def collect(records):
    """(workload, metric) -> (unit, [values]); workload -> contexts."""
    values = defaultdict(list)
    units = {}
    contexts = defaultdict(list)
    for record in records:
        workload = record["workload"]
        contexts[workload].append(record["context"])
        for section in ("gated", "end_to_end", "per_layer"):
            for name, metric in record.get(section, {}).items():
                key = (workload, name)
                values[key].append(metric["value"])
                units[key] = metric["unit"]
    return values, units, contexts


def summary(values):
    """Median and first/third quartiles, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def bounds_from_spec():
    """name -> (better, bound) of the metrics BENCHMARK.json bounds."""
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    data = json.loads(spec.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in data["end_to_end"]}


def verdict(base, changed, better, bound):
    if base == 0:
        return "-"
    worse = (changed - base) / abs(base) if better == "lower" else (base - changed) / abs(base)
    if worse <= 0:
        return "not worse"
    return "within bound" if worse <= bound else f"WORSE > {bound:g}"


def context_mismatches(base, changed):
    notes = []
    for workload in sorted(set(base) | set(changed)):
        for key in CONTEXT_KEYS:
            a = {str(c.get(key)) for c in base.get(workload, [])}
            b = {str(c.get(key)) for c in changed.get(workload, [])}
            if a and b and a != b:
                notes.append(f"{workload}: {key} differs: {sorted(a)} vs {sorted(b)}")
    return notes


def main():
    parser = argparse.ArgumentParser(description="Compare two perfbench result files.")
    parser.add_argument("base")
    parser.add_argument("changed")
    args = parser.parse_args()

    base_values, units, base_ctx = collect(load(args.base))
    changed_values, changed_units, changed_ctx = collect(load(args.changed))
    units.update(changed_units)
    bounds = bounds_from_spec()

    for note in context_mismatches(base_ctx, changed_ctx):
        print(f"CONTEXT MISMATCH  {note}")
    header = (f"{'workload':<14} {'metric':<40} {'unit':<6} {'base median [q1, q3] n':>34} "
              f"{'changed median [q1, q3] n':>34} {'change':>8}  verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(base_values) | set(changed_values)):
        workload, name = key
        a = base_values.get(key)
        b = changed_values.get(key)
        unit = units[key]

        def cell(v):
            if not v:
                return f"{'missing':>34}"
            m, q1, q3 = summary(v)
            return f"{m:>12.5g} [{q1:.5g}, {q3:.5g}] {len(v):>2}".rjust(34)

        change = "-"
        result = "-"
        if a and b:
            ma, mb = summary(a)[0], summary(b)[0]
            if ma != 0:
                change = f"{(mb - ma) / abs(ma) * 100:+.1f}%"
            if name in bounds:
                result = verdict(ma, mb, *bounds[name])
        print(f"{workload:<14} {name:<40} {unit:<6} {cell(a)} {cell(b)} {change:>8}  {result}")


if __name__ == "__main__":
    main()
