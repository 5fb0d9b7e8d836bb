#!/usr/bin/env python3
"""Compare a google-benchmark JSON report against a committed baseline.

Companion to bench_diff.py for the micro-bench smoke job: the CI job
runs

    ./build/bench/bench_micro_gc --benchmark_out=BENCH_micro_gc.json \
        --benchmark_out_format=json
    tools/bench_micro_diff.py --current BENCH_micro_gc.json \
        --baseline bench/baselines/BENCH_micro_gc.json

and fails when any benchmark both reports run gets slower by more than
the tolerance. A benchmark registered with ->UseRealTime() (its name
ends in /real_time) does its work on other threads — a GC cycle, the
probe replay thread — so it is compared on real_time; every other one
on cpu_time. Micro timings are noisy, so the default
tolerance is deliberately loose (50%): the gate exists to catch
order-of-magnitude mistakes — a virtual dispatch reappearing on the
probe fast path, a word walk degrading to per-bit — not single-digit
drift.

A row of the current report with error_occurred set (a benchmark that
called SkipWithError, such as BM_ProbeBatchReplayExactness on a counter
divergence) fails the run with its error_message, whatever the machine:
its time is meaningless and the error is the result.

Same comparability rule as bench_diff.py: a baseline captured on a
different CPU count (google-benchmark's context.num_cpus) is refused —
every shared benchmark is warned about and skipped, exit 0 unless
--strict. Benchmarks present on only one side are reported but never
fail the run (suites grow).

Exit codes: 0 ok, 1 regression or error row (or refused comparison
under --strict), 2 usage/IO error.
"""

import argparse
import json
import sys


def load_report(path):
    """Returns ({name: time_ns}, {name: error_message}, num_cpus) from a
    gbench JSON.

    The time is real_time for /real_time benchmarks, else cpu_time.
    Rows with error_occurred set go into the error map, not the times.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.stderr.write(f"bench_micro_diff: cannot read {path}: {e}\n")
        sys.exit(2)
    times, errors = {}, {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        if b.get("error_occurred"):
            errors[b["name"]] = b.get("error_message", "")
            continue
        # Normalize to nanoseconds so ms-unit benchmarks compare too.
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        key = "real_time" if b["name"].endswith("/real_time") else "cpu_time"
        if scale is None or key not in b:
            continue
        times[b["name"]] = float(b[key]) * scale
    if not times and not errors:
        sys.stderr.write(f"bench_micro_diff: {path} has no benchmarks\n")
        sys.exit(2)
    cpus = doc.get("context", {}).get("num_cpus")
    return times, errors, (int(cpus) if cpus is not None else None)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", required=True,
                    help="JSON produced by this run (--benchmark_out)")
    ap.add_argument("--baseline", required=True,
                    help="committed baseline JSON")
    ap.add_argument("--tolerance", type=float, default=0.50,
                    help="allowed fractional slowdown "
                         "(default 0.50 = 50%%)")
    ap.add_argument("--strict", action="store_true",
                    help="fail (exit 1) instead of warn-and-skip when "
                         "the baseline's CPU count does not match")
    args = ap.parse_args()

    cur, cur_errors, cur_cpus = load_report(args.current)
    base, _, base_cpus = load_report(args.baseline)
    if cur_errors:
        for name, message in sorted(cur_errors.items()):
            sys.stderr.write(f"bench_micro_diff: ERROR: {name}: "
                             f"{message}\n")
        sys.exit(1)
    common = sorted(set(cur) & set(base))

    def fmt(n):
        return str(n) if n is not None else "unknown"
    print(f"  cpus: current {fmt(cur_cpus)}, baseline {fmt(base_cpus)}")
    if cur_cpus != base_cpus:
        for name in common:
            sys.stderr.write(
                f"bench_micro_diff: WARNING: skipping {name} — baseline "
                f"cpus ({fmt(base_cpus)}) != current cpus "
                f"({fmt(cur_cpus)}); refresh bench/baselines/ on this "
                f"machine\n")
        if args.strict:
            sys.stderr.write(
                "bench_micro_diff: --strict: refusing to compare "
                "against a baseline from a different CPU count\n")
            sys.exit(1)
        print("bench_micro_diff: comparison skipped (CPU-count "
              "mismatch)")
        return

    for name in sorted(set(base) - set(cur)):
        sys.stderr.write(f"bench_micro_diff: note: baseline-only "
                         f"benchmark {name} (renamed or removed?)\n")
    for name in sorted(set(cur) - set(base)):
        print(f"  {name}: new benchmark, no baseline yet")

    failed = False
    for name in common:
        ceiling = base[name] * (1.0 + args.tolerance)
        ratio = cur[name] / base[name] if base[name] else float("inf")
        verdict = "OK" if cur[name] <= ceiling else "REGRESSION"
        print(f"  {name}: {cur[name]:12.1f} ns vs baseline "
              f"{base[name]:12.1f} (x{ratio:5.2f}) {verdict}")
        if cur[name] > ceiling:
            failed = True

    if failed:
        sys.stderr.write(
            f"bench_micro_diff: a benchmark slowed down more than "
            f"{args.tolerance * 100:.0f}% vs the committed baseline\n")
        sys.exit(1)
    print("bench_micro_diff: no regression")


if __name__ == "__main__":
    main()
