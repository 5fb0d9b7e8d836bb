#!/usr/bin/env python3
"""The repository benchmark: builds bench/e2e, runs workloads, checks outputs.

Run from the repository root:

  python3 bench/e2e/run.py --workload kv-read-open --seed 1 --seconds 15 --trace 0
  python3 bench/e2e/run.py --repeat 5               # every workload, seeds 1..5
  python3 bench/e2e/run.py --traced                 # per-layer metrics
  python3 bench/e2e/run.py --compare parent.json change.json

Each workload runs in its own hcsgc_e2e process. Every metric is printed as
`<workload> <metric> <value> <unit> n=<samples>`; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. Exits
nonzero when a build, a run or an output check fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = ROOT / "bench" / "e2e"
BUILD = ROOT / ".bench_build" / "e2e"
SPEC_FILE = ROOT / "BENCHMARK.json"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"run.py: {msg}")
    sys.exit(code)


def load_spec():
    try:
        return json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC_FILE.name}: {e}")


def clean_env():
    # support/ArgParse reads HCSGC_<FLAG> variables as flag defaults; none
    # may leak into a measured process.
    return {k: v for k, v in os.environ.items() if not k.startswith("HCSGC_")}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the runtime sources (src/) are missing; run from a full checkout")
    env = clean_env()
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", "hcsgc_e2e", "histogram_test"])
    steps.append([str(BUILD / "histogram_test")])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"'{' '.join(cmd)}' failed with exit code {r.returncode}")


def machine():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": model, "commit": commit}


def metric_specs(spec, traced):
    return spec["per_layer"] if traced else spec["end_to_end"]


def run_one(spec, workload, seed, seconds, traced):
    """Runs one workload in its own process; returns its checked record."""
    cmd = [str(BUILD / "hcsgc_e2e"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}"]
    if traced:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--traced={traces / f'{workload}-seed{seed}.json'}")
    timeout = (3 * seconds if traced else seconds) + 150
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=clean_env(), capture_output=True,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {timeout} s", 1)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: hcsgc_e2e exited {r.returncode} without a result", 1)
    problems = list(rec.get("errors", []))
    if r.returncode != 0 and not problems:
        problems.append(f"hcsgc_e2e exited {r.returncode}")
    metrics = {}
    for m in metric_specs(spec, traced):
        got = rec["metrics"].get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} in {got['unit']}, "
                            f"want {m['unit']}")
        elif not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} is not finite")
        else:
            metrics[m["name"]] = got
    if rec["failed"]:
        problems.append(f"{rec['failed']} of {rec['attempted']} requests failed")
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "traced": traced, "config": rec.get("config"),
            "pinned": rec.get("pinned"), "correct": not problems,
            "problems": problems, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics,
            "self_times": rec.get("self_times", {})}


def print_run(run):
    w = run["workload"]
    for name, m in run["metrics"].items():
        print(f"{w} {name} {m['value']:.9g} {m['unit']} n={m['n']}")
    for name, s in sorted(run["self_times"].items(),
                          key=lambda kv: -kv[1]["self_ms"]):
        print(f"{w} self-time {name} self_ms={s['self_ms']:.3f} "
              f"total_ms={s['total_ms']:.3f} count={s['count']:.0f}")
    for p in run["problems"]:
        print(f"{w} FAILED {p}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(spec, runs, traced):
    """Median and quartiles per workload and metric, with the spread check."""
    summary = {}
    bounds = {m["name"]: m for m in metric_specs(spec, traced)}
    for run in runs:
        per = summary.setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    out = {}
    for w, per in summary.items():
        out[w] = {}
        for name, values in per.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds[name].get("bound")
            over = bound is not None and name != "setup_s" and spread > bound
            out[w][name] = {"median": med, "q1": q1, "q3": q3,
                            "spread": spread, "bound": bound,
                            "unit": bounds[name]["unit"], "values": values,
                            "spread_over_bound": over}
            flag = " SPREAD>BOUND" if over else ""
            btxt = f" bound={bound:.0%}" if bound is not None else ""
            print(f"{w} {name} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.1%}{btxt} n={len(values)}{flag}")
    return out


def compare(spec, parent_path, change_path):
    """The choosing-metrics rule: a gain needs 9/10 pair wins and a median
    difference larger than the parent's interquartile range; a regression
    is a median worse by more than the metric's bound."""
    parent, change = (json.loads(Path(p).read_text())
                      for p in (parent_path, change_path))
    if parent["machine"]["nproc"] != change["machine"]["nproc"]:
        fail(f"results taken at different nproc "
             f"({parent['machine']['nproc']} vs {change['machine']['nproc']})")
    status = 0
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        for w in sorted({r["workload"] for r in parent["runs"]}):
            pv = [r["metrics"][name]["value"] for r in parent["runs"]
                  if r["workload"] == w and name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in change["runs"]
                  if r["workload"] == w and name in r["metrics"]]
            if not pv or not cv:
                continue
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            pairs = list(zip(pv, cv))
            wins = sum(better(c, p) for p, c in pairs)
            pq1, pmed, pq3 = quartiles(pv)
            cmed = statistics.median(cv)
            worse_by = (cmed - pmed) / abs(pmed) * (1 if lower else -1)
            if all(better(c, p) for c in cv for p in pv) or (
                    wins >= 0.9 * len(pairs) and better(cmed, pmed)
                    and abs(cmed - pmed) > pq3 - pq1):
                verdict = "improved"
            elif (pq3 - pq1) / abs(pmed) > m["bound"]:
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict, status = "regressed", 1
            else:
                verdict = "unchanged"
            print(f"{w} {name} parent={pmed:.6g} change={cmed:.6g} "
                  f"delta={-worse_by:+.1%} wins={wins}/{len(pairs)} "
                  f"bound={m['bound']:.0%} {verdict}")
    sys.exit(status)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true",
                    help="same as --trace 1: per-layer metrics and a trace")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, seeds seed..seed+N-1")
    ap.add_argument("--out", help="results JSON "
                    "(default .bench_build/results/latest.json)")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()
    if args.compare:
        compare(spec, *args.compare)
    if args.seed < 0 or args.seconds < 1 or args.repeat < 1:
        fail("--seed must be >= 0, --seconds and --repeat >= 1")
    traced = args.traced or args.trace == 1

    build()
    runs = []
    for i in range(args.repeat):
        for w in [args.workload] if args.workload else names:
            run = run_one(spec, w, args.seed + i, args.seconds, traced)
            print_run(run)
            runs.append(run)
    summary = summarize(spec, runs, traced) if len(runs) > 1 else None

    out = Path(args.out) if args.out else (
        ROOT / ".bench_build" / "results" / "latest.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"machine": machine(), "seed": args.seed,
                               "seconds": args.seconds, "traced": traced,
                               "runs": runs, "summary": summary}, indent=1))

    correct = all(r["correct"] for r in runs)
    if len(runs) == 1:
        metrics = {n: {"value": m["value"], "unit": m["unit"]}
                   for n, m in runs[0]["metrics"].items()}
    else:
        # Several runs: medians per metric, keyed by workload.
        metrics = {f"{w}.{n}": {"value": s["median"], "unit": s["unit"]}
                   for w, per in summary.items() for n, s in per.items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
