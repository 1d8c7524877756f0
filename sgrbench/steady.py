#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload once per seed, then reports for every end-to-end metric
its median, quartiles (statistics.quantiles(values, n=4)) and spread, the
interquartile distance as a share of the median, against the metric's
bound in BENCHMARK.json. Run from the root of a checkout:

    python3 sgrbench/steady.py --seeds 1-10 --out .bench_build/steady-a.json
    python3 sgrbench/steady.py --compare .bench_build/steady-a.json .bench_build/steady-b.json

--compare checks that the second set's medians are within each metric's
bound of the first's, in either direction, and prints both sets' medians
and quartiles side by side.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    return result, detail


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def measure(spec, workloads, seeds, trace):
    out = {}
    for w in workloads:
        runs = []
        for seed in seeds:
            t0 = time.monotonic()
            result, detail = run_once(spec, w, seed, trace)
            elapsed = time.monotonic() - t0
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: incorrect: {detail.get('problems')}")
            runs.append({"seed": seed, "metrics": result["metrics"], "detail": detail, "elapsed_s": elapsed})
            print(f"{w} seed {seed} ({elapsed:.1f} s): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())), flush=True)
        names = sorted(runs[0]["metrics"])
        out[w] = {"runs": runs,
                  "metrics": {n: stats([r["metrics"][n]["value"] for r in runs]) for n in names},
                  "layer": {}}
        for n in LAYER_SPREADS:
            values = [r["detail"].get("per_layer", {}).get(n, {}).get("value", 0) for r in runs]
            if any(values):
                out[w]["layer"][n] = stats(values)
    return out


# Per-layer metrics whose spread the README records: end-to-end candidates
# that do not repeat within a tenth across seeds, the wall-clock op times
# among them.
LAYER_SPREADS = ["core.restore_p50_ms", "core.restore_cpu_ms",
                 "harness.eval_p50_ms", "harness.eval_cpu_ms",
                 "loadgen.job_p50_ms", "restored.cpu_per_job_ms",
                 "mem.peak_rss_mb", "loadgen.query_p50_ms", "loadgen.query_p90_ms"]


def report(spec, data):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    print(f"{'workload':14} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for w, d in data.items():
        for n, s in list(d["metrics"].items()) + list(d.get("layer", {}).items()):
            b = bounds.get(n)
            flag = ""
            if b is not None and s["spread"] > b:
                flag, ok = " OVER BOUND", False
            elif b is not None and s["spread"] > b / 3:
                flag = " over bound/3"
            print(f"{w:14} {n:12} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {b if b is not None else '-':>6}{flag}")
    return ok


def compare(spec, a, b):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    print(f"{'workload':14} {'metric':12} {'A median':>12} {'A q1-q3':>25} {'B median':>12} {'B q1-q3':>25} {'change':>8}")
    for w in a:
        for n, sa in a[w]["metrics"].items():
            sb = b[w]["metrics"][n]
            change = (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
            flag = ""
            if abs(change) > bounds[n]:
                flag, ok = " OUTSIDE BOUND", False
            print(f"{w:14} {n:12} {sa['median']:12.6g} {sa['q1']:12.6g}-{sa['q3']:<12.6g} "
                  f"{sb['median']:12.6g} {sb['q1']:12.6g}-{sb['q3']:<12.6g} {change:+8.4f}{flag}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", default="BENCHMARK.json")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(spec, *sets) else 1)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    data = measure(spec, workloads, parse_seeds(args.seeds), args.trace)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)
    if args.trace == 0:
        sys.exit(0 if report(spec, data) else 1)


if __name__ == "__main__":
    main()
