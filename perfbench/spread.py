#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each end-to-end metric's
median and quartile spread (IQR over median), next to its bound.

    python3 perfbench/spread.py --workload metro_day --seeds 1-10 [--seconds 10]

Run from the repository root after building the benchmark; it invokes the
command listed in BENCHMARK.json, one seed after another.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    listed = bench["end_to_end"] if a.trace == "0" else bench["per_layer"]
    values = {m["name"]: [] for m in listed}
    for seed in seeds(a.seeds):
        cmd = bench["command"] + [
            "--workload", a.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", a.trace,
        ]
        began = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True)
        took = time.monotonic() - began
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        result = json.loads(last)
        assert result["correct"], result
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        print(f"seed {seed} ({took:.1f} s): " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(f"{'metric':<32} {'median':>14} {'spread':>8} {'bound':>6}")
    for m in listed:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = m.get("bound", "")
        print(f"{m['name']:<32} {med:>14.6g} {spread:>8.4f} {bound:>6}")


if __name__ == "__main__":
    main()
