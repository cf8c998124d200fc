#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json once per seed, for the run length
it names, and prints for each end-to-end metric the median over the runs
and the spread: the distance between the first and third quartiles as a
share of the median. It regenerates the reference figures in README.md:

    python3 perfbench/spread.py --seeds 81-90

Run it from the repository root; it exits 1 if any run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="81-90")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ok = True
    for wl in (w["name"] for w in bench["workloads"]):
        values = {}
        units = {}
        for seed in seed_list(args.seeds):
            p = subprocess.run(
                bench["command"] + ["--workload", wl, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if p.returncode != 0:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            r = json.loads(p.stdout.strip().splitlines()[-1])
            steal = [l.strip() for l in p.stderr.splitlines()
                     if "steal share:" in l or "net of steal" in l or "UNRESOLVED" in l]
            print(f"{wl} seed {seed}: attempted {r['attempted']} failed {r['failed']} correct {r['correct']}; {' '.join(steal)}")
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        for name, v in sorted(values.items()):
            med = statistics.median(v)
            spread = float("nan")
            if len(v) >= 2 and med:
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
            print(f"  {name:32s} {med:14.6g} {units[name]:6s} spread {spread:.4f}  "
                  + " ".join(f"{x:.4g}" for x in v))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
