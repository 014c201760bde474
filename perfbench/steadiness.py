"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/steadiness.py --seeds 1-10 [--out FILE]

Runs one `run.py --trace 0` process at a time, for every workload and with
the run length of BENCHMARK.json, and prints, per workload and metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median, which
must stay within the metric's bound in BENCHMARK.json.  --out appends the
summary as one JSON line to FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary = {"seconds": seconds, "seeds": seed_list(args.seeds), "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in summary["seeds"]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"correct {result['correct']}", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "bound": bounds[name], "values": vals}
            print(f"{workload:<10} {name:<12} median {med:12.6f}  q1 {q1:12.6f}  "
                  f"q3 {q3:12.6f}  spread {(q3 - q1) / med:6.3f} (bound {bounds[name]})",
                  flush=True)
        summary["workloads"][workload] = rows
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
