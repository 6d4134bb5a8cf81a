"""Run every workload listed in BENCHMARK.json on ten seeds and summarize.

    python3 bench/record_baseline.py [--seeds 401-410] [--out FILE]

Each run is the benchmark's own command with BENCHMARK.json's run_seconds.
For every printed metric the summary holds the median, the quartiles from
statistics.quantiles(values, n=4) and their spread, (Q3 - Q1) / median.
Writes bench/baseline.json unless --out names another file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    run_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    printed = {}
    for ln in lines:
        parts = ln.split()
        if len(parts) >= 3 and parts[0][0].isalpha() and ":" not in parts[0]:
            try:
                printed[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    printed["run_s"] = (run_s, "s")   # the whole command, for the time budget
    return env, json.loads(lines[-1]), printed


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "spread": round((q3 - q1) / med, 4) if med else None}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="401-410")
    ap.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = ap.parse_args()
    lo, hi = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    out = {"note": "Ten runs per workload, one seed each, with the "
                   "benchmark's own settings; spread = (Q3 - Q1) / median "
                   "with statistics.quantiles(values, n=4).",
           "env": None, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in seeds:
            env, result, printed = run_once(spec, name, seed)
            runs.append((result, printed))
            print(name, seed, {k: round(v, 6) for k, (v, _) in
                               printed.items()}, file=sys.stderr, flush=True)
        env.pop("seed")
        out["env"] = env
        metrics = {}
        for key, (_, unit) in runs[0][1].items():
            metrics[key] = {"unit": unit,
                            **summary([p[key][0] for _, p in runs])}
        out["workloads"][name] = {
            "seeds": seeds,
            "attempted": [r["attempted"] for r, _ in runs],
            "failed": [r["failed"] for r, _ in runs],
            "correct": all(r["correct"] for r, _ in runs),
            "metrics": metrics,
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
