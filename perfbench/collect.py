#!/usr/bin/env python3
"""Run the benchmark over seeds and workloads and write one baseline file.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline_seed.json

Runs are sequential child processes of `run.py` (one at a time, each
awaited).  For every workload the file keeps each run's result object as
`run.py` printed it, the median and the spread (interquartile range over
median) of every end-to-end metric, the derived `wrong_ratio` and
`uncertified_ratio`, and the result of one traced run.  A later change
compares its own file against this one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s" % (workload, seed, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(runs):
    names = list(runs[0]["metrics"])
    med, spread = {}, {}
    for name in names:
        vals = [r["metrics"][name]["value"] for r in runs]
        med[name] = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            spread[name] = (q[2] - q[0]) / med[name] if med[name] else None
    return med, spread


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--out", default=None)
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    doc = {"label": args.label,
           "hardware": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                        "python": platform.python_version()},
           "run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for w in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = bench(w, seed, args.seconds, 0)
            runs.append(dict(result, seed=seed))
            print(w, seed, result["correct"],
                  " ".join("%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items()),
                  flush=True)
        med, spread = summary(runs)
        traced = bench(w, seeds[0], args.seconds, 1)
        doc["workloads"][w] = {
            "median": med, "spread": spread,
            "wrong_ratio": 1.0 - med["sound_ratio"],
            "uncertified_ratio": 1.0 - med["certified_ratio"],
            "all_correct": all(r["correct"] for r in runs),
            "runs": runs, "trace": dict(traced, seed=seeds[0]),
        }
        for name in med:
            print("  %-16s median %.6g  spread %s" % (
                name, med[name], "%.4f" % spread[name] if spread.get(name) is not None else "-"),
                flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
