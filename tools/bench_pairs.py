#!/usr/bin/env python3
"""Alternating benchmark pairs of two trees, written as a BENCH_*.json file.

Runs `perfbench/run.py --trace 0` in a parent checkout and in a change
checkout, one process at a time, `--pairs` times per workload.  Pair i
runs the parent first when i is even and the change first when it is
odd, since back-to-back runs favour whichever goes first.  Each child
runs with PYTHONDONTWRITEBYTECODE=1, so `setup_s` compiles the sources
as a fresh checkout does.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload wedge-p5p7 --seed 31 --seconds 30 --pairs 10 --out BENCH_N.json

For every end-to-end metric of the change's BENCHMARK.json the output
holds each side's runs, medians, quartile ranges, the change's relative
difference and the number of pairs the change won; `attempted` and
`failed` hold each run's job and failure counts.  `--claim
WORKLOAD:METRIC` adds whether that metric's gain is shown: the change
wins at least nine tenths of the pairs and its median is better than
the parent's by more than the parent's quartile range.  The file is
rewritten after every pair, so an interrupted run keeps the pairs it
finished.
Nothing under either tree's `perfbench/` is written to; `run.py` keeps
its configs and reports in `.perfbench/` of the tree it runs in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree, workload, seed, seconds):
    """The final JSON line of one `perfbench/run.py` run in `tree`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise RuntimeError("%s: run.py exited %s\n%s" % (tree, run.returncode, run.stderr))
    return json.loads(lines[-1])


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def summarize(runs, metrics):
    """Per-metric statistics of one workload's runs: {"parent": [...], "change": [...]}."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        par = [r["metrics"][name]["value"] for r in runs["parent"]]
        chg = [r["metrics"][name]["value"] for r in runs["change"]]
        pm, cm = statistics.median(par), statistics.median(chg)
        out[name] = {
            "parent": par,
            "change": chg,
            "parent_median": pm,
            "change_median": cm,
            "change_vs_parent": (cm - pm) / pm if pm else 0.0,
            "change_better_pairs": sum(1 for a, b in zip(par, chg)
                                       if (b < a if lower else b > a)),
            "parent_iqr": iqr(par),
            "change_iqr": iqr(chg),
        }
    for key in ("attempted", "failed"):
        out[key] = {side: [r[key] for r in runs[side]] for side in ("parent", "change")}
    return out


def claim(doc, workload, metric, better, pairs):
    """Is the change's gain on one workload's metric shown by the pairs?"""
    st = doc["summary"][workload][metric]
    gap = st["parent_median"] - st["change_median"]
    if better == "higher":
        gap = -gap
    return {"workload": workload, "metric": metric, "better": better,
            "parent_median": st["parent_median"], "change_median": st["change_median"],
            "parent_iqr": st["parent_iqr"], "change_wins": st["change_better_pairs"],
            "pairs": pairs,
            "met": 10 * st["change_better_pairs"] >= 9 * pairs and gap > st["parent_iqr"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the change checkout")
    ap.add_argument("--workload", action="append", dest="workloads",
                    help="a workload to run (repeatable; default all in BENCHMARK.json)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="run length (default BENCHMARK.json's)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--title", default="")
    ap.add_argument("--hardware", default="")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC",
                    help="the end-to-end metric whose gain the change claims")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    claimed = args.claim.split(":") if args.claim else None
    if claimed and (len(claimed) != 2 or claimed[0] not in names or claimed[1] not in better):
        ap.error("--claim needs WORKLOAD:METRIC, a run workload and an end-to-end metric")
    doc = {
        "title": args.title,
        "hardware": args.hardware,
        "claim": None,
        "method": "perfbench/run.py --seconds %g --seed %d, parent and change each in "
                  "its own checkout, alternating which runs first (pair 0 parent first); "
                  "%d pairs per workload. 'attempted' is the number of jobs a run "
                  "attempted, so it counts the rounds a run covered; 'failed' counts "
                  "failed operations." % (seconds, args.seed, args.pairs),
        "summary": {},
    }
    trees = {"parent": args.parent, "change": args.change}
    for name in names:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], name, args.seed, seconds))
            doc["summary"][name] = summarize(runs, bench["end_to_end"])
            if claimed and claimed[0] == name:
                doc["claim"] = claim(doc, name, claimed[1], better[claimed[1]], i + 1)
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
            print("%s pair %d/%d done" % (name, i + 1, args.pairs), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
