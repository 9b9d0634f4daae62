#!/usr/bin/env python3
"""Digest of the benchmark jobs' untimed reports.

Runs every job of the chosen workloads, seeds and rounds once, in one
process, through `prymlab.cli.main`, and writes one JSON line per job:
workload, seed, round, job id, exit code, standard error, and the report
with every `timing` block removed.  The last line of standard output is
the sha256 of those lines.  Two trees that print the same digest gave the
same verdicts, values, exit codes and messages on every job.

Run from the root of the tree to digest (its `src/` is imported; the jobs
come from its `perfbench/workloads.py`):

    python3 tools/report_digest.py --out digest.jsonl

The defaults are rounds 0-2 of seeds 1 and 2 on all four workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
import tempfile


def untimed(value):
    """`value` with every "timing" key removed, at any depth."""
    if isinstance(value, dict):
        return {k: untimed(v) for k, v in value.items() if k != "timing"}
    if isinstance(value, list):
        return [untimed(v) for v in value]
    return value


def argv_of(job, work):
    """The CLI arguments of a benchmark job and the path of its report."""
    out = os.path.join(work, "report.json")
    if "config" in job:
        path = os.path.join(work, "config.json")
        with open(path, "w") as fh:
            json.dump(job["config"], fh)
        argv = ["check", "--config", path]
    else:
        s = job["search"]
        argv = ["prym-search", "--p", str(s["p"]), "--case", s["case"],
                "--n", str(s["n"]), "--start", str(s["start"])]
    return argv + ["--out", out], out


def run_one(cli, job, work):
    """(exit code or None if the job raised, standard error, untimed report)."""
    argv, out = argv_of(job, work)
    if os.path.exists(out):
        os.remove(out)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as e:
            rc = None
            print("raised %s: %s" % (type(e).__name__, e), file=sys.stderr)
    report = None
    if os.path.exists(out):
        with open(out) as fh:
            report = untimed(json.load(fh))
    return rc, err.getvalue(), report


def lines(workloads, names, seeds, rounds):
    """One JSON line per job, in workload, seed, round and job order."""
    cli = importlib.import_module("prymlab.cli")
    with tempfile.TemporaryDirectory() as work:
        for name in names:
            for seed in seeds:
                for round_no in rounds:
                    for job in workloads.generate(name, seed, round_no):
                        rc, err, report = run_one(cli, job, work)
                        yield json.dumps({"workload": name, "seed": seed, "round": round_no,
                                          "id": job["id"], "exit": rc, "stderr": err,
                                          "report": report}, sort_keys=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", dest="workloads",
                    help="a workload to run (repeatable; default all)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--rounds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--out", help="also write the JSON lines here")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "prymlab", "cli.py")):
        print("report_digest: no prymlab sources under %s; run from the root of a tree"
              % os.path.join(root, "src"), file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    workloads = importlib.import_module("workloads")
    names = args.workloads or list(workloads.WORKLOADS)

    digest = hashlib.sha256()
    count = 0
    out = open(args.out, "w") if args.out else None
    try:
        for line in lines(workloads, names, args.seeds, args.rounds):
            digest.update(line.encode() + b"\n")
            count += 1
            if out is not None:
                out.write(line + "\n")
    finally:
        if out is not None:
            out.close()
    print("%d jobs" % count)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
