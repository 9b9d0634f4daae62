#!/usr/bin/env python3
"""prymlab benchmark: seeded `prymlab check` / `prym-search` jobs in a
closed loop, one client, no threads, every report checked against the
closed-form oracle.

Run from the repository root:

    python3 perfbench/run.py --workload tangent-sparse --seed 1 --seconds 30 --trace 0

`--trace 0` cycles the workload's jobs for `--seconds` seconds through
`prymlab.cli.main` and reports the end-to-end metrics.  `--trace 1` runs
every job once untraced and once under the outside-in tracer of
`tracer.py`, and reports the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Configs, reports and span dumps go to `.perfbench/` in the working
directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
EXIT_OF_VERDICT = {"pass": 0, "fail": 1, "window-insufficient": 2}

END_TO_END_UNITS = {
    "job_s.p50": "s", "job_s.p90": "s", "jobs_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "sound_ratio": "ratio", "certified_ratio": "ratio",
}


# ---------------------------------------------------------------- jobs


def prepare(job, work):
    """Write the job's config and fix its argv and report path."""
    out = os.path.join(work, job["id"] + ".report.json")
    if "config" in job:
        path = os.path.join(work, job["id"] + ".config.json")
        with open(path, "w") as fh:
            json.dump(job["config"], fh)
        argv = ["check", "--config", path]
    else:
        s = job["search"]
        argv = ["prym-search", "--p", str(s["p"]), "--case", s["case"],
                "--n", str(s["n"]), "--start", str(s["start"])]
    job["argv"] = argv + ["--out", out]
    job["out"] = out
    return job


def run_job(cli, job):
    """One CLI job: (wall seconds, exit code or None if it raised, report).

    A job that raises is a failed job, not the end of the run: its
    traceback goes to standard error and the oracle counts its checks
    as wrong."""
    if os.path.exists(job["out"]):
        os.remove(job["out"])
    t0 = perf_counter()
    try:
        rc = cli.main(job["argv"])
    except (Exception, SystemExit):
        rc = None
        print("job %s raised:\n%s" % (job["id"], traceback.format_exc()), file=sys.stderr)
    dt = perf_counter() - t0
    report = None
    if rc is not None and os.path.exists(job["out"]):
        with open(job["out"]) as fh:
            report = json.load(fh)
    return dt, rc, report


def outcome(report):
    """What determinism is judged on: verdicts and values, not timing."""
    if report is None:
        return None
    if "checks" in report:
        return {n: (c.get("verdict"), json.dumps(c.get("value"), sort_keys=True))
                for n, c in report["checks"].items()}
    return {"threshold": report.get("threshold_N"),
            "trace": [(t["N"], t["isotropic"]) for t in report.get("trace", [])]}


class Ledger:
    """Oracle verdicts over the distinct jobs of a run."""

    def __init__(self):
        self.checks = self.wrong = self.known = self.uncertified = 0
        self.failed_jobs = 0
        self.problems = []

    def judge(self, job, rc, report):
        ncheck = len(job["config"]["checks"]) if "config" in job else 1
        self.checks += ncheck
        if rc is None or rc == 3 or report is None:
            self.failed_jobs += 1
            self.wrong += ncheck
            self.problems.append("%s: crashed or config error (exit %s)" % (job["id"], rc))
            return
        if "config" in job:
            verdicts = oracle.judge_check_report(job["config"], report)
            want_rc = EXIT_OF_VERDICT.get(report.get("verdict"))
        else:
            verdicts = oracle.judge_search_report(report)
            want_rc = 0
        if rc != want_rc:
            self.problems.append("%s: exit %s for verdict %s" % (job["id"], rc,
                                                                report.get("verdict")))
        for j in verdicts:
            if j.status == oracle.WRONG:
                self.wrong += 1
                if j.known:
                    self.known += 1
                else:
                    self.problems.append("%s: %s wrong (%s)" % (job["id"], j.check, j.detail))
            elif j.status == oracle.UNCERTIFIED:
                self.uncertified += 1


# ---------------------------------------------------------------- statistics


def hd_quantile(samples, q):
    """Harrell-Davis estimate of the q-quantile: a Beta((n+1)q, (n+1)(1-q))
    weighted mean of the order statistics.  Unlike a single order
    statistic it does not jump between the widely spaced job costs of a
    mixed workload."""
    xs = sorted(samples)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def _beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


# ---------------------------------------------------------------- set-up


def set_up(workload, seed, work):
    """Import prymlab afresh, generate and write the workload, warm up.

    Repeated SETUP_REPEATS times; the median is the set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "prymlab" or n.startswith("prymlab.")]:
            del sys.modules[name]
        t0 = perf_counter()
        cli = importlib.import_module("prymlab.cli")
        jobs = [prepare(j, work) for j in workloads.generate(workload, seed)]
        warm = prepare(dict(workloads.WARMUP[workload]), work)
        _, rc, _ = run_job(cli, warm)
        times.append(perf_counter() - t0)
        if rc not in (0, 1, 2):
            raise RuntimeError("warm-up job failed with exit %s" % rc)
    return cli, jobs, statistics.median(times)


# ---------------------------------------------------------------- runs


def job_key(job):
    return json.dumps(job.get("config") or job.get("search"), sort_keys=True)


def timed_run(cli, workload, seed, jobs, work, seconds, setup_s):
    """Run rounds of the workload, one job after another, for `seconds`.

    Throughput and the oracle ratios are taken over the completed rounds,
    so they do not depend on where the deadline cut the last one."""
    ledger = Ledger()
    first = {}                # job key -> outcome of its first run
    samples = []
    rounds = []               # (jobs, loop seconds, checks, wrong, uncertified)
    start = perf_counter()
    deadline = start + seconds
    round_no = 0
    while True:
        for job in jobs:
            if samples and perf_counter() >= deadline:
                break
            dt, rc, report = run_job(cli, job)
            samples.append(dt)
            seen = outcome(report)
            key = job_key(job)
            if key not in first:
                first[key] = seen
                ledger.judge(job, rc, report)
            elif seen != first[key]:
                ledger.problems.append("%s: repeat gave a different report" % job["id"])
        else:
            rounds.append((len(samples), perf_counter() - start, ledger.checks,
                           ledger.wrong, ledger.uncertified))
            if perf_counter() < deadline:
                round_no += 1
                jobs = [prepare(j, work) for j in workloads.generate(workload, seed, round_no)]
                continue
        break
    loop_s = perf_counter() - start
    n_jobs, spent, checks, wrong, uncertified = rounds[-1] if rounds else (
        len(samples), loop_s, ledger.checks, ledger.wrong, ledger.uncertified)
    checks = max(checks, 1)
    p90 = hd_quantile(samples, 0.9)
    metrics = {
        "job_s.p50": hd_quantile(samples, 0.5),
        "job_s.p90": p90,
        "jobs_per_s": n_jobs / spent,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sound_ratio": 1.0 - wrong / checks,
        "certified_ratio": 1.0 - uncertified / checks,
    }
    beyond = sum(1 for s in samples if s > p90)
    notes = [
        "job samples %d (%d full rounds, %d distinct jobs), %d beyond p90"
        % (len(samples), len(rounds), len(first), beyond),
        "wrong_ratio %.6f ratio (%d of %d checks in full rounds; %d of %d overall, "
        "%d in known seed defect classes)"
        % (wrong / checks, wrong, checks, ledger.wrong, ledger.checks, ledger.known),
        "uncertified_ratio %.6f ratio (%d of %d checks in full rounds)"
        % (uncertified / checks, uncertified, checks),
    ]
    return ledger, len(samples), metrics, notes


def traced_run(cli, jobs, work):
    """Run each job of round 0 untraced and, right after, traced.  The two
    runs of a job see the same phase of a noisy machine, so the ratio of
    the two totals is the tracing overhead."""
    from tracer import Tracer

    ledger = Ledger()
    tracer = Tracer()
    t_plain = t_traced = 0.0
    for job in jobs:
        dt, rc, report = run_job(cli, job)
        t_plain += dt
        ledger.judge(job, rc, report)
        tracer.job = job["id"]
        tracer.install()
        try:
            dt, _, traced = run_job(cli, job)
        finally:
            tracer.uninstall()
        t_traced += dt
        if _untimed(traced) != _untimed(report):
            ledger.problems.append("%s: traced report differs" % job["id"])
    tracer.write_spans(os.path.join(work, "spans.tsv"))
    tangent_checks = sum(1 for j in jobs if "tangent" in j.get("config", {}).get("checks", ()))
    metrics = tracer.layer_metrics(t_traced, tangent_checks)
    metrics["trace.jobs_per_s.untraced"] = len(jobs) / t_plain
    metrics["trace.jobs_per_s.traced"] = len(jobs) / t_traced
    metrics["trace.overhead_ratio"] = t_traced / t_plain
    notes = ["traced pass %.3f s, untraced pass %.3f s over %d jobs; %d spans"
             % (t_traced, t_plain, len(jobs), len(tracer.spans))]
    if tracer.missing:
        notes.append("not traced, absent from the program: %s" % ", ".join(tracer.missing))
    return ledger, 2 * len(jobs), metrics, notes


def _untimed(report):
    """The report without the blocks that may differ between runs: timing,
    and the per-layer stats the ROADMAP plans beside it."""
    if report is None:
        return None
    return {k: v for k, v in report.items() if k not in ("timing", "stats")}


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "prymlab", "cli.py")):
        print("perfbench: no prymlab sources under %s; run from the repository root"
              % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work = os.path.join(root, ".perfbench", "%s-%d" % (args.workload, args.seed))
    os.makedirs(work, exist_ok=True)

    cli, jobs, setup_s = set_up(args.workload, args.seed, work)
    if args.trace:
        from tracer import LAYER_UNITS as units

        ledger, attempted, metrics, notes = traced_run(cli, jobs, work)
    else:
        ledger, attempted, metrics, notes = timed_run(
            cli, args.workload, args.seed, jobs, work, args.seconds, setup_s)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print("%-44s %.6g %s" % (name, value, units.get(name, "")))
    for line in notes + ledger.problems:
        print(line)
    result = {
        "correct": not ledger.problems,
        "attempted": attempted,
        "failed": ledger.failed_jobs,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
