"""The benchmark's own tests.

Run from the repository root, either directly or under pytest:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the package's tier-1 run does not
collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from prymlab import cli  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench", "selftest")
os.makedirs(WORK, exist_ok=True)

# the workload each layer metric is meant to stress, with a few cheap jobs
# of that workload that exercise it
STRESS = {
    "tangent-sparse": (
        ["y2x5-default", "p2-d6-w12"],
        ["cli.build.s", "cli.check.sigma.s", "cli.check.algebra.s", "cli.check.tangent.s",
         "krichever.puiseux_expand.s", "krichever.algebra_point.s",
         "krichever.row_coeff_bits.mean", "krichever.row_coeff_bits.max",
         "grass.reduce.calls", "grass.reduce.self_s", "grass.build_frame.calls",
         "grass.build_frame.self_s", "grass.tangent_orbit_dim.self_s",
         "vseries.construct.calls", "vseries.mul.calls", "vseries.mul.self_s",
         "scalars.cyclo_construct.calls", "linalg.nullspace.per_tangent_check"]),
    "tangent-dense": (
        ["dense-p2-d5-default-0", "dense-p3-d4-default-0"],
        ["linalg.nullspace.calls", "linalg.nullspace.self_s", "linalg.nullspace.equations",
         "linalg.nullspace.unknowns", "linalg.rank_of_vectors.self_s",
         "scalars.cyclo_mul.calls", "scalars.cyclo_mul.self_s",
         "scalars.cyclo_inverse.calls", "jets.mul.calls", "jets.mul.self_s"]),
    "identities": (
        ["alg-p2-d5-cap1-0", "mod-p2-d5-cap1-0", "wit-p2-R-N0"],
        ["cli.check.identity.s", "cli.check.isotropy.s", "krichever.module_point.s",
         "baker.residue_identity_eval.calls", "baker.residue_identity_eval.self_s",
         "baker.residue_identity_eval.certified_ratio", "baker.baker_akhiezer.calls",
         "baker.baker_akhiezer.self_s", "vseries.residue_pairing.self_s",
         "grass.orthogonal.calls", "grass.orthogonal.self_s", "grass.orthogonal.per_point",
         "jets.mul.jet_calls", "jets.mul.jet_share"]),
    "wedge-p5p7": (
        ["wit-p5-R-N0-0", "wit-p7-NR-N0-0", "y5-iso-w10"],
        ["vseries.wedge_residue.calls", "vseries.wedge_residue.self_s",
         "vseries.base_mul.calls", "vseries.base_mul.self_s",
         "grass.isotropy_check.self_s", "grass.isotropy.tuples",
         "grass.isotropy.certified_ratio"]),
}


def _jobs(workload, ids=None, seed=1):
    jobs = workloads.generate(workload, seed)
    if ids is not None:
        jobs = [j for j in jobs if j["id"].split("-", 1)[1] in ids]
        assert len(jobs) == len(ids), (workload, ids)
    return [run.prepare(j, WORK) for j in jobs]


def _config(**cfg):
    return run.prepare({"id": "cfg", "config": cfg}, WORK)


def test_same_seed_same_configs():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 7) == workloads.generate(w, 7), w
        one = sorted(json.dumps(j, sort_keys=True) for j in workloads.generate(w, 1))
        two = sorted(json.dumps(j, sort_keys=True) for j in workloads.generate(w, 2))
        assert one != two, w
        # the seed fills slots, it does not change their shape
        assert sorted(j["id"] for j in workloads.generate(w, 1)) == \
            sorted(j["id"] for j in workloads.generate(w, 2)), w


def test_generated_curves_are_squarefree():
    for w in workloads.WORKLOADS:
        for job in workloads.generate(w, 3):
            curve = job.get("config", {}).get("curve")
            if curve:
                assert workloads.squarefree([int(c) for c in curve["f"]]), job


def test_genus_closed_form():
    assert oracle.curve_genus(2, [-1, 0, 0, 0, 0, 1]) == 2
    assert oracle.curve_genus(3, [-1, 0, 0, 0, 1]) == 3
    assert oracle.curve_genus(2, [-1, 0, 0, 0, 0, 0, 1]) == 2
    assert oracle.curve_genus(3, workloads.GENUS9["f"]) == 9
    assert oracle.curve_genus(5, [1, 1, 0, 0, 0, 0, 1]) == 10


def test_oracle_on_y2_x5():
    job = _config(curve=workloads.Y2_X5, checks=["chi", "gaps", "sigma", "algebra", "tangent"])
    _, rc, report = run.run_job(cli, job)
    assert rc == 0
    assert report["checks"]["chi"]["value"] == -1
    assert report["checks"]["gaps"]["value"] == [1, 3]
    assert report["checks"]["tangent"]["value"] == 2
    verdicts = oracle.judge_check_report(job["config"], report)
    assert [j.status for j in verdicts] == [oracle.OK] * 5
    # a contradicting value is wrong and outside the known defect classes
    report["checks"]["tangent"]["value"] = 3
    bad = oracle.judge_check_report(job["config"], report)[-1]
    assert bad.status == oracle.WRONG and not bad.known


def test_oracle_counts_known_seed_errors():
    job = _config(curve=workloads.GENUS9, checks=["chi", "gaps", "tangent"])
    _, rc, report = run.run_job(cli, job)
    verdicts = {j.check: j for j in oracle.judge_check_report(job["config"], report)}
    assert report["checks"]["chi"]["value"] == -6          # truth -8
    assert all(verdicts[c].status == oracle.WRONG and verdicts[c].known
               for c in ("chi", "gaps", "tangent"))
    ledger = run.Ledger()
    ledger.judge(job, rc, report)
    assert ledger.wrong == 3 and ledger.known == 3 and not ledger.problems


def test_oracle_witness_and_search():
    for big_n, isotropic in ((-1, True), (0, False)):
        job = run.prepare(workloads.witness_job("w", 3, "NR", 1, big_n,
                                                ["isotropy", "BKP_GEN"]), WORK)
        _, rc, report = run.run_job(cli, job)
        assert report["checks"]["isotropy"]["value"] is isotropic
        assert all(j.status == oracle.OK
                   for j in oracle.judge_check_report(job["config"], report))
    job = run.prepare(workloads.search_job("s", 2, "R", 1, 2), WORK)
    _, rc, report = run.run_job(cli, job)
    assert rc == 0 and oracle.judge_search_report(report)[0].status == oracle.OK


def test_traced_report_equals_untraced():
    jobs = _jobs("identities", ["alg-p2-d5-cap1-0", "wit-p2-NR-N0"]) + \
        _jobs("tangent-sparse", ["y3x4-default"])
    plain = [run._untimed(run.run_job(cli, j)[2]) for j in jobs]
    t = tracer.Tracer().install()
    try:
        traced = [run._untimed(run.run_job(cli, j)[2]) for j in jobs]
    finally:
        t.uninstall()
    assert traced == plain
    assert t.calls["cli.build"] == len(jobs)
    # uninstall restores every import site
    from prymlab import baker, grass, linalg
    assert grass.nullspace is linalg.nullspace
    assert grass.GrassPoint.__dict__["reduce"].__qualname__ == "GrassPoint.reduce"
    assert baker.wedge_residue.__module__ == "prymlab.vseries"


def test_layer_metrics_nonzero_where_stressed():
    for workload, (ids, names) in STRESS.items():
        jobs = _jobs(workload, ids)
        t = tracer.Tracer().install()
        try:
            for job in jobs:
                t.job = job["id"]
                run.run_job(cli, job)
        finally:
            t.uninstall()
        tangent = sum(1 for j in jobs if "tangent" in j["config"]["checks"])
        metrics = t.layer_metrics(1.0, tangent)
        assert set(metrics) == set(tracer.LAYER_UNITS) - {
            "trace.jobs_per_s.untraced", "trace.jobs_per_s.traced", "trace.overhead_ratio"}
        zero = [n for n in names if not metrics[n] > 0]
        assert not zero, (workload, zero)


def test_benchmark_json_matches_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_UNITS


def _bench(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_every_workload():
    for w in workloads.WORKLOADS:
        out = _bench(["--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0"], ROOT)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, w
        assert set(result["metrics"]) == set(run.END_TO_END_UNITS), w
        assert all(m["value"] > 0 for m in result["metrics"].values()), (w, result)


def test_refuses_without_sources():
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = _bench(["--workload", "identities", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], bare)
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert not out.stdout.strip()


def main():
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print("PASS", name)
            except Exception as e:  # report and go on
                failed += 1
                print("FAIL", name, repr(e))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
