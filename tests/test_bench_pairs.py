"""`tools/bench_pairs.py`, the alternating pair runner behind BENCH_*.json."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "job_s.p50", "better": "lower"}, {"name": "jobs_per_s", "better": "higher"}]


def _run(p50, rate, attempted=10, failed=0):
    return {"attempted": attempted, "failed": failed,
            "metrics": {"job_s.p50": {"value": p50}, "jobs_per_s": {"value": rate}}}


def test_summary_counts_wins_in_each_metrics_direction():
    runs = {"parent": [_run(3.0, 10.0), _run(4.0, 12.0), _run(5.0, 9.0), _run(6.0, 11.0)],
            "change": [_run(2.0, 11.0), _run(4.0, 11.0), _run(6.0, 10.0), _run(1.0, 11.0, 12, 1)]}
    s = bench_pairs.summarize(runs, METRICS)
    p50 = s["job_s.p50"]
    assert (p50["parent_median"], p50["change_median"]) == (4.5, 3.0)
    assert p50["change_better_pairs"] == 2        # a tie counts for neither side
    assert p50["change_vs_parent"] == (3.0 - 4.5) / 4.5
    assert p50["parent_iqr"] == 2.5               # exclusive quartiles 3.25 and 5.75
    assert s["jobs_per_s"]["change_better_pairs"] == 2
    assert s["attempted"] == {"parent": [10] * 4, "change": [10, 10, 10, 12]}
    assert s["failed"] == {"parent": [0] * 4, "change": [0, 0, 0, 1]}


def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_quartiles():
    def doc(par, chg):
        runs = {"parent": [_run(x, 1.0) for x in par], "change": [_run(x, 1.0) for x in chg]}
        return {"summary": {"w": bench_pairs.summarize(runs, METRICS)}}

    par = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.1]
    met = bench_pairs.claim(doc(par, [x - 0.5 for x in par]), "w", "job_s.p50", "lower", 10)
    assert met["met"] and met["change_wins"] == 10
    small = bench_pairs.claim(doc(par, [x - 0.05 for x in par]), "w", "job_s.p50", "lower", 10)
    assert small["change_wins"] == 10 and not small["met"]   # gap inside the parent's IQR
    eight = [x - 0.5 for x in par[:8]] + par[8:]
    assert not bench_pairs.claim(doc(par, eight), "w", "job_s.p50", "lower", 10)["met"]


def test_pairs_alternate_and_the_file_holds_each_run(tmp_path):
    out = tmp_path / "bench.json"
    argv = [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", str(ROOT),
            "--change", str(ROOT), "--workload", "wedge-p5p7", "--seed", "1",
            "--seconds", "0.2", "--pairs", "2", "--out", str(out),
            "--claim", "wedge-p5p7:job_s.p50"]
    subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, check=True)
    doc = json.loads(out.read_text())
    s = doc["summary"]["wedge-p5p7"]
    assert set(s) == {"job_s.p50", "job_s.p90", "jobs_per_s", "setup_s", "peak_rss_mb",
                      "sound_ratio", "certified_ratio", "attempted", "failed"}
    assert len(s["setup_s"]["parent"]) == len(s["setup_s"]["change"]) == 2
    assert s["failed"] == {"parent": [0, 0], "change": [0, 0]}
    assert doc["claim"]["pairs"] == 2 and doc["claim"]["workload"] == "wedge-p5p7"
