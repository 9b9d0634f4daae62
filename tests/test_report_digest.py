"""Smoke test of `tools/report_digest.py`, the digest of the benchmark
jobs' untimed reports that two trees are compared by."""

import contextlib
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_digest_of_one_round(tmp_path):
    out = tmp_path / "digest.jsonl"
    argv = [sys.executable, str(ROOT / "tools" / "report_digest.py"),
            "--workload", "wedge-p5p7", "--seeds", "1", "--rounds", "0", "--out", str(out)]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    count, digest = run.stdout.split()[-3], run.stdout.split()[-1]
    data = out.read_bytes()
    assert digest == hashlib.sha256(data).hexdigest()
    lines = [json.loads(line) for line in data.decode().splitlines()]
    assert len(lines) == int(count) == 30
    for line in lines:
        assert set(line) == {"workload", "seed", "round", "id", "exit", "stderr", "report"}
        assert (line["workload"], line["seed"], line["round"]) == ("wedge-p5p7", 1, 0)
        assert line["exit"] in (0, 1, 2) and line["report"] is not None
        assert "timing" not in json.dumps(line["report"])
    # a second run of the same jobs gives the same digest
    again = subprocess.run(argv[:-2], cwd=ROOT, capture_output=True, text=True, check=True)
    assert again.stdout.split()[-1] == digest


def test_digest_refuses_a_directory_without_sources(tmp_path):
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "report_digest.py")],
                         cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 2 and "no prymlab sources" in run.stderr


# the digest of round 0, seed 1, of each workload; a change that moves a
# report updates its value here and lists the changed jobs in CHANGES.md
PINNED = {
    "tangent-sparse": "e6bd2d43e019beb91e6e69f918c2eb522c9039afc8fa09d5f82b52541913d8f0",
    "tangent-dense": "79afe995365b84d469b3f76159431385375772ebb8b85266e564e8b436427477",
    "identities": "9d8644a2ca9a1cbb9d15d2bee2ab568786201d7317c69fd9494012bcc23198dc",
    "wedge-p5p7": "7410849cdfe9f13a032fc9e3281d935e2772aadb08d64bfd53bcbb9c3d548453",
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_reports_of_the_first_round_are_pinned(workload):
    argv = [sys.executable, str(ROOT / "tools" / "report_digest.py"),
            "--workload", workload, "--seeds", "1", "--rounds", "0"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    assert run.stdout.split()[-1] == PINNED[workload]


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the sha256 of each `identities` job's `timing.attempts` (the flow depths
# its identity checks tried), round 0 of seed 1, one line per job; the
# digest strips `timing`, so a change that reroutes the depth search is
# held to the same depths and suggestions here
ATTEMPTS = "8b42bfaf8ce961f255dcc143202532d708c468d8d27ad2f26bfcb3225eed6869"


def test_the_flow_depths_tried_are_pinned(tmp_path):
    import prymlab.cli as cli

    workloads = _load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    digest = _load(ROOT / "tools" / "report_digest.py", "report_digest")
    sha = hashlib.sha256()
    for job in workloads.generate("identities", 1, 0):
        argv, out = digest.argv_of(job, str(tmp_path))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        with open(out) as fh:
            attempts = json.load(fh)["timing"].get("attempts")
        sha.update(json.dumps([job["id"], attempts]).encode() + b"\n")
    assert sha.hexdigest() == ATTEMPTS
