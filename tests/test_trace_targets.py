"""The benchmark's per-layer tracer wraps package functions by name; a
renamed or deleted target would silently read 0 in every traced run."""

import importlib.util
from pathlib import Path

import prymlab.cli as cli  # imports every module the tracer wraps
from prymlab import grass
from prymlab.grass import u_n_point
from prymlab.jets import JetRing
from prymlab.vseries import Model

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.Tracer()


def test_every_trace_target_exists():
    t = _tracer()
    try:
        t.install()
        assert t.missing == []
    finally:
        t.uninstall()


def test_isotropy_traces_one_wedge_span_per_tuple(monkeypatch):
    # `grass.isotropy.tuples` and its certified ratio count these spans
    t = _tracer()
    try:
        t.install()
        traced = grass.wedge_residue
        tuples = []

        def counting(us, **kwargs):
            tuples.append(tuple(us))
            return traced(us, **kwargs)

        monkeypatch.setattr(grass, "wedge_residue", counting)
        ok, witness = u_n_point(Model(5, "NR"), JetRing.scalar(5), 2, 1).isotropy_check()
    finally:
        monkeypatch.undo()
        t.uninstall()
    assert not ok and witness is not None
    names = {sid: name for sid, name, *_ in t.spans}
    wedges = [(parent, ok) for _, name, _, _, _, parent, _, ok in t.spans
              if name == "vseries.wedge_residue"]
    assert len(tuples) > 1
    assert len(wedges) == len(tuples)
    assert all(names[parent] == "grass.isotropy_check" for parent, _ in wedges)
    assert wedges[-1][1]  # the witness tuple's residue was certified


def test_a_traced_identity_run_counts_one_dual_per_point():
    # `grass.orthogonal.per_point` reads these spans: they count builds
    t = _tracer()
    cfg = {"curve": {"p": 2, "f": ["-1", "0", "0", "0", "0", "1"]},
           "window": [-10, 14], "flow_depth": 6, "expect": {},
           "checks": ["SIGMA_R", "MOD_R_1", "MOD_R_2", "MOD_R_3"]}
    try:
        t.install()
        reports = [cli.run(cfg), cli.run(dict(cfg, checks=["MOD_R_3", "SIGMA_R"]))]
    finally:
        t.uninstall()
    assert all(r["verdict"] == "pass" for r in reports)
    names = [name for _, name, *_ in t.spans]
    assert names.count("cli.build") == 2
    assert names.count("grass.orthogonal") == 2
    # the flow-depth retries evaluated identities more often than once a check
    assert names.count("baker.residue_identity_eval") > 5


def test_a_traced_tangent_check_makes_one_solve_and_one_rank():
    # `linalg.nullspace.per_tangent_check` and the benchmark self-test's
    # stressed tangent metrics read these spans
    t = _tracer()
    cfg = {"curve": {"p": 2, "f": ["-1", "0", "0", "0", "0", "1"]},
           "window": [-16, 26], "tangent_depth": 6, "checks": ["tangent"]}
    try:
        t.install()
        report = cli.run(cfg)
    finally:
        t.uninstall()
    assert report["checks"]["tangent"]["value"] == 2
    names = {sid: name for sid, name, *_ in t.spans}
    parents = {sid: parent for sid, _, _, _, _, parent, _, _ in t.spans}
    for target in ("linalg.nullspace", "linalg.rank_of_vectors"):
        spans = [sid for sid, name in names.items() if name == target]
        assert len(spans) == 1
        assert names[parents[spans[0]]] == "grass.tangent_orbit_dim"


def test_a_traced_bkp_gen_check_records_its_wedge():
    # the identity table calls `wedge_residue` through its module, so the
    # tracer's `vseries.wedge_residue` metrics count BKP_GEN checks too
    t = _tracer()
    cfg = {"model": {"p": 2, "case": "R"}, "point": {"type": "u_n", "n": 1, "N": -1},
           "flow_depth": 1, "checks": ["BKP_GEN"]}
    try:
        t.install()
        report = cli.run(cfg)
    finally:
        t.uninstall()
    assert report["verdict"] == "pass"
    names = [name for _, name, *_ in t.spans]
    assert names.count("vseries.wedge_residue") == 1
