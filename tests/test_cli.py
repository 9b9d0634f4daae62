import json
import subprocess
import sys
from pathlib import Path

import pytest

from prymlab.cli import (
    exit_code,
    main,
    parse_config,
    prym_search_constants,
    prym_search_u_n,
    run,
    selftest,
    sweep,
)
from prymlab.errors import ConfigError, WindowError
from prymlab.grass import GrassPoint


def y2x5_config(**extra):
    cfg = {
        "curve": {"p": 2, "f": ["-1", "0", "0", "0", "0", "1"]},
        "point": {"type": "algebra"},
        "window": [-16, 26],
        "jet_cap": 1,
        "flow_depth": 4,
        "tangent_depth": 6,
        "checks": ["chi", "gaps", "sigma", "algebra", "tangent"],
        "expect": {"chi": -1, "gaps": [1, 3], "tangent": 2},
    }
    cfg.update(extra)
    return cfg


def strip_timing(report):
    return {k: v for k, v in report.items() if k != "timing"}


def test_run_y2x5():
    report = run(y2x5_config())
    assert report["verdict"] == "pass"
    assert report["checks"]["chi"]["value"] == -1
    assert report["checks"]["gaps"]["value"] == [1, 3]
    assert report["checks"]["tangent"]["value"] == 2
    assert report["checks"]["tangent"]["stable"]
    assert exit_code(report) == 0


def test_run_with_identities():
    cfg = y2x5_config(checks=["chi", "SIGMA_R", "MOD_R_3"])
    report = run(cfg)
    assert report["verdict"] == "pass"
    assert report["checks"]["SIGMA_R"]["zero"] is True


def test_run_is_deterministic():
    a = strip_timing(run(y2x5_config()))
    b = strip_timing(run(y2x5_config()))
    assert json.dumps(a, sort_keys=True, default=str) == \
        json.dumps(b, sort_keys=True, default=str)


def test_failing_expectation_sets_exit_code():
    cfg = y2x5_config(expect={"chi": 0})
    cfg["checks"] = ["chi"]
    report = run(cfg)
    assert report["verdict"] == "fail" and exit_code(report) == 1


def test_config_errors():
    with pytest.raises(ConfigError):
        parse_config({"checks": []})
    with pytest.raises(ConfigError):
        parse_config({"checks": ["chi"], "window": [3, 1],
                      "curve": {"p": 2, "f": ["1"]}})
    with pytest.raises(ConfigError):
        parse_config({"checks": ["nonsense"], "curve": {}})


def test_synthetic_point_checks():
    cfg = {
        "model": {"p": 2, "case": "NR"},
        "point": {"type": "lines"},
        "window": [-8, 8],
        "checks": ["chi", "sigma", "connectedness", "tangent", "CONN_i"],
        "expect": {"chi": 2,
                   "connectedness": {"1": True, "2": True},
                   "tangent": 0,
                   "CONN_i": True},
        "tangent_depth": 5,
    }
    report = run(cfg)
    assert report["verdict"] == "pass", report["checks"]


def test_u_n_search():
    result = prym_search_u_n(2, "R", 1, start=2)
    assert result["threshold_N"] == -1
    result_nr = prym_search_u_n(2, "NR", 1, start=2)
    assert result_nr["threshold_N"] == -1


def test_constant_rescaling_scan():
    cfg = y2x5_config(checks=["chi"])
    res = prym_search_constants(cfg)
    assert res["invariant_under_rescaling"]


def test_sweep_stabilizes():
    cfg = y2x5_config(checks=["chi", "tangent"], window=[-16, 26])
    result = sweep(cfg, steps=2, window_step=2, cap_step=0)
    summ = result["stabilization"]
    assert summ["chi"]["first_stable_step"] == 0
    assert not summ["chi"]["verdict_flip"]
    assert summ["tangent"]["final"] == 2


def test_selftest():
    result = selftest(0)
    assert result["ok"]


def test_main_entry(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(y2x5_config(checks=["chi", "gaps"])))
    out_path = tmp_path / "report.json"
    code = main(["--config", str(cfg_path), "--out", str(out_path), "check"])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["verdict"] == "pass"
    assert report["checks"]["gaps"]["value"] == [1, 3]


def test_main_bad_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"checks": []}))
    assert main(["--config", str(cfg_path), "check"]) == 3
    assert main(["check"]) == 3


def test_main_curve_info(capsys):
    code = main(["curve-info", "--p", "3", "--f=-1,0,0,0,1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["genus"] == 3 and out["case"] == "R"


def test_main_identity(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(y2x5_config(checks=["chi"])))
    code = main(["--config", str(cfg_path), "identity", "MOD_R_3"])
    assert code == 0


def test_console_script_help():
    # run from src/, so the package imports whether or not it is installed
    proc = subprocess.run([sys.executable, "-m", "prymlab.cli", "--help"],
                          capture_output=True, text=True,
                          cwd=Path(__file__).resolve().parents[1] / "src")
    assert proc.returncode == 0
    assert "prym-search" in proc.stdout


def _one_line_config_error(capsys, code):
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("config error:")


def test_check_for_the_other_model_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "curve": {"p": 2, "f": ["-1", "0", "0", "0", "0", "1"]},
        "checks": ["SIGMA_NR"]}))
    _one_line_config_error(capsys, main(["--config", str(cfg_path), "check"]))


def test_bad_synthetic_point_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"p": 2, "case": "R"},
        "point": {"type": "u_n", "n": 0, "N": -1},
        "checks": ["chi"]}))
    _one_line_config_error(capsys, main(["--config", str(cfg_path), "check"]))


def test_usage_error_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(y2x5_config(checks=["chi"])))
    # exit 2 would read as window-insufficient
    _one_line_config_error(
        capsys, main(["--config", str(cfg_path), "--parallel", "2", "check"]))
    _one_line_config_error(capsys, main(["no-such-command"]))
    _one_line_config_error(
        capsys, main(["--config", str(cfg_path), "sweep", "--steps", "0"]))


@pytest.mark.parametrize("key,value", [
    ("tangent_depth", 0),      # would report tangent 0 as a pass
    ("flow_depth", 0),         # would read as window-insufficient
    ("jet_cap", "x"),
    ("jet_cap", -1),
    ("window", ["a", "b"]),
    ("window", [-12.5, 14]),   # would be cut to -12
    ("checks", "chi"),
])
def test_bad_numeric_config_is_a_config_error(tmp_path, capsys, key, value):
    cfg_path = tmp_path / "cfg.json"
    cfg = y2x5_config(checks=["chi", "tangent"])
    cfg[key] = value
    cfg_path.write_text(json.dumps(cfg))
    _one_line_config_error(capsys, main(["--config", str(cfg_path), "check"]))


def _count_duals(monkeypatch, fail=False):
    calls = []
    orthogonal = GrassPoint.orthogonal

    def counting(self):
        calls.append(self)
        if fail:
            raise WindowError("no dual in this window")
        return orthogonal(self)

    monkeypatch.setattr(GrassPoint, "orthogonal", counting)
    return calls


def _dual_config():
    # flow depth 6 is more than this window certifies: SIGMA_R and MOD_R_2
    # retry at smaller depths
    return y2x5_config(window=[-10, 14], flow_depth=6,
                       checks=["SIGMA_R", "MOD_R_2", "MOD_R_3"], expect={})


def test_identity_checks_share_one_dual(monkeypatch):
    calls = _count_duals(monkeypatch)
    report = run(_dual_config())
    used = [c["flow_depth"] for c in report["checks"].values()]
    assert report["verdict"] == "pass" and min(used) < 6
    assert len(calls) == 1


def test_bkp_gen_builds_no_dual(monkeypatch):
    calls = _count_duals(monkeypatch)
    report = run({"model": {"p": 2, "case": "R"},
                  "point": {"type": "u_n", "n": 1, "N": -1},
                  "flow_depth": 4, "checks": ["BKP_GEN"]})
    assert report["verdict"] == "pass"
    assert calls == []


def test_a_dual_that_cannot_be_built_is_reported_per_check(monkeypatch):
    calls = _count_duals(monkeypatch, fail=True)
    report = run(_dual_config())
    for name, check in report["checks"].items():
        assert check["verdict"] == "window-insufficient"
        assert check["detail"] == ("identity %s not certifiable at any flow depth "
                                   "up to 6 in this window" % name)
    # one attempt, before the first identity; every check reuses its error
    assert len(calls) == 1


def test_sigma_and_mod_1_are_evaluated_once(monkeypatch):
    import prymlab.cli as cli

    calls = []
    evaluate = cli.residue_identity_eval

    def counting(tag, *args, **kwargs):
        calls.append(tag)
        return evaluate(tag, *args, **kwargs)

    monkeypatch.setattr(cli, "residue_identity_eval", counting)
    # flow depth 6 is more than the window certifies: the pairing retries
    cfg = y2x5_config(window=[-10, 14], flow_depth=6, checks=["SIGMA_R"], expect={})
    alone = run(cfg)["checks"]["SIGMA_R"]
    once = len(calls)
    assert alone["flow_depth"] < 6 and once > 1
    calls.clear()
    cfg["checks"] = ["SIGMA_R", "MOD_R_1"]
    cfg["expect"] = {"MOD_R_1": False}
    report = run(cfg)
    assert len(calls) == once
    both = report["checks"]
    assert both["SIGMA_R"] == alone
    # each name keeps its own expectation
    assert {k: v for k, v in both["MOD_R_1"].items() if k != "verdict"} == \
        {k: v for k, v in alone.items() if k != "verdict"}
    assert both["MOD_R_1"]["verdict"] == "fail"


def test_shared_pairing_reports_each_name_when_uncertifiable(monkeypatch):
    _count_duals(monkeypatch, fail=True)
    cfg = _dual_config()
    cfg["checks"] = ["MOD_R_1", "SIGMA_R"]
    report = run(cfg)
    for name in ("MOD_R_1", "SIGMA_R"):
        assert report["checks"][name]["detail"] == (
            "identity %s not certifiable at any flow depth up to 6 in this window" % name)


def _y2x6_config(tmp_path, **extra):
    cfg = {"curve": {"p": 2, "f": ["-1", "0", "0", "0", "0", "0", "1"]},
           "window": [-10, 14], "checks": ["chi"]}
    cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("tag", ["CONN_5", "CONN_0", "CONN_x", "CONN_+1", "CONN_"])
def test_conn_outside_the_components_is_a_config_error(tmp_path, capsys, tag):
    # p = 2: CONN_5 used to report value "0" and pass
    path = _y2x6_config(tmp_path, checks=[tag])
    _one_line_config_error(capsys, main(["--config", path, "check"]))


def test_identity_subcommand_checks_the_conn_range(tmp_path, capsys):
    path = _y2x6_config(tmp_path)
    _one_line_config_error(capsys, main(["--config", path, "identity", "CONN_7"]))
    assert main(["--config", path, "--out", str(tmp_path / "r.json"),
                 "identity", "CONN_2"]) == 0


@pytest.mark.parametrize("generators", [
    [[[0, 0, "abc"]]],                                # ValueError
    [{"num": [[0, 0, "1"]], "den": [[0, 0, "0"]]}],   # ZeroDivisionError
    [[0, 0]],                                         # TypeError
])
def test_bad_module_generators_are_a_config_error(tmp_path, capsys, generators):
    path = _y2x6_config(tmp_path, point={"type": "module", "generators": generators})
    _one_line_config_error(capsys, main(["--config", path, "check"]))


@pytest.mark.parametrize("point", [
    {"type": "u_n", "n": [1]},                 # TypeError
    {"type": "v_minus", "shift": None},        # TypeError
    {"type": "frame", "rows": [{"0": "1/0"}]},  # ZeroDivisionError
])
def test_bad_synthetic_values_are_a_config_error(tmp_path, capsys, point):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"p": 2, "case": "R"}, "point": point,
                                    "checks": ["chi"]}))
    _one_line_config_error(capsys, main(["--config", str(cfg_path), "check"]))


def test_timing_reports_the_build():
    report = run(y2x5_config(checks=["chi"]))
    assert set(report["timing"]) == {"build", "chi", "total"}
    assert 0 <= report["timing"]["build"] <= report["timing"]["total"]
