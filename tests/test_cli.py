import ast
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from prymlab.baker import residue_identity_eval, wave_solve_blocked
from prymlab.cli import (
    SEARCH_FLOOR,
    build_point,
    exit_code,
    main,
    parse_config,
    prym_search_u_n,
    run,
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


def test_a_search_starting_below_its_floor_is_a_config_error(capsys):
    # it would scan nothing and exit 0 with threshold_N null, the answer of
    # a scan that finds nothing
    _one_line_config_error(capsys, main(["prym-search", "--start",
                                         str(SEARCH_FLOOR - 1)]))
    assert [t["N"] for t in prym_search_u_n(2, "R", 1, start=SEARCH_FLOOR)["trace"]] \
        == [SEARCH_FLOOR]


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
    assert out["riemann_hurwitz_genus"] == 3


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


def _readme_subcommands():
    """The subcommand of each `prymlab <subcommand>` line of README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1] for line in block.splitlines() if line.startswith("prymlab ")]


def test_readme_cli_block_matches_the_parser(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    listed = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0].split(",")
    assert sorted(set(_readme_subcommands())) == sorted(listed)
    for sub in listed:
        with pytest.raises(SystemExit) as stop:
            main([sub, "--help"])
        assert stop.value.code == 0
    capsys.readouterr()
    # deleted run modes are usage errors
    for argv in (["sweep"], ["selftest"], ["prym-search", "--constants"]):
        _one_line_config_error(capsys, main(argv))


def test_readme_python_block_gives_the_values_it_states():
    # every expression line of the block ends in `# value`, then an
    # optional remark after two spaces or a colon
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    env, checked = {}, 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expr = compile(code, "README", "eval")
        except SyntaxError:
            exec(code, env)
            continue
        want = ast.literal_eval(comment.strip().split("  ")[0].split(":")[0])
        assert eval(expr, env) == want, line
        checked += 1
    assert checked == 4


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
    # `sweep` is no longer a subcommand: an unknown-command usage error
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
    ("expect", [1]),
    ("point", "algebra"),
    ("curve", "y2x5"),
    ("curve", {"p": 2, "f": 5}),
    ("expect", {"SIGMA_R": "false"}),   # bool("false") asked for zero
    ("expect", {"sigma": "true"}),      # True == "true" failed a true check
    ("expect", {"algebra": 1}),
    ("expect", {"isotropy": None}),
    ("expect", {"CONN_i": 0}),
    ("expect", {"chi": True}),          # True == 1 would pass chi 1
    ("expect", {"chi": 2.0}),
    ("expect", {"tangent": "2"}),
    ("expect", {"gaps": [1, "3"]}),
    ("expect", {"gaps": 1}),
    ("expect", {"connectedness": [True, True]}),
    ("expect", {"connectedness": {"1": "true", "2": True}}),
    ("curve", {"p": 2.7, "f": ["-1", "0", "0", "0", "0", "1"]}),  # would run p = 2
    ("curve", {"p": "3", "f": ["-1", "0", "0", "0", "0", "1"]}),  # would run p = 3
    ("curve", {"p": 2, "f": [-1, 0, 0, 0, 0, 1.0]}),       # would run as 1
    ("curve", {"p": 2, "f": [-1, 0, 0, 0, 0, True]}),      # would read as 1
    ("curve", {"p": 2, "f": [-1, 0, 0, 0, 0.1, 1]}),       # would hold the double 0.1
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
    from prymlab import baker

    calls = []
    evaluate = baker.residue_identity_eval

    def counting(tag, *args, **kwargs):
        calls.append(tag)
        return evaluate(tag, *args, **kwargs)

    monkeypatch.setattr(baker, "residue_identity_eval", counting)
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


def test_identity_subcommand_takes_every_conn_of_the_model(tmp_path, capsys):
    # p = 11: the parser once listed only CONN_1 .. CONN_7 and refused CONN_11
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"p": 11, "case": "NR"}, "point": {"type": "lines"},
        "jet_cap": 0, "flow_depth": 1, "checks": ["chi"]}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "r.json"),
                 "identity", "CONN_11"]) == 0
    _one_line_config_error(capsys, main(["--config", str(cfg_path), "identity",
                                         "NO_SUCH_TAG"]))


@pytest.mark.parametrize("generators", [
    [[[0, 0, "abc"]]],                                # ValueError
    [{"num": [[0, 0, "1"]], "den": [[0, 0, "0"]]}],   # ZeroDivisionError
    [[0, 0]],                                         # TypeError
    [[[0, 0, "0"]]],                                  # a zero module: chi 1, gaps []
    [[[1.5, 0, "1"]]],                                # would read as x
    [[[0, True, "1"]]],                               # would read as y
    [[[0, 0, 0.5]]],                                  # a float coefficient
])
def test_bad_module_generators_are_a_config_error(tmp_path, capsys, generators):
    path = _y2x6_config(tmp_path, point={"type": "module", "generators": generators})
    _one_line_config_error(capsys, main(["--config", path, "check"]))


@pytest.mark.parametrize("point", [
    {"type": "u_n", "n": [1]},                 # TypeError
    {"type": "v_minus", "shift": None},        # TypeError
    {"type": "frame", "rows": [{"0": "1/0"}]},  # ZeroDivisionError
    {"type": "frame", "rows": "abc"},           # rows that are not objects
    {"type": "u_n", "n": 1.5},                  # would run n = 1 and pass
    {"type": "u_n", "N": "-1"},
    {"type": "v_minus", "shift": 1.9},          # would run shift 1
    {"type": "frame", "rows": [{"0": True}]},   # would read as 1
    {"type": "frame", "rows": [{"0": "1"}], "tail": [0.5]},
    {"type": "frame", "rows": [{"2": 1, "3": 0.1}], "tail": [-5]},  # a binary double
    {"type": "frame", "rows": [{"0": 1.0}]},                         # would read as 1
])
def test_bad_synthetic_values_are_a_config_error(tmp_path, capsys, point):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"p": 2, "case": "R"}, "point": point,
                                    "checks": ["chi"]}))
    _one_line_config_error(capsys, main(["--config", str(cfg_path), "check"]))


def test_a_decimal_string_is_the_exact_rational():
    U = build_point(parse_config({"model": {"p": 2, "case": "R"}, "checks": ["chi"],
                                  "point": {"type": "frame", "tail": [-5],
                                            "rows": [{"2": 1, "3": "0.1"}]}}))
    assert U.rows[2].pos_coeff(3) == Fraction(1, 10)


@pytest.mark.parametrize("p", [2.0, "3"])  # each would run as the integer
def test_a_model_p_that_is_not_an_integer_is_a_config_error(tmp_path, capsys, p):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"p": p, "case": "R"},
                                    "point": {"type": "v_minus"}, "checks": ["chi"]}))
    _one_line_config_error(capsys, main(["--config", str(cfg_path), "check"]))


def test_timing_reports_the_build():
    report = run(y2x5_config(checks=["chi"]))
    assert set(report["timing"]) == {"build", "chi", "total"}
    assert 0 <= report["timing"]["build"] <= report["timing"]["total"]


def test_timing_lists_the_flow_depths_each_identity_tried():
    cfg = y2x5_config(window=[-10, 14], flow_depth=6, checks=["chi", "SIGMA_R", "MOD_R_1"],
                      expect={})
    report = run(cfg)
    attempts = report["timing"]["attempts"]
    assert set(attempts) == {"SIGMA_R", "MOD_R_1"}
    # one search, kept with the value: both names report it
    assert attempts["SIGMA_R"] == attempts["MOD_R_1"]
    used = report["checks"]["SIGMA_R"]["flow_depth"]
    assert [d for d, _ in attempts["SIGMA_R"]] == list(range(6, used - 1, -1))
    assert attempts["SIGMA_R"][-1] == [used, None]
    assert all(isinstance(s, int) and s > 0 for _, s in attempts["SIGMA_R"][:-1])
    # the untimed report does not change
    assert strip_timing(run(cfg)) == strip_timing(report)


def test_an_uncertifiable_identity_suggests_the_window_for_depth_1():
    # a benchmark identity job: at [-12, 14] no flow depth up to 6 certifies
    # MOD_NR_2 on y^2 = x^6 - 1
    cfg = {"curve": {"p": 2, "f": ["-1", "0", "0", "0", "0", "0", "1"]},
           "window": [-12, 14], "flow_depth": 6, "checks": ["MOD_NR_2"]}
    with pytest.raises(WindowError) as err:
        residue_identity_eval("MOD_NR_2", build_point(parse_config(cfg)), depth=1, cap=1)
    suggest = err.value.suggest
    report = run(cfg)
    check = report["checks"]["MOD_NR_2"]
    assert check["verdict"] == "window-insufficient"
    # every depth was tried, and each one's suggest is reported
    attempts = report["timing"]["attempts"]["MOD_NR_2"]
    assert [d for d, _ in attempts] == [6, 5, 4, 3, 2, 1]
    assert attempts[-1] == [1, suggest] and None not in [s for _, s in attempts]
    assert check["detail"] == (
        "identity MOD_NR_2 not certifiable at any flow depth up to 6 in this window "
        "(retry with a window extended by at least %d)" % suggest)
    # depth 1 lacked the pairing's z^-1 coefficient: a higher window has it
    wider = run(dict(cfg, window=[-12, 14 + suggest]))["checks"]["MOD_NR_2"]
    assert wider["verdict"] == "pass" and wider["flow_depth"] == 1


def test_a_refused_depth_suggests_what_its_neediest_family_needs():
    # SIGMA_NR pairs the sigma family with the dual's; at depth 3 the sigma
    # family asks for 4 more, the dual's for 15, and 4 would fail again
    cfg = {"curve": {"p": 2, "f": ["-1", "0", "0", "0", "0", "0", "1"]},
           "window": [-12, 14], "jet_cap": 2, "flow_depth": 6, "checks": ["SIGMA_NR"]}
    attempts = dict(run(cfg)["timing"]["attempts"]["SIGMA_NR"])
    assert attempts[3] == 15
    U = build_point(parse_config(cfg))
    # reach = 2 families x cap 2 x depth 3
    needs = [P.stored_floor() - min(wave_solve_blocked(P, 12))
             for P in (U.sigma_point(), U.dual())]
    assert needs == [4, 15]


def test_bkp_gen_takes_one_flow_block_per_component_at_p_7(tmp_path):
    # p = 7 once ran out of block labels and exited with a traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"p": 7, "case": "R"}, "point": {"type": "u_n", "n": 1, "N": -1},
        "flow_depth": 1, "checks": ["BKP_GEN"]}))
    out = tmp_path / "r.json"
    assert main(["--config", str(cfg_path), "--out", str(out), "check"]) == 0
    check = json.loads(out.read_text())["checks"]["BKP_GEN"]
    assert check["value"] == "0" and check["flow_depth"] == 1


def _report_window(argv, out):
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())["config"]["window"]


def test_a_negative_window_is_given_with_the_equals_form(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(y2x5_config(checks=["chi"])))
    out = tmp_path / "r.json"
    assert _report_window(["check", "--config", str(cfg_path), "--window=-8:10"],
                          out) == [-8, 10]
    # without the =, argparse reads -8:10 as an option
    _one_line_config_error(capsys, main(["check", "--config", str(cfg_path),
                                         "--window", "-8:10"]))


def test_the_parser_is_built_once(tmp_path, monkeypatch):
    from prymlab import cli

    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(y2x5_config(checks=["chi"])))
    for _ in range(2):
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "r.json"),
                     "check"]) == 0
    assert built == []


def test_the_reused_parser_keeps_no_state_between_calls(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(y2x5_config(checks=["chi"])))
    out = tmp_path / "r.json"
    assert _report_window(["check", "--config", str(cfg_path), "--window=-8:10"],
                          out) == [-8, 10]
    assert _report_window(["check", "--config", str(cfg_path)], out) == [-16, 26]
    # a flag before the subcommand is kept when none follows it
    assert _report_window(["--window=-8:10", "check", "--config", str(cfg_path)],
                          out) == [-8, 10]
    assert _report_window(["--config", str(cfg_path), "check"], out) == [-16, 26]


def test_connectedness_on_a_ramified_point_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(y2x5_config(checks=["chi", "connectedness"])))
    assert main(["--config", str(cfg_path), "check"]) == 3
    assert capsys.readouterr().err == (
        "config error: check connectedness needs the NR model; this point is R\n")


@pytest.mark.parametrize("argv", [
    ["check", "--config", "CFG"],
    ["curve-info", "--p", "2", "--f=-1,0,0,0,0,1"],
])
def test_an_unwritable_out_is_a_config_error(tmp_path, capsys, argv):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(y2x5_config(checks=["chi"])))
    argv = [str(cfg_path) if a == "CFG" else a for a in argv]
    out = tmp_path / "no-such-dir" / "r.json"
    _one_line_config_error(capsys, main(argv + ["--out", str(out)]))
