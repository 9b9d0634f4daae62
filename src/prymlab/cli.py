"""Command-line driver: curve ingestion, check suites, JSON reports.

Subcommands: check, curve-info, identity, prym-search.
Exit codes: 0 all pass, 1 any fail, 2 window-insufficient, 3 config error.
Reports hold only JSON numbers, bools, strings, lists, objects and nulls
(an identity witness is jet text); re-running the embedded config
reproduces the report except for the timing block.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .baker import IDENTITIES, certified_identity, identity
from .errors import ConfigError, FrameError, PrymlabError, WindowError
from .grass import GrassPoint, build_frame, lines_point, u_n_point, v_minus
from .jets import JetRing
from .krichever import (CurveSpec, FunctionRep, algebra_point, curve_invariants, module_point,
                        rational_from_json)
from .vseries import Model, VSeries


# ----------------------------------------------------------------- configuration


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _as_int(x, name: str) -> int:
    """x if it is a JSON integer, else a config error (1.5 is never cut to 1)."""
    if not _is_int(x):
        raise ConfigError("%s must be an integer, not %s" % (name, json.dumps(x)))
    return x


# the JSON type a pinned expectation must have, as (test, description);
# every check not named here takes a JSON boolean
_EXPECT_TYPES = {
    "chi": (_is_int, "an integer"),
    "tangent": (_is_int, "an integer"),
    "gaps": (lambda x: isinstance(x, list) and all(_is_int(v) for v in x),
             "a list of integers"),
    "connectedness": (lambda x: isinstance(x, dict)
                      and all(isinstance(v, bool) for v in x.values()),
                      "an object of true/false values"),
}
_BOOL_EXPECT = (lambda x: isinstance(x, bool), "true or false")


def parse_config(obj: dict) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    cfg = dict(obj)
    checks = cfg.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ConfigError("config needs a nonempty 'checks' list")
    for name in checks:
        if not isinstance(name, str) or not _known(name):
            raise ConfigError("unknown check %r (known: %s)"
                              % (name, ", ".join(tuple(CHECKS) + tuple(IDENTITIES))))
    for key in ("curve", "point", "expect"):
        if cfg.get(key) is not None and not isinstance(cfg[key], dict):
            raise ConfigError("%s must be a JSON object" % key)
    for name, want in (cfg.get("expect") or {}).items():
        test, what = _EXPECT_TYPES.get(name, _BOOL_EXPECT)
        if not test(want):
            raise ConfigError("expect[%r] must be %s, not %s"
                              % (name, what, json.dumps(want)))
    window = cfg.get("window", [-12, 14])
    if not (isinstance(window, (list, tuple)) and len(window) == 2
            and all(_is_int(w) for w in window) and window[0] < window[1]):
        raise ConfigError("window must be [lo, hi) with integers lo < hi")
    cfg["window"] = list(window)
    for key, default, least in (("jet_cap", 1, 0), ("flow_depth", 4, 1),
                                ("tangent_depth", 6, 1)):
        cfg.setdefault(key, default)
        if not _is_int(cfg[key]) or cfg[key] < least:
            raise ConfigError("%s must be an integer >= %d" % (key, least))
    if "curve" not in cfg and "point" not in cfg:
        raise ConfigError("config needs a 'curve' or a synthetic 'point'")
    return cfg


def _curve_from_config(cfg) -> CurveSpec:
    cur = cfg["curve"]
    try:
        coeffs = [rational_from_json(c) for c in cur["f"]]
        return CurveSpec(_as_int(cur["p"], "curve.p"), coeffs)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ConfigError("bad curve description: %s" % e)


def build_point(cfg: dict) -> GrassPoint:
    lo, hi = cfg["window"]
    point_cfg = cfg.get("point") or {"type": "algebra"}
    kind = point_cfg.get("type", "algebra")
    if "curve" in cfg and kind in ("algebra", "module"):
        if lo > 0:
            raise ConfigError("curve points need a window with lo <= 0 (rows of "
                              "pole depth -lo)")
        curve = _curve_from_config(cfg)
        if kind == "algebra":
            return algebra_point(curve, -lo, hi)
        try:
            gens = [FunctionRep.from_json(g) for g in point_cfg.get("generators", [])]
            if gens:
                return module_point(curve, gens, -lo, hi)
        except (TypeError, ValueError, ZeroDivisionError) as e:
            raise ConfigError("bad module generators: %s" % e)
        raise ConfigError("module point needs generators")
    model_cfg = cfg.get("model")
    if not model_cfg:
        raise ConfigError("synthetic points need a 'model' entry")
    try:
        return _synthetic_point(kind, point_cfg, model_cfg)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ConfigError("bad %s point: %s" % (kind, e))


def _synthetic_point(kind: str, point_cfg: dict, model_cfg: dict) -> GrassPoint:
    model = Model(_as_int(model_cfg["p"], "model.p"), model_cfg.get("case", "R"))
    ring = JetRing.scalar(model.p)
    if kind == "v_minus":
        return v_minus(model, ring, _as_int(point_cfg.get("shift", 0), "point.shift"))
    if kind == "lines":
        return lines_point(model, ring)
    if kind == "u_n":
        return u_n_point(model, ring, _as_int(point_cfg.get("n", 1), "point.n"),
                         _as_int(point_cfg.get("N", -1), "point.N"))
    if kind == "frame":
        rows = []
        for row in point_cfg.get("rows", []):
            if not isinstance(row, dict):
                raise TypeError("frame rows must be position -> rational objects")
            data = {int(k): rational_from_json(v) for k, v in row.items()}
            rows.append(VSeries.from_positions(model, ring, data))
        tail = point_cfg.get("tail")
        tail = None if tail is None else tuple(_as_int(t, "point.tail entry") for t in tail)
        return build_frame(model, ring, rows, tail=tail)
    raise ConfigError("unknown point type %r" % kind)


# ----------------------------------------------------------------- check running


def _isotropy(point: GrassPoint, cfg: dict, out: dict):
    ok, witness = point.isotropy_check()
    if witness is not None:
        out["witness"] = list(witness)
    return ok


def _tangent(point: GrassPoint, cfg: dict, out: dict):
    val = point.tangent_orbit_dim(cfg["tangent_depth"])
    out["depth"] = cfg["tangent_depth"]
    return val


# check name -> (phase, default expectation, evaluate(point, cfg, report
# entry) -> value); a None expectation passes any value.  Checks run by
# phase; every residue identity is a phase-2 row (`_row`).
CHECKS = {
    "chi": (0, None, lambda point, cfg, out: point.index_chi()),
    "gaps": (0, None, lambda point, cfg, out: point.gap_orders()),
    "sigma": (1, True, lambda point, cfg, out: point.invariance_check()),
    "algebra": (1, True, lambda point, cfg, out: point.algebra_point_check()),
    "isotropy": (1, True, _isotropy),
    "connectedness": (1, None, lambda point, cfg, out: {
        str(i): v for i, v in sorted(point.connectedness_check().items())}),
    "tangent": (3, None, _tangent),
}


def _known(name: str) -> bool:
    """Whether `name` is a check or an identity tag, whatever the model."""
    try:
        return name in CHECKS or identity(name) is not None
    except ValueError:
        return False


def _row(name: str, point: GrassPoint) -> tuple:
    """The row of check `name`.  An identity's value is "0" or its witness
    at the deepest certified flow depth, and its verdict is decided on
    whether it vanishes; ValueError if it does not apply to the point."""
    if name == "connectedness" and point.model.case != "NR":
        raise ValueError("check connectedness needs the NR model; this point is %s"
                         % point.model.case)
    if name in CHECKS:
        return CHECKS[name]

    def evaluate(point, cfg, out):
        val, used, _ = certified_identity(name, point, cfg["flow_depth"], cfg["jet_cap"])
        zero = val.is_zero()
        out.update(value="0" if zero else val.witness(), big_cell=val.big_cell,
                   flow_depth=used, zero=zero)
        return zero

    return 2, identity(name, point.model).expect, evaluate


def run_check(name: str, row: tuple, point: GrassPoint, cfg: dict) -> dict:
    """The report entry of check `name`, whose row (`_row`) is `row`."""
    out = {"window": [point.stored_floor(), point.phi
                      if point.phi != float("inf") else None],
           "cap": cfg["jet_cap"]}
    expect = (cfg.get("expect") or {}).get(name)
    _, default, evaluate = row
    try:
        got = evaluate(point, cfg, out)
    except (WindowError, FrameError) as e:
        out["verdict"] = "window-insufficient" if isinstance(e, WindowError) else "fail"
        out["detail"] = str(e)
        return out
    out.setdefault("value", got)
    want = default if expect is None else expect
    out["verdict"] = "pass" if want is None or got == want else "fail"
    return out


def _attempts(name: str, point: GrassPoint, cfg: dict):
    """The flow depths identity `name` tried, from the point's memo."""
    try:
        return certified_identity(name, point, cfg["flow_depth"], cfg["jet_cap"])[2]
    except (WindowError, FrameError) as e:
        return getattr(e, "attempts", None)  # none after a FrameError


def run(cfg: dict) -> dict:
    cfg = parse_config(cfg)
    t0 = time.perf_counter()
    point = build_point(cfg)
    report = {"config": {k: v for k, v in cfg.items() if k != "out"},
              "checks": {}, "timing": {"build": round(time.perf_counter() - t0, 6)}}
    rows = {}
    for n in dict.fromkeys(cfg["checks"]):
        try:
            rows[n] = _row(n, point)
        except ValueError as e:
            raise ConfigError(str(e))
    # by phase, and in the config's order within a phase
    for n, row in sorted(rows.items(), key=lambda item: item[1][0]):
        t1 = time.perf_counter()
        report["checks"][n] = run_check(n, row, point, cfg)
        report["timing"][n] = round(time.perf_counter() - t1, 6)
        if n not in CHECKS:
            report["timing"].setdefault("attempts", {})[n] = _attempts(n, point, cfg)
    report["timing"]["total"] = round(time.perf_counter() - t0, 6)
    report["verdict"] = overall_verdict(report)
    return report


def overall_verdict(report: dict) -> str:
    verdicts = [c["verdict"] for c in report["checks"].values()]
    if any(v == "fail" for v in verdicts):
        return "fail"
    if any(v == "window-insufficient" for v in verdicts):
        return "window-insufficient"
    return "pass"


def exit_code(report: dict) -> int:
    return {"pass": 0, "fail": 1, "window-insufficient": 2}[report["verdict"]]


# ----------------------------------------------------------------- searches


# the lowest N a witness scan tries
SEARCH_FLOOR = -12


def prym_search_u_n(p: int, case: str, n: int, start: int = 2) -> dict:
    """Scan N from `start` down to `SEARCH_FLOOR` until the witness
    subspace becomes isotropic; a start below the floor is a config error."""
    if start < SEARCH_FLOOR:
        raise ConfigError("--start %d is below the scan floor %d" % (start, SEARCH_FLOOR))
    model = Model(p, case)
    ring = JetRing.scalar(p)
    tried = []
    for big_n in range(start, SEARCH_FLOOR - 1, -1):
        U = u_n_point(model, ring, n, big_n)
        ok, witness = U.isotropy_check()
        tried.append({"N": big_n, "isotropic": ok,
                      "witness": None if witness is None else list(witness)})
        if ok:
            return {"n": n, "threshold_N": big_n, "trace": tried}
    return {"n": n, "threshold_N": None, "trace": tried}


# ----------------------------------------------------------------- entry point


def _load_config(args) -> dict:
    if not args.config:
        raise ConfigError("--config is required for this subcommand")
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError("cannot read config: %s" % e)
    if args.window:
        try:
            lo, hi = args.window.split(":")
            cfg["window"] = [int(lo), int(hi)]
        except ValueError:
            raise ConfigError("--window expects lo:hi")
    if args.jet_cap is not None:
        cfg["jet_cap"] = args.jet_cap
    return cfg


def _emit(report: dict, out_path):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise ConfigError("cannot write report: %s" % e)
    else:
        print(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors: exit code 3, one line."""

    def error(self, message):
        raise ConfigError("%s: %s" % (self.prog, message))


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON job configuration")
    common.add_argument("--window", default=argparse.SUPPRESS,
                        help="override the window: --window=lo:hi (with the =, "
                        "since lo is usually negative)")
    common.add_argument("--jet-cap", dest="jet_cap", type=int,
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the JSON report here")
    ap = _Parser(prog="prymlab", description=__doc__, parents=[common])
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[common],
                   help="run the configured check suite")
    ci = sub.add_parser("curve-info", parents=[common],
                        help="genus, gaps and degree bookkeeping")
    ci.add_argument("--p", type=int)
    ci.add_argument("--f", help="comma-separated coefficients, constant first")
    idp = sub.add_parser("identity", parents=[common],
                         help="evaluate a single residue identity")
    idp.add_argument("tag", help="identity tag, e.g. MOD_R_3 or CONN_<k>; "
                     "validated like a check name in the config")
    ps = sub.add_parser("prym-search", parents=[common],
                        help="scan N for the isotropic witness family")
    ps.add_argument("--p", type=int, default=2)
    ps.add_argument("--case", choices=["R", "NR"], default="R")
    ps.add_argument("--n", type=int, default=1)
    ps.add_argument("--start", type=int, default=2)
    return ap


# built once per process: parsing leaves no state in it
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        ns = _PARSER.parse_args(argv)
        args = argparse.Namespace(config=None, window=None, jet_cap=None, out=None)
        for k, v in vars(ns).items():
            setattr(args, k, v)
        if args.command in ("check", "identity"):
            cfg = _load_config(args)
            if args.command == "identity":
                cfg["checks"] = [args.tag]
            report = run(cfg)
            _emit(report, args.out)
            return exit_code(report)
        if args.command == "curve-info":
            if args.p and args.f:
                curve = _curve_from_config({"curve": {"p": args.p, "f": args.f.split(",")}})
            else:
                cfg = _load_config(args)
                curve = _curve_from_config(cfg)
            _emit(curve_invariants(curve), args.out)
            return 0
        if args.command == "prym-search":
            try:
                result = prym_search_u_n(args.p, args.case, args.n, args.start)
            except ValueError as e:
                raise ConfigError("bad witness family: %s" % e)
            _emit(result, args.out)
            return 0
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 3
    except WindowError as e:
        print("window insufficient: %s" % e, file=sys.stderr)
        return 2
    except PrymlabError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
