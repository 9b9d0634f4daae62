"""Command-line driver: curve ingestion, check suites, sweeps, JSON reports.

Subcommands: check, sweep, curve-info, identity, prym-search, selftest.
Exit codes: 0 all pass, 1 any fail, 2 window-insufficient, 3 config error.
Reports are JSON with rationals rendered as "a/b" strings and cyclotomic
numbers as coefficient arrays; re-running the embedded config reproduces
the report except for the timing block.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .baker import (
    IDENTITY_TAGS,
    conn_components,
    identity_case,
    identity_key,
    residue_identity_eval,
)
from .errors import BigCellError, ConfigError, FrameError, PrymlabError, WindowError
from .grass import GrassPoint, build_frame, lines_point, u_n_point, v_minus
from .jets import JetRing
from .krichever import CurveSpec, FunctionRep, algebra_point, curve_invariants, module_point
from .scalars import Cyclo
from .vseries import Model, VSeries

CHECK_NAMES = ("chi", "gaps", "sigma", "algebra", "isotropy", "connectedness",
               "tangent") + IDENTITY_TAGS


# ----------------------------------------------------------------- serialization


def rat_text(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator) if q.denominator != 1 \
        else str(q.numerator)


def cyclo_json(c: Cyclo):
    return [rat_text(q) for q in c.coeffs]


def jsonable(x):
    if isinstance(x, Fraction):
        return rat_text(x)
    if isinstance(x, Cyclo):
        return cyclo_json(x)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


# ----------------------------------------------------------------- configuration


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def parse_config(obj: dict) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    cfg = dict(obj)
    checks = cfg.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ConfigError("config needs a nonempty 'checks' list")
    for name in checks:
        if not isinstance(name, str) or (
                name not in CHECK_NAMES and not name.startswith("CONN_")):
            raise ConfigError("unknown check %r (known: %s)" % (name, ", ".join(CHECK_NAMES)))
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
        coeffs = [Fraction(c) for c in cur["f"]]
        return CurveSpec(int(cur["p"]), coeffs)
    except (KeyError, ValueError, ZeroDivisionError) as e:
        raise ConfigError("bad curve description: %s" % e)


def build_point(cfg: dict) -> GrassPoint:
    lo, hi = cfg["window"]
    point_cfg = cfg.get("point", {"type": "algebra"})
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
    model = Model(int(model_cfg["p"]), model_cfg.get("case", "R"))
    ring = JetRing.scalar(model.p)
    if kind == "v_minus":
        return v_minus(model, ring, int(point_cfg.get("shift", 0)))
    if kind == "lines":
        return lines_point(model, ring)
    if kind == "u_n":
        return u_n_point(model, ring, int(point_cfg.get("n", 1)),
                         int(point_cfg.get("N", -1)))
    if kind == "frame":
        rows = []
        for row in point_cfg.get("rows", []):
            data = {int(k): Fraction(v) for k, v in row.items()}
            rows.append(VSeries.from_positions(
                model, ring, {k: ring.const(Cyclo.rational(model.p, v))
                              for k, v in data.items()}))
        tail = point_cfg.get("tail")
        return build_frame(model, ring, rows,
                           tail=None if tail is None else tuple(tail))
    raise ConfigError("unknown point type %r" % kind)


# ----------------------------------------------------------------- check running


def _identity_at_depths(tag: str, point: GrassPoint, depth: int, cap: int, dual):
    """(value, flow depth) at the largest flow depth up to `depth` that the
    window certifies; (None, None) if there is none."""
    for d in range(depth, 0, -1):
        try:
            return residue_identity_eval(tag, point, depth=d, cap=cap, dual=dual), d
        except WindowError:
            continue
    return None, None


def run_check(name: str, point: GrassPoint, cfg: dict, dual=None, shared=None) -> dict:
    """One check's report entry.  `shared` maps identity_key(tag) to the
    (value, flow depth) of an identity evaluated earlier in the run."""
    cap = cfg["jet_cap"]
    depth = cfg["flow_depth"]
    out = {"window": [point.stored_floor(), point.phi
                      if point.phi != float("inf") else None],
           "cap": cap}
    expect = (cfg.get("expect") or {}).get(name)
    try:
        if name == "chi":
            val = point.index_chi()
            out["value"] = val
            out["verdict"] = "pass" if expect in (None, val) else "fail"
        elif name == "gaps":
            val = point.gap_orders()
            out["value"] = val
            out["verdict"] = "pass" if expect in (None, val) else "fail"
        elif name == "sigma":
            ok = point.invariance_check()
            out["value"] = ok
            out["verdict"] = "pass" if ok == (True if expect is None else expect) else "fail"
        elif name == "algebra":
            ok = point.algebra_point_check()
            out["value"] = ok
            out["verdict"] = "pass" if ok == (True if expect is None else expect) else "fail"
        elif name == "isotropy":
            ok, witness = point.isotropy_check()
            out["value"] = ok
            if witness is not None:
                out["witness"] = list(witness)
            out["verdict"] = "pass" if ok == (True if expect is None else expect) else "fail"
        elif name == "connectedness":
            verdict = point.connectedness_check()
            out["value"] = {str(i): v for i, v in sorted(verdict.items())}
            if expect is None:
                out["verdict"] = "pass"
            else:
                out["verdict"] = "pass" if out["value"] == expect else "fail"
        elif name == "tangent":
            m_depth = cfg["tangent_depth"]
            val, stable = point.tangent_orbit_dim(m_depth, with_flag=True)
            out["value"] = val
            out["stable"] = stable
            out["depth"] = m_depth
            out["verdict"] = "pass" if expect in (None, val) else "fail"
        else:
            tag = name
            shared = {} if shared is None else shared
            key = identity_key(tag)
            if key not in shared:
                shared[key] = _identity_at_depths(tag, point, depth, cap, dual)
            val, used = shared[key]
            if val is None:
                raise WindowError("identity %s not certifiable at any flow depth "
                                  "up to %d in this window" % (tag, depth))
            zero = val.is_zero()
            out["value"] = "0" if zero else val.witness()
            out["big_cell"] = val.big_cell
            out["flow_depth"] = used
            if tag.startswith("CONN") and expect is None:
                # the connectedness residue is a dichotomy, not a law:
                # nonzero means connected, zero means split
                out["verdict"] = "pass"
            else:
                want_zero = True if expect is None else bool(expect)
                out["verdict"] = "pass" if zero == want_zero else "fail"
            out["zero"] = zero
        return out
    except WindowError as e:
        out["verdict"] = "window-insufficient"
        out["detail"] = str(e)
        return out
    except (BigCellError, FrameError) as e:
        out["verdict"] = "fail"
        out["detail"] = str(e)
        return out


def run(cfg: dict) -> dict:
    cfg = parse_config(cfg)
    t0 = time.time()
    point = build_point(cfg)
    report = {"config": {k: v for k, v in cfg.items() if k != "out"},
              "checks": {}, "timing": {"build": round(time.time() - t0, 6)}}
    order = sorted(cfg["checks"],
                   key=lambda n: (_phase(n), cfg["checks"].index(n)))
    names = list(dict.fromkeys(order))
    for n in names:
        need = "NR" if n == "connectedness" else identity_case(n)
        if need is not None and need != point.model.case:
            raise ConfigError("check %s needs the %s model; this point is %s"
                              % (n, need, point.model.case))
        if n.startswith("CONN_") and not conn_components(n, point.model.p):
            raise ConfigError("check %s names no component (CONN_i or CONN_1 .. "
                              "CONN_%d)" % (n, point.model.p))
    # every identity but BKP_GEN pairs with the dual: build it once, at
    # the first of them; a dual that cannot be built is tried once too,
    # and its error is handed to each check, which raises it
    first_pairing = next((n for n in names if _phase(n) == 2 and n != "BKP_GEN"), None)
    # SIGMA_* and MOD_*_1 are one pairing: it is evaluated once
    dual, shared = None, {}
    for n in names:
        t1 = time.time()
        if n == first_pairing:
            try:
                dual = point.orthogonal()
            except (WindowError, FrameError) as e:
                dual = e
        report["checks"][n] = run_check(n, point, cfg, dual, shared)
        report["timing"][n] = round(time.time() - t1, 6)
    report["timing"]["total"] = round(time.time() - t0, 6)
    report["verdict"] = overall_verdict(report)
    return report


def _phase(name: str) -> int:
    if name in ("chi", "gaps"):
        return 0
    if name in ("sigma", "algebra", "isotropy", "connectedness"):
        return 1
    if name == "tangent":
        return 3
    return 2


def overall_verdict(report: dict) -> str:
    verdicts = [c["verdict"] for c in report["checks"].values()]
    if any(v == "fail" for v in verdicts):
        return "fail"
    if any(v == "window-insufficient" for v in verdicts):
        return "window-insufficient"
    return "pass"


def exit_code(report: dict) -> int:
    return {"pass": 0, "fail": 1, "window-insufficient": 2}[report["verdict"]]


def sweep(cfg: dict, steps: int = 3, window_step: int = 4, cap_step: int = 1) -> dict:
    """Run the check suite over a monotone window/cap schedule."""
    cfg = parse_config(cfg)
    if steps < 1:
        raise ConfigError("a sweep needs at least one step")
    series = []
    for k in range(steps):
        sub = json.loads(json.dumps(cfg))
        lo, hi = cfg["window"]
        sub["window"] = [lo - window_step * k, hi + window_step * k]
        sub["jet_cap"] = cfg["jet_cap"] + cap_step * k
        sub["tangent_depth"] = cfg["tangent_depth"] + k
        series.append(run(sub))
    summary = {}
    for name in series[0]["checks"]:
        vals = [json.dumps(jsonable({k: v for k, v in rep["checks"][name].items()
                                     if k in ("verdict", "value")}), sort_keys=True)
                for rep in series]
        first_stable = None
        for idx in range(len(vals)):
            if all(v == vals[idx] for v in vals[idx:]):
                first_stable = idx
                break
        summary[name] = {"first_stable_step": first_stable,
                         "final": series[-1]["checks"][name].get("value")}
        flips = [
            (vals[i] != vals[i + 1])
            and series[i]["checks"][name]["verdict"] in ("pass", "fail")
            and series[i + 1]["checks"][name]["verdict"] in ("pass", "fail")
            and series[i]["checks"][name]["verdict"] != series[i + 1]["checks"][name]["verdict"]
            for i in range(len(vals) - 1)
        ]
        summary[name]["verdict_flip"] = any(flips)
    return {"steps": series, "stabilization": summary}


# ----------------------------------------------------------------- searches


def prym_search_u_n(p: int, case: str, n: int, start: int = 2,
                    floor: int = -12) -> dict:
    """Scan N downward until the witness subspace becomes isotropic."""
    model = Model(p, case)
    ring = JetRing.scalar(p)
    tried = []
    for big_n in range(start, floor - 1, -1):
        U = u_n_point(model, ring, n, big_n)
        ok, witness = U.isotropy_check()
        tried.append({"N": big_n, "isotropic": ok,
                      "witness": None if witness is None else list(witness)})
        if ok:
            return {"n": n, "threshold_N": big_n, "trace": tried}
    return {"n": n, "threshold_N": None, "trace": tried}


def prym_search_constants(cfg: dict, constants=(1, 2, 3, -1)) -> dict:
    """Isotropy of a curve point under constant rescalings of the
    trivialization.  The wedge form scales by the p-th power of the
    constant, so the verdict is invariant; the scan documents that."""
    cfg = parse_config(cfg)
    point = build_point(cfg)
    out = []
    for c in constants:
        k = Cyclo.rational(point.model.p, Fraction(c))
        scaled = point._with_rows({n: r.scale(k) for n, r in point.rows.items()})
        try:
            ok, witness = scaled.isotropy_check()
            out.append({"constant": str(c), "isotropic": ok})
        except WindowError as e:
            out.append({"constant": str(c), "verdict": "window-insufficient",
                        "detail": str(e)})
    verdicts = {o.get("isotropic") for o in out}
    return {"scan": out, "invariant_under_rescaling": len(verdicts) == 1}


# ----------------------------------------------------------------- selftest


def selftest(seed: int = 0) -> dict:
    """Quick property suites over random synthetic data."""
    import random

    from .flows import FlowCoords, jac_coord_map, prop_prym_report
    from .scalars import power_sum, root_product

    rng = random.Random(seed)
    results = {}
    ok = all(root_product(p) == Cyclo.rational(p, p) for p in (2, 3, 5, 7))
    ok = ok and all(
        power_sum(p, j) == Cyclo.rational(p, p if j % p == 0 else 0)
        for p in (2, 3, 5) for j in range(-20, 21))
    results["root_of_unity_identities"] = ok
    ok = True
    for p in (2, 3, 5):
        for case in ("R", "NR"):
            model = Model(p, case)
            ring = JetRing.with_blocks(p, {"t": 2}, 2)
            coords = {}
            for j in (1, 2):
                for i in range(1, model.ncomp + 1):
                    key = j if case == "R" else (i, j)
                    coords[key] = ring.var(rng.choice(ring.names),
                                           rng.randint(-3, 3))
            c = FlowCoords(model, ring, "cover", coords)
            g = c.element()
            ok = ok and g.sigma().comps == jac_coord_map("sigma_star", c).element().comps
            ok = ok and prop_prym_report(c)["ok"]
    results["coordinate_laws"] = ok
    ok = True
    for case, p in (("R", 2), ("NR", 2), ("R", 3)):
        model = Model(p, case)
        ring = JetRing.scalar(p)
        for _ in range(5):
            U = _random_point(rng, model, ring)
            DD = U.orthogonal().orthogonal()
            ok = ok and _frames_agree(U, DD)
            chi, chid = U.index_chi(), U.orthogonal().index_chi()
            ok = ok and (chid == (1 - chi - p if case == "R" else -chi))
    results["orthogonal_involution"] = ok
    results["ok"] = all(results.values())
    return results


def _random_point(rng, model, ring, span=6, nrows=3):
    tail_shift = rng.randint(-2, 0)
    tail = tuple(tail_shift for _ in range(model.ncomp))
    edge = min(model.pos(i + 1, t) for i, t in enumerate(tail))
    positions = list(range(edge, edge + span * model.p))
    pivots = sorted(rng.sample(positions, min(nrows, len(positions))))
    vectors = []
    for piv in pivots:
        data = {piv: ring.one()}
        for q in positions:
            if q > piv and q not in pivots and rng.random() < 0.4:
                c = Cyclo(model.p, [Fraction(rng.randint(-4, 4))
                                    for _ in range(model.p - 1)])
                if not c.is_zero():
                    data[q] = ring.const(c)
        vectors.append(VSeries.from_positions(model, ring, data))
    return build_frame(model, ring, vectors, tail=tail)


def _frames_agree(F, G):
    lo = max(F.stored_floor(), G.stored_floor())
    hi = max(F.max_pivot_bound, G.max_pivot_bound) + 1
    for n in range(lo, hi + 1):
        if F.is_pivot(n) != G.is_pivot(n):
            return False
    return all(G.membership(r) for r in F.rows.values()) and \
        all(F.membership(r) for r in G.rows.values())


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
    text = json.dumps(jsonable(report), indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors: exit code 3, one line."""

    def error(self, message):
        raise ConfigError("%s: %s" % (self.prog, message))


def main(argv=None) -> int:
    common = _Parser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON job configuration")
    common.add_argument("--window", default=argparse.SUPPRESS,
                        help="override window as lo:hi")
    common.add_argument("--jet-cap", dest="jet_cap", type=int,
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the JSON report here")
    ap = _Parser(prog="prymlab", description=__doc__, parents=[common])
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[common],
                   help="run the configured check suite")
    sp = sub.add_parser("sweep", parents=[common],
                        help="re-run under a growing window/cap schedule")
    sp.add_argument("--steps", type=int, default=3)
    sp.add_argument("--window-step", type=int, default=4)
    sp.add_argument("--cap-step", type=int, default=1)
    ci = sub.add_parser("curve-info", parents=[common],
                        help="genus, gaps and degree bookkeeping")
    ci.add_argument("--p", type=int)
    ci.add_argument("--f", help="comma-separated coefficients, constant first")
    idp = sub.add_parser("identity", parents=[common],
                         help="evaluate a single residue identity")
    idp.add_argument("tag", choices=[t for t in IDENTITY_TAGS] + [
        "CONN_%d" % k for k in range(1, 8)])
    ps = sub.add_parser("prym-search", parents=[common],
                        help="scan N for the isotropic witness family, "
                             "or constants for a curve point")
    ps.add_argument("--p", type=int, default=2)
    ps.add_argument("--case", choices=["R", "NR"], default="R")
    ps.add_argument("--n", type=int, default=1)
    ps.add_argument("--start", type=int, default=2)
    ps.add_argument("--constants", action="store_true",
                    help="scan constant rescalings of the configured point")
    st = sub.add_parser("selftest", parents=[common],
                        help="run the bundled property suites")
    st.add_argument("--seed", type=int, default=0)
    try:
        ns = ap.parse_args(argv)
        args = argparse.Namespace(config=None, window=None, jet_cap=None, out=None)
        for k, v in vars(ns).items():
            setattr(args, k, v)
        if args.command == "check":
            report = run(_load_config(args))
            _emit(report, args.out)
            return exit_code(report)
        if args.command == "sweep":
            result = sweep(_load_config(args), args.steps, args.window_step,
                           args.cap_step)
            _emit(result, args.out)
            last = result["steps"][-1]
            return exit_code(last)
        if args.command == "curve-info":
            if args.p and args.f:
                curve = _curve_from_config({"curve": {"p": args.p, "f": args.f.split(",")}})
            else:
                cfg = _load_config(args)
                curve = _curve_from_config(cfg)
            _emit(curve_invariants(curve), args.out)
            return 0
        if args.command == "identity":
            cfg = _load_config(args)
            cfg["checks"] = [args.tag]
            report = run(cfg)
            _emit(report, args.out)
            return exit_code(report)
        if args.command == "prym-search":
            if args.constants:
                result = prym_search_constants(_load_config(args))
            else:
                try:
                    result = prym_search_u_n(args.p, args.case, args.n, args.start)
                except ValueError as e:
                    raise ConfigError("bad witness family: %s" % e)
            _emit(result, args.out)
            return 0
        if args.command == "selftest":
            result = selftest(args.seed)
            _emit(result, args.out)
            return 0 if result["ok"] else 1
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
