"""Closed-form oracle for `prymlab check` and `prym-search` reports.

Reports are judged on each check's `verdict` and `value` only, so that
new report fields (timing, stats, attempts) never break the oracle.

Every check gets one status:

* ``ok``           certified value agrees with the closed form;
* ``wrong``        certified value contradicts it;
* ``uncertified``  verdict `window-insufficient`;
* ``unjudged``     certified, but no closed form exists (curve isotropy).

A ``wrong`` status also says whether it falls in a documented seed defect
class (``known``).  Known defects are still counted as wrong; they only
keep a run's `correct` flag from tripping on errors the seed is known to
make.  The classes are narrow and keyed on the input, not the output:

* ``shallow-window``: chi or gaps on a curve point whose window pole depth
  ``-lo`` is below ``2g - 1``, the largest possible gap, and only in the
  direction that gaps are missed (chi too high, fewer than g gaps);
* ``tangent-undercount``: a tangent value below the genus, the silent
  row-dropping failure of the orbit-tangent solver (fewer rows than the
  true system, so never an overcount).
"""

from __future__ import annotations

from fractions import Fraction

OK, WRONG, UNCERTIFIED, UNJUDGED = "ok", "wrong", "uncertified", "unjudged"

RAMIFIED_IDENTITIES = ("SIGMA_R", "MOD_R_1", "MOD_R_2", "MOD_R_3")
NONRAMIFIED_IDENTITIES = ("SIGMA_NR", "MOD_NR_1", "MOD_NR_2", "MOD_NR_3")


def curve_genus(p: int, f) -> int:
    """Riemann-Hurwitz genus of y^p = f(x), f squarefree of degree d."""
    d = len(f) - 1
    if d % p:
        return (p - 1) * (d - 1) // 2
    return (p - 1) * (d - 2) // 2


def degree(f) -> int:
    coeffs = [Fraction(c) for c in f]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return len(coeffs) - 1


class Judgement:
    __slots__ = ("check", "status", "known", "detail")

    def __init__(self, check, status, known=False, detail=""):
        self.check = check
        self.status = status
        self.known = known
        self.detail = detail

    def __repr__(self):
        return "Judgement(%s, %s%s%s)" % (
            self.check, self.status, ", known" if self.known else "",
            ", " + self.detail if self.detail else "")


def _is_zero(value) -> bool:
    return value == "0"


def judge_check_report(cfg: dict, report: dict):
    """Judge every check of a `check` report against the closed forms."""
    checks = report.get("checks", {})
    point = cfg.get("point", {"type": "algebra"})
    kind = point.get("type", "algebra")
    out = []
    for name in cfg["checks"]:
        res = checks.get(name)
        if res is None:
            out.append(Judgement(name, WRONG, detail="missing from report"))
            continue
        if res.get("verdict") == "window-insufficient":
            out.append(Judgement(name, UNCERTIFIED))
            continue
        if "curve" in cfg and kind == "algebra":
            out.append(_judge_curve(name, res.get("value"), cfg))
        elif "curve" in cfg and kind == "module":
            out.append(_judge_module(name, res.get("value"), checks))
        elif kind == "u_n":
            out.append(_judge_witness(name, res.get("value"), point))
        else:
            out.append(Judgement(name, UNJUDGED, detail="no oracle for %s" % kind))
    return out


def _verdict(name, good, known=False, detail=""):
    if good:
        return Judgement(name, OK)
    return Judgement(name, WRONG, known=known, detail=detail)


def _judge_curve(name, value, cfg):
    p = int(cfg["curve"]["p"])
    f = cfg["curve"]["f"]
    d = degree(f)
    g = curve_genus(p, f[: d + 1])
    lo = cfg.get("window", [-12, 14])[0]
    shallow = -lo < 2 * g - 1
    nonramified = d % p == 0
    if name == "chi":
        return _verdict(name, value == 1 - g,
                        known=shallow and isinstance(value, int) and value > 1 - g,
                        detail="chi %s, closed form %d" % (value, 1 - g))
    if name == "gaps":
        good = (isinstance(value, list) and len(value) == g
                and len(set(value)) == g and all(0 < x <= 2 * g - 1 for x in value))
        known = (shallow and isinstance(value, list) and len(value) < g)
        return _verdict(name, good, known=known,
                        detail="%s gaps, genus %d" % (
                            len(value) if isinstance(value, list) else value, g))
    if name in ("sigma", "algebra"):
        return _verdict(name, value is True)
    if name == "tangent":
        return _verdict(name, value == g,
                        known=isinstance(value, int) and value < g,
                        detail="tangent %s, genus %d" % (value, g))
    if name == "connectedness":
        good = (nonramified and isinstance(value, dict)
                and len(value) == p and not any(value.values()))
        return _verdict(name, good)
    if name in RAMIFIED_IDENTITIES + NONRAMIFIED_IDENTITIES:
        return _verdict(name, _is_zero(value), detail="identity residue %s" % value)
    if name.startswith("CONN"):
        return _verdict(name, not _is_zero(value),
                        detail="connectedness residue vanished on a connected curve")
    return Judgement(name, UNJUDGED, detail="no closed form for %s on curves" % name)


def _judge_module(name, value, checks):
    """Identity verdicts must agree with the direct subspace checks of the
    same report.  Generated module points are spanned by 1 and sigma
    eigenfunctions (y/(x-1)), so 1 lies in U, U is sigma-invariant, and
    MOD_*_3 must vanish.  The ring and idempotent checks have no closed
    form here; they are the reference the identities are held to."""
    def direct(check):
        res = checks.get(check)
        if res is None or res.get("verdict") == "window-insufficient":
            return None
        return res.get("value")

    if name == "sigma":
        return _verdict(name, value is True)
    if name in ("algebra", "connectedness"):
        return Judgement(name, UNJUDGED, detail="direct check on a module point")
    base = name.replace("_NR", "").replace("_R", "")
    if base in ("SIGMA", "MOD_1"):
        want = direct("sigma")
    elif base == "MOD_3":
        want = True
    elif base == "MOD_2":
        want = direct("algebra")
    elif name.startswith("CONN"):
        conn = direct("connectedness")
        want = None if conn is None else all(conn.values())
    else:
        want = None
    if want is None:
        return Judgement(name, UNJUDGED, detail="direct check missing")
    zero = _is_zero(value)
    return _verdict(name, zero == bool(want),
                    detail="identity zero=%s, direct check %s" % (zero, want))


def _judge_witness(name, value, point):
    isotropic = int(point.get("N", -1)) <= -1
    if name == "isotropy":
        return _verdict(name, value is isotropic,
                        detail="isotropy %s at N=%s" % (value, point.get("N")))
    if name == "BKP_GEN":
        return _verdict(name, _is_zero(value) == isotropic,
                        detail="BKP residue %s at N=%s" % (value, point.get("N")))
    return Judgement(name, UNJUDGED, detail="no closed form for %s on witnesses" % name)


def judge_search_report(report: dict):
    """`prym-search` witness scan: isotropic exactly when N <= -1, so the
    downward scan stops at threshold -1."""
    trace = report.get("trace", [])
    good = report.get("threshold_N") == -1 and bool(trace) and all(
        t.get("isotropic") is (t["N"] <= -1) for t in trace)
    return [_verdict("threshold", good,
                     detail="threshold %s" % report.get("threshold_N"))]
