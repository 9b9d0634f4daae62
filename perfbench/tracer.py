"""Outside-in per-layer tracing of prymlab.

`Tracer.install()` wraps the package's public functions from outside:
class methods on their class, and module functions at *every* import site
(every `prymlab.*` module attribute bound to the original function, e.g.
`grass.nullspace`, `cli.residue_identity_eval`, `krichever.build_frame`),
since a call through an unpatched alias would be missed.  `uninstall()`
puts the originals back.

Three kinds of wrapper keep the overhead bounded:

* span:  frame-level functions (build, checks, reduce, duals, solves,
  wedges, identities).  Each call appends one span
  (id, name, start, end, self seconds, parent id, job id, ok) in memory;
  `write_spans` dumps them when the run ends.
* timed: hot series / jet / scalar products.  Call count and self time
  are accumulated, no span is kept.
* count: constructors and inverses.  Call count only.

Self time is a call's wall time minus the wall time of the timed or
spanned calls nested directly inside it.  Counted calls are not timed, so
their cost stays in their caller's self time.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (layer metric stem, module, attribute or Class.method, kind)
TARGETS = (
    ("cli.build", "cli", "build_point", "span"),
    ("cli.check", "cli", "run_check", "span"),
    ("cli.prym_search", "cli", "prym_search_u_n", "span"),
    ("krichever.puiseux_expand", "krichever", "puiseux_expand", "span"),
    ("krichever.algebra_point", "krichever", "algebra_point", "span"),
    ("krichever.module_point", "krichever", "module_point", "span"),
    ("grass.reduce", "grass", "GrassPoint.reduce", "span"),
    ("grass.orthogonal", "grass", "GrassPoint.orthogonal", "span"),
    ("grass.isotropy_check", "grass", "GrassPoint.isotropy_check", "span"),
    ("grass.tangent_orbit_dim", "grass", "GrassPoint.tangent_orbit_dim", "span"),
    ("grass.build_frame", "grass", "build_frame", "span"),
    ("linalg.nullspace", "linalg", "nullspace", "span"),
    ("linalg.rank_of_vectors", "linalg", "rank_of_vectors", "span"),
    ("vseries.wedge_residue", "vseries", "wedge_residue", "span"),
    ("vseries.residue_pairing", "vseries", "residue_pairing", "span"),
    ("baker.residue_identity_eval", "baker", "residue_identity_eval", "span"),
    ("baker.baker_akhiezer", "baker", "baker_akhiezer", "span"),
    ("vseries.mul", "vseries", "VSeries.__mul__", "timed"),
    ("vseries.base_mul", "vseries", "BaseSeries.__mul__", "timed"),
    ("jets.mul", "jets", "JetPoly.__mul__", "timed"),
    ("scalars.cyclo_mul", "scalars", "Cyclo.__mul__", "timed"),
    ("vseries.construct", "vseries", "VSeries.__init__", "count"),
    ("scalars.cyclo_construct", "scalars", "Cyclo.__init__", "count"),
    ("scalars.cyclo_inverse", "scalars", "Cyclo.inverse", "count"),
)

IDENTITY_PREFIXES = ("SIGMA", "MOD", "BKP", "CONN")
CHECK_PHASES = ("sigma", "algebra", "isotropy", "identity", "tangent")
KRICHEVER_SPANS = ("puiseux_expand", "algebra_point", "module_point")
CALLS_AND_SELF = ("grass.reduce", "grass.orthogonal", "grass.build_frame",
                  "linalg.nullspace", "vseries.mul", "vseries.base_mul",
                  "vseries.wedge_residue", "jets.mul", "scalars.cyclo_mul",
                  "baker.residue_identity_eval", "baker.baker_akhiezer")
SELF_ONLY = ("grass.isotropy_check", "grass.tangent_orbit_dim",
             "linalg.rank_of_vectors", "vseries.residue_pairing")
CALLS_ONLY = ("vseries.construct", "scalars.cyclo_construct", "scalars.cyclo_inverse")
# headline shares of the traced pass time
SHARES = ("grass.reduce", "linalg.nullspace", "vseries.wedge_residue",
          "scalars.cyclo_mul", "jets.mul")


def _units():
    units = {"cli.build.s": "s", "krichever.row_coeff_bits.mean": "bits",
             "krichever.row_coeff_bits.max": "bits",
             "grass.orthogonal.per_point": "count", "grass.isotropy.tuples": "count",
             "grass.isotropy.certified_ratio": "ratio",
             "baker.residue_identity_eval.certified_ratio": "ratio",
             "linalg.nullspace.equations": "count", "linalg.nullspace.unknowns": "count",
             "linalg.nullspace.per_tangent_check": "count",
             "jets.mul.jet_calls": "count", "jets.mul.jet_share": "ratio",
             "trace.jobs_per_s.untraced": "1/s", "trace.jobs_per_s.traced": "1/s",
             "trace.overhead_ratio": "ratio"}
    for phase in CHECK_PHASES:
        units["cli.check.%s.s" % phase] = "s"
    for stem in KRICHEVER_SPANS:
        units["krichever.%s.s" % stem] = "s"
    for stem in CALLS_AND_SELF:
        units[stem + ".calls"] = "count"
        units[stem + ".self_s"] = "s"
    for stem in SELF_ONLY:
        units[stem + ".self_s"] = "s"
    for stem in CALLS_ONLY:
        units[stem + ".calls"] = "count"
    for stem in SHARES:
        units[stem + ".self_share"] = "ratio"
    return units


LAYER_UNITS = _units()


def check_phase(name: str) -> str:
    """Span name suffix of a `run_check` call: identities share one."""
    return "identity" if name.startswith(IDENTITY_PREFIXES) else name


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.nullspace_sizes = []     # (equations, unknowns) per call
        self.points = []              # built points, sized after the run
        self.job = None
        self._frames = []             # [child seconds] per open timed call
        self._span_ids = []           # ids of open spans
        self._next_id = 0
        self._saved = []              # (owner, attribute, original)
        self.missing = []             # targets not found in the program

    # ------------------------------------------------------------ wrappers

    def _timed(self, name, fn, span):
        calls, self_s, frames = self.calls, self.self_s, self._frames
        span_ids, spans = self._span_ids, self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            label = name
            if name == "cli.check":
                label = "cli.check." + check_phase(args[0])
            elif name == "jets.mul" and args[0].ring.cap:
                calls["jets.mul.jet_calls"] += 1    # beyond cap-0 boxing
            calls[label] += 1
            frame = [0.0]
            frames.append(frame)
            if span:
                sid = tracer._next_id
                tracer._next_id += 1
                parent = span_ids[-1] if span_ids else -1
                span_ids.append(sid)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                frames.pop()
                dt = t1 - t0
                own = dt - frame[0]
                self_s[label] += own
                if frames:
                    frames[-1][0] += dt
                if span:
                    span_ids.pop()
                    spans.append((sid, label, t0, t1, own, parent, tracer.job, ok))
                    if ok and name == "cli.build":
                        tracer.points.append(result)
                    elif name == "linalg.nullspace":
                        eqs = args[0]
                        tracer.nullspace_sizes.append(
                            (len(eqs) if hasattr(eqs, "__len__") else 0, args[1]))

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every target; a target the program no longer has is listed
        in `missing` and its metrics read 0."""
        modules = [m for n, m in sys.modules.items()
                   if n == "prymlab" or n.startswith("prymlab.")]
        self.missing = []
        for name, modname, attr, kind in TARGETS:
            cls_name, _, key = attr.rpartition(".")
            home = sys.modules.get("prymlab." + modname)
            owner = getattr(home, cls_name, None) if cls_name else home
            orig = vars(owner).get(key) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig, kind)
            # a method on its class under every alias (__rmul__ = __mul__),
            # a function in every module that imported it
            for site in ([owner] if cls_name else modules):
                for k, v in list(vars(site).items()):
                    if v is orig:
                        self._patch(site, k, wrapped)
        return self

    def _wrap(self, name, fn, kind):
        if kind == "count":
            return self._counted(name, fn)
        return self._timed(name, fn, span=(kind == "span"))

    def _patch(self, owner, key, value):
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    # ------------------------------------------------------------ output

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tself_s\tparent\tjob\tok\n")
            for sid, name, t0, t1, own, parent, job, ok in self.spans:
                fh.write("%d\t%s\t%.9f\t%.9f\t%.9f\t%d\t%s\t%d\n"
                         % (sid, name, t0, t1, own, parent, job, ok))

    def layer_metrics(self, pass_seconds: float, tangent_checks: int):
        """Per-layer figures of one traced pass over the workload's jobs."""
        calls, self_s = self.calls, self.self_s
        span_s = defaultdict(float)
        span_ok = defaultdict(int)
        by_id = {}
        for sid, name, t0, t1, own, parent, job, ok in self.spans:
            span_s[name] += t1 - t0
            span_ok[name] += ok
            by_id[sid] = name
        tuples = certified = 0
        for sid, name, t0, t1, own, parent, job, ok in self.spans:
            if name == "vseries.wedge_residue" and by_id.get(parent) == "grass.isotropy_check":
                tuples += 1
                certified += ok

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        m["cli.build.s"] = span_s["cli.build"]
        for phase in CHECK_PHASES:
            m["cli.check.%s.s" % phase] = span_s["cli.check." + phase]
        for stem in KRICHEVER_SPANS:
            m["krichever.%s.s" % stem] = span_s["krichever." + stem]
        bits = [b for point in self.points for b in _row_coeff_bits(point)]
        m["krichever.row_coeff_bits.mean"] = ratio(sum(bits), len(bits))
        m["krichever.row_coeff_bits.max"] = float(max(bits, default=0))
        for stem in CALLS_AND_SELF:
            m[stem + ".calls"] = calls[stem]
            m[stem + ".self_s"] = self_s[stem]
        for stem in SELF_ONLY:
            m[stem + ".self_s"] = self_s[stem]
        for stem in CALLS_ONLY:
            m[stem + ".calls"] = calls[stem]
        m["grass.orthogonal.per_point"] = ratio(calls["grass.orthogonal"], calls["cli.build"])
        m["grass.isotropy.tuples"] = tuples
        m["grass.isotropy.certified_ratio"] = ratio(certified, tuples)
        m["baker.residue_identity_eval.certified_ratio"] = ratio(
            span_ok["baker.residue_identity_eval"], calls["baker.residue_identity_eval"])
        sizes = self.nullspace_sizes
        m["linalg.nullspace.equations"] = ratio(sum(e for e, _ in sizes), len(sizes))
        m["linalg.nullspace.unknowns"] = ratio(sum(u for _, u in sizes), len(sizes))
        m["linalg.nullspace.per_tangent_check"] = ratio(calls["linalg.nullspace"], tangent_checks)
        m["jets.mul.jet_calls"] = calls["jets.mul.jet_calls"]
        m["jets.mul.jet_share"] = ratio(calls["jets.mul.jet_calls"], calls["jets.mul"])
        for stem in SHARES:
            m[stem + ".self_share"] = ratio(self_s[stem], pass_seconds)
        return m


def _row_coeff_bits(point):
    """Bit height max(|num|, den) of every nonzero rational coordinate of
    the stored rows: the operand size the arithmetic runs on."""
    for row in point.rows.values():
        for comp in row.comps:
            for jet in comp.values():
                for cyclo in jet.terms.values():
                    for q in cyclo.coeffs:
                        if q:
                            yield max(abs(q.numerator).bit_length(),
                                      q.denominator.bit_length())
