"""Seeded job generator for the four benchmark workloads.

A workload is a fixed list of slots; the seed fills in each slot's free
parameters (coefficient signs, dense coefficients, witness indices,
order) but never its shape (prime, model, degree, window, check list).
Per-job cost is set by the shape, so different seeds give the same cost
profile and the same mix of verdicts, and the figures of two seeds are
comparable.

Each job is a dict with an `id` and either a `config` (for `check`) or
`search` parameters (for `prym-search`).  The program only ever sees the
generated configs.

Measured single-job costs (pure CPython 3.11, one core of a 2-vCPU VM)
are noted in each workload; they set how many slots fit in one round.
Dense jobs grow about 4x per +2 of window depth, non-ramified jobs cost
3-10x their ramified neighbours, and a sparse b*x term costs 1.5-3x.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("tangent-sparse", "tangent-dense", "identities", "wedge-p5p7")

CURVE_SUITE = ["chi", "gaps", "sigma", "algebra", "tangent"]

# named fixtures of the north star; fixed across seeds
Y2_X5 = {"p": 2, "f": ["-1", "0", "0", "0", "0", "1"]}
Y3_X4 = {"p": 3, "f": ["-1", "0", "0", "0", "1"]}
Y2_X6 = {"p": 2, "f": ["-1", "0", "0", "0", "0", "0", "1"]}
GENUS9 = {"p": 3, "f": ["1", "2", "0", "-1", "0", "0", "0", "3", "0", "0", "1"]}
Y5_ISO = {"p": 5, "f": ["1", "0", "1", "1"]}

# the line bundle of the module points: span of 1 and y/(x-1)
LINE_BUNDLE = {"type": "module", "generators": [
    {"num": [[0, 0, "1"]]},
    {"num": [[0, 1, "1"]], "den": [[1, 0, "1"], [0, 0, "-1"]]},
]}


# ---------------------------------------------------------------- polynomials


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymod(a, b):
    a = _trim(a)
    b = _trim(b)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[i + shift] -= q * c
        a = _trim(a)
    return a


def squarefree(f) -> bool:
    """gcd(f, f') is a constant, over Q."""
    a = [Fraction(c) for c in f]
    b = [Fraction(i * c) for i, c in enumerate(a)][1:]
    while _trim(b):
        a, b = b, _polymod(a, b)
    return len(_trim(a)) == 1


def _text(coeffs):
    return [str(c) for c in coeffs]


def sparse_curve(rng, p, d, size, extra=False):
    """y^p = x^d + a (+ b x) with |a| = size and b = +-1.

    The seed picks the signs only.  The magnitude comes from the round
    (see `generate`) and the extra term sits at x: both move the cost,
    and the seed must not."""
    f = [0] * (d + 1)
    f[d] = 1
    f[0] = rng.choice((-size, size))
    if extra:
        f[1] = rng.choice((-1, 1))
        if not squarefree(f):
            f[1] = -f[1]
    if not squarefree(f):
        raise ValueError("no squarefree sparse curve for %r" % f)
    return {"p": p, "f": _text(f)}


def dense_curve(rng, p, d):
    """y^p = f with f monic squarefree, lower coefficients in [-3, 3]."""
    while True:
        f = [rng.randint(-3, 3) for _ in range(d)] + [1]
        if f[0] != 0 and squarefree(f):
            return {"p": p, "f": _text(f)}


# ---------------------------------------------------------------- job records


def check_job(jid, config):
    return {"id": jid, "config": config}


def curve_job(jid, curve, window=None, tangent_depth=None, checks=None):
    cfg = {"curve": curve, "point": {"type": "algebra"},
           "checks": list(checks or CURVE_SUITE)}
    if window is not None:
        cfg["window"] = list(window)
    if tangent_depth is not None:
        cfg["tangent_depth"] = tangent_depth
    return check_job(jid, cfg)


def witness_job(jid, p, case, n, big_n, checks, **extra):
    cfg = {"model": {"p": p, "case": case},
           "point": {"type": "u_n", "n": n, "N": big_n},
           "checks": list(checks)}
    cfg.update(extra)
    return check_job(jid, cfg)


def search_job(jid, p, case, n, start):
    return {"id": jid, "search": {"p": p, "case": case, "n": n, "start": start}}


# ---------------------------------------------------------------- workloads


def tangent_sparse(rng, size):
    """Fixture traffic: full suites on sparse y^p = x^d + a (+ b x).

    Ranges: p in {2, 3} in both models, genus 2-9, pole depths 8 to 64
    (12 is the CLI default).  Eleven of the 40 jobs use CLI defaults, as
    users submit them; the genus-9 fixture and the genus 4-6 slots among
    them have a default window or tangent depth that is too small, which
    gives the seed's known wrong values.
    """
    jobs = [
        curve_job("y2x5-default", Y2_X5),                       # 0.04 s
        curve_job("y3x4-default", Y3_X4),                       # 0.05 s
        curve_job("y2x6-default", Y2_X6),                       # 0.17 s
        curve_job("genus9-default", GENUS9),                    # 0.06 s
        curve_job("y2x5-deep", Y2_X5, (-64, 90), 10),           # 1.7 s
        curve_job("genus9-certified", GENUS9, (-30, 40), 18),   # 0.5 s
    ]
    default_slots = [(2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (3, 7),
                     (2, 8)]                                    # 0.02-0.2 s
    for p, d in default_slots:
        jobs.append(curve_job("p%d-d%d-default" % (p, d), sparse_curve(rng, p, d, size)))
    window_slots = [
        # (p, d, b-term, window, tangent depth)
        (2, 5, False, (-16, 24), 8), (2, 7, True, (-16, 24), 8),    # 0.07-0.1 s
        (2, 9, False, (-16, 24), 8), (2, 9, True, (-16, 24), 8),
        (2, 5, False, (-24, 36), 8), (2, 7, False, (-24, 36), 8),   # 0.2-0.3 s
        (2, 9, True, (-24, 36), 8),
        (3, 4, False, (-16, 24), 8), (3, 5, True, (-16, 24), 8),    # 0.1-0.2 s
        (3, 7, False, (-16, 24), 8), (3, 4, True, (-16, 24), 8),
        (3, 4, False, (-18, 27), 8), (3, 5, False, (-18, 27), 8),   # 0.12-0.18 s,
        (3, 4, True, (-18, 27), 8), (3, 5, True, (-18, 27), 8),     # around the
        (2, 7, True, (-20, 30), 8), (3, 10, False, (-22, 32), 8),   # median
        (3, 4, False, (-24, 36), 8), (3, 5, False, (-24, 36), 8),   # 0.3 s
        (2, 6, False, (-12, 18), 6), (2, 8, False, (-12, 18), 6),   # 0.2 s
        (2, 6, False, (-16, 24), 8), (2, 8, False, (-16, 24), 8),   # 0.4-0.55 s,
        (3, 4, False, (-24, 36), 8),                                # near p90
        (3, 10, False, (-20, 28), 8), (3, 10, False, (-24, 36), 12),  # 0.1-0.2 s
        (3, 6, False, (-8, 12), 6),                                 # 0.4 s
    ]
    for p, d, extra, window, depth in window_slots:
        jid = "p%d-d%d%s-w%d" % (p, d, "b" if extra else "", -window[0])
        jobs.append(curve_job(jid, sparse_curve(rng, p, d, size, extra), window, depth))
    return jobs


def tangent_dense(rng, size):
    """The same suites on random dense f, coefficients in [-3, 3].

    p = 2 in both models and p = 3 ramified at the default and one deeper
    window; p = 3 non-ramified only at a small window (it costs 5-7 s at
    the default window and 4x more per +2 of depth).  The p = 2 degree-7
    jobs at [-14, 20] carry the heaviest nullspace share.  Costs: 0.1 s
    at the default window, 0.14-0.19 s at [-14, 20] (the median falls in
    this block), 0.3 s at [-16, 24], 0.5 s for p = 3 non-ramified (where
    p90 falls) and 0.9 s for the non-ramified sextic.
    """
    slots = [
        # (p, d, window, tangent depth, copies)
        (2, 5, None, None, 2), (2, 7, None, None, 2),
        (3, 4, None, None, 2), (3, 5, None, None, 2),
        (2, 5, (-14, 20), 8, 2), (2, 7, (-14, 20), 8, 4),
        (3, 4, (-14, 20), 8, 2), (3, 5, (-14, 20), 8, 2),
        (2, 7, (-16, 24), 8, 1), (3, 6, (-6, 10), 6, 3), (2, 6, None, None, 1),
    ]
    jobs = []
    for p, d, window, depth, count in slots:
        for k in range(count):
            jid = "dense-p%d-d%d-%s-%d" % (p, d, "w%d" % -window[0] if window else "default", k)
            jobs.append(curve_job(jid, dense_curve(rng, p, d), window, depth))
    return jobs


def identities(rng, size):
    """Residue identities at jet caps 1-2 with flow depths above what the
    window certifies, so the retry loop runs.

    Algebra points of sparse curves (SIGMA, MOD_1-3, CONN_i), line-bundle
    module points with generators {1, y/(x-1)} next to their direct
    subspace checks, and BKP_GEN + isotropy on witness points u_n at
    p in {2, 3}, both models, N in {-1, 0}.  Costs: witnesses 0.01-0.03 s
    (0.15 s for p = 3 non-ramified), ramified points 0.06-0.12 s at cap 1
    and 0.2 s at cap 2, non-ramified points 0.25-0.65 s.  The ramified
    cap-1 block is the middle of the cost range, where the median falls.
    """
    ram = ["SIGMA_R", "MOD_R_1", "MOD_R_2", "MOD_R_3"]
    nonram = ["SIGMA_NR", "MOD_NR_1", "MOD_NR_2", "MOD_NR_3", "CONN_i"]
    direct_r = ["sigma", "algebra"]
    direct_nr = ["sigma", "algebra", "connectedness"]
    slots = [
        # (kind, p, d, cap, copies)
        ("alg", 2, 5, 1, 2), ("alg", 3, 4, 1, 2), ("alg", 2, 6, 1, 1),
        ("alg", 2, 5, 2, 1), ("alg", 3, 4, 2, 1), ("alg", 2, 6, 2, 1),
        ("mod", 2, 5, 1, 2), ("mod", 2, 5, 2, 2), ("mod", 2, 6, 1, 1), ("mod", 2, 6, 2, 1),
    ]
    jobs = []
    for kind, p, d, cap, copies in slots:
        for k in range(copies):
            curve = sparse_curve(rng, p, d, size)
            nr = d % p == 0
            if kind == "alg":
                cfg = {"curve": curve, "point": {"type": "algebra"},
                       "checks": list(nonram if nr else ram), "flow_depth": 6 if p == 2 else 5}
            else:
                cfg = {"curve": curve, "point": LINE_BUNDLE, "flow_depth": 4,
                       "checks": (direct_nr + nonram) if nr else (direct_r + ram)}
            cfg["jet_cap"] = cap
            jobs.append(check_job("%s-p%d-d%d-cap%d-%d" % (kind, p, d, cap, k), cfg))
    for p in (2, 3):
        for case in ("R", "NR"):
            for big_n in (-1, 0):
                jobs.append(witness_job("wit-p%d-%s-N%d" % (p, case, big_n), p, case,
                                        rng.choice((1, 2)), big_n,
                                        ["isotropy", "BKP_GEN"], jet_cap=1, flow_depth=4))
    return jobs


def wedge_p5p7(rng, size):
    """p >= 5 wedge forms: the home of the p!-term cofactor determinant.

    p = 5 prym-search scans (0.5 s, about 300 wedges each), non-isotropic
    p = 7 witnesses at N in {0, 1} (0.06 s non-ramified at N = 0, else
    0.3-0.6 s), p = 5 single witness checks around the threshold
    (5-15 ms), and p = 5 curve isotropy on y^5 = 1+x^2+x^3
    (window-insufficient at the seed).  The six cheap p = 7 checks keep
    the median among them rather than on the edge of the 5-15 ms block.
    Left out for size: isotropic p = 7 scans (125-170 s), p = 5 curve
    isotropy at [-20, 30] (13 s) and p = 7 at [-14, 22] (49 s).
    """
    jobs = []
    for case in ("R", "NR"):
        for k in range(2):
            jobs.append(search_job("scan-p5-%s-%d" % (case, k), 5, case,
                                   rng.choice((1, 2)), 2))
    for case, big_n in (("R", 0), ("R", 1), ("NR", 1)):
        for k in range(2):
            jobs.append(witness_job("wit-p7-%s-N%d-%d" % (case, big_n, k), 7, case,
                                    rng.choice((1, 2, 3)), big_n, ["isotropy"]))
    # n follows the round like the sparse constant terms: the cost of this
    # block moves with n, so three rounds hold the same costs for any seed
    for k in range(6):
        jobs.append(witness_job("wit-p7-NR-N0-%d" % k, 7, "NR", size, 0, ["isotropy"]))
    for case in ("R", "NR"):
        for big_n in (-1, 0, 1):
            for k in range(2):
                jobs.append(witness_job("wit-p5-%s-N%d-%d" % (case, big_n, k), 5, case,
                                        rng.choice((1, 2, 3)), big_n, ["isotropy"]))
    for window in ((-10, 14), (-12, 18)):
        jobs.append(curve_job("y5-iso-w%d" % -window[0], Y5_ISO, window,
                              checks=["chi", "gaps", "sigma", "isotropy"]))
    return jobs


GENERATORS = {
    "tangent-sparse": tangent_sparse,
    "tangent-dense": tangent_dense,
    "identities": identities,
    "wedge-p5p7": wedge_p5p7,
}

# a tiny job per workload, fixed across seeds, run once before timing
WARMUP = {
    "tangent-sparse": curve_job("warmup", Y2_X5),
    "tangent-dense": curve_job("warmup", Y2_X5),
    "identities": witness_job("warmup", 2, "R", 1, -1, ["isotropy", "BKP_GEN"]),
    "wedge-p5p7": witness_job("warmup", 5, "R", 1, -1, ["isotropy"]),
}


def generate(workload: str, seed: int, round_no: int = 0):
    """Round `round_no` of the workload for this seed (deterministic).

    Every round fills the same slots with fresh parameters, so a run that
    loops over rounds sees more distinct instances of each slot; the named
    fixtures are the same in every round.  `size` is 1, 2, 3 in rounds
    0, 1, 2 (and so on); it sets the parameters that move the cost most, so
    three rounds hold the same multiset of costs whatever the seed."""
    if workload not in GENERATORS:
        raise KeyError("unknown workload %r (known: %s)" % (workload, ", ".join(WORKLOADS)))
    rng = random.Random("%s:%d:%d" % (workload, seed, round_no))
    jobs = GENERATORS[workload](rng, 1 + round_no % 3)
    rng.shuffle(jobs)
    seen = {}
    for job in jobs:
        seen[job["id"]] = seen.get(job["id"], 0) + 1
        suffix = "" if seen[job["id"]] == 1 else "-%d" % seen[job["id"]]
        job["id"] = "r%d-%s%s" % (round_no, job["id"], suffix)
    return jobs
