"""Window monotonicity: a value certified at a window equals the value at a
larger window.

Each case runs one `cli.run` config at two windows, the second holding the
first.  A check whose entry is not `window-insufficient` at the smaller
window must be certified at the larger one with the same value.  A case
that breaks the rule on today's code is a strict xfail naming its ROADMAP
item; the PR that fixes the item removes its mark.
"""

import pytest

from prymlab.cli import run

GENUS9 = {"p": 3, "f": [1, 2, 0, -1, 0, 0, 0, 3, 0, 0, 1]}
LINE_BUNDLE = {"type": "module", "generators": [
    {"num": [[0, 0, "1"]]},
    {"num": [[0, 1, "1"]], "den": [[1, 0, "1"], [0, 0, "-1"]]},
]}


def certified(cfg, window):
    """{check: value} of the checks `run` certifies at `window`."""
    report = run(dict(cfg, window=window))
    return {name: entry.get("value") for name, entry in report["checks"].items()
            if entry["verdict"] != "window-insufficient"}


def monotone(cfg, small, large):
    """The checks certified at `small` whose value at `large` differs or is
    not certified there, as {check: (value at small, value at large)}."""
    at_large = certified(cfg, large)
    return {name: (value, at_large.get(name, "window-insufficient"))
            for name, value in certified(cfg, small).items()
            if at_large.get(name, "window-insufficient") != value}


CASES = [
    pytest.param({"curve": {"p": 2, "f": [-1, 0, 0, 0, 0, 1]}, "checks": ["chi", "gaps"]},
                 [-12, 14], [-16, 20], id="y2x5-chi-gaps"),
    pytest.param({"curve": GENUS9, "checks": ["chi", "gaps"]}, [-12, 14], [-30, 40],
                 id="item1-genus9-chi-gaps",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP item 1: pivots are asserted full below the window; chi -6 "
                     "with 7 gaps at [-12, 14], -8 with 9 gaps at [-30, 40]"))),
    pytest.param({"curve": GENUS9, "checks": ["tangent"], "tangent_depth": 28},
                 [-30, 40], [-38, 56], id="item2-genus9-tangent-28",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP item 2: tangent rows that leave the window are dropped; "
                     "4 at [-30, 40], 9 at [-38, 56]"))),
    pytest.param({"curve": {"p": 2, "f": [3, 0, 1, 0, 0, 1]}, "point": LINE_BUNDLE,
                  "checks": ["chi"]}, [-12, 14], [-12, 18], id="item9-module-chi",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP item 9: a residual dropped as zero keeps phi; chi 0 at "
                     "[-12, 14], 1 at [-12, 18]"))),
]


@pytest.mark.parametrize("cfg,small,large", CASES)
def test_a_certified_value_survives_a_larger_window(cfg, small, large):
    assert certified(cfg, small), "the smaller window certifies nothing to compare"
    assert monotone(cfg, small, large) == {}

