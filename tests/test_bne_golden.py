"""Golden values of the best-response gaps: every gap (as float.hex), witness
(label, bid runs, seller price, buyer threshold) and deviation count of
`verify_bne` on the scripted profiles and of the grouped market's gaps, and
the `verify-eq` CSV, as the per-deviation evaluation computed them. Any
faster path must reproduce them exactly."""

import math
from dataclasses import replace

import pytest

from aftermarkets.cli import main
from aftermarkets.equilibrium import (best_response_gap,
                                      default_deviation_grid,
                                      scripted_grouped_equilibrium,
                                      scripted_lower_bound_equilibrium,
                                      verify_bne)

ROLES = ("regular", "bulk", "speculator")


def witness(gap):
    w = gap.witness
    runs = None if w.bid is None else tuple((float(b).hex(), int(c))
                                            for b, c in w.bid.runs)
    return (gap.gap.hex(), w.label, runs, w.seller_price, w.buyer_threshold,
            gap.n_deviations)


def grids(m):
    return {i: default_deviation_grid(m, role) for i, role in enumerate(ROLES)}


@pytest.mark.parametrize("m, reserve, expected", [
    (10, None, [("0x0.0p+0", "on-path", None, None, None, 1994),
                ("0x0.0p+0", "on-path", None, None, None, 1994),
                ("0x0.0p+0", "on-path", None, None, None, 1171)]),
    (100, None, [("0x0.0p+0", "on-path", None, None, None, 2227),
                 ("0x0.0p+0", "on-path", None, None, None, 2227),
                 ("0x0.0p+0", "on-path", None, None, None, 1264)]),
    (10, 0.5, [("0x0.0p+0", "on-path", None, None, None, 1994),
               ("0x0.0p+0", "on-path", None, None, None, 1994),
               ("0x1.9333333333332p+1", "bid 0.506422x1",
                (("0x1.0349be8ff327bp-1", 1),), None, None, 1171)]),
    (10, 1.0, [("0x0.0p+0", "on-path", None, None, None, 1994),
               ("0x0.0p+0", "on-path", None, None, None, 1994),
               ("0x1.a999999999999p+2", "bid 0.0x1", (), None, None, 1171)]),
])
def test_verify_bne_golden(m, reserve, expected):
    game = scripted_lower_bound_equilibrium(m, reserve=reserve)
    report = verify_bne(game, grids(m), eps=1e-6)
    assert [witness(g) for g in report.gaps] == expected


@pytest.mark.parametrize("price, expected", [
    (0.3, ("0x1.791f54d2e9d6fp-1", "price 1.0", None, 1.0, None, 1171)),
    (math.inf, ("0x1.599999999999bp+0", "price 1.0", None, 1.0, None, 1171)),
])
def test_price_deviation_witness_golden(price, expected):
    """A speculator scripted to post a bad price is best off posting 1."""
    game = scripted_lower_bound_equilibrium(10)
    acts = list(game.base_actions)
    acts[2] = replace(acts[2], seller_price=price)
    gap = best_response_gap(replace(game, base_actions=tuple(acts)), 2,
                            default_deviation_grid(10, "speculator"))
    assert witness(gap) == expected


def test_grouped_gaps_golden():
    game = scripted_grouped_equilibrium(40, 0.25)
    gaps = [witness(best_response_gap(game, i, default_deviation_grid(40, ROLES[i % 3])))
            for i in range(game.market.n)]
    per_group = [("0x0.0p+0", "on-path", None, None, None, 2152),
                 ("0x0.0p+0", "on-path", None, None, None, 2152),
                 ("0x0.0p+0", "on-path", None, None, None, 1232)]
    assert gaps == per_group * 4


def test_verify_eq_csv_golden(tmp_path):
    out = tmp_path / "eq.csv"
    assert main(["verify-eq", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "# config_hash=1b983a57ff88 seed=0 grid=agent0:levels=45 counts=28 "
        "head=((2.0, 1),) prices=0 thresholds=6",
        "agent,gap,deviations,equilibrium_utility,best_deviation",
        "0,0.0,2227,2.25,on-path",
        "1,0.0,2227,2.0012125,on-path",
        "2,0.0,1264,1.4849999999999897,on-path",
    ]
