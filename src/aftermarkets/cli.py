"""Command-line audits and sweeps.

Subcommands: lower-bound-sweep, grouped-sweep, posted-fails, balanced-fix,
smooth-audit, verify-eq, symmetric-fpa. Options are read from an INI file
(--config, one section per subcommand, unknown keys rejected) with
per-command defaults; results are written as CSV with a provenance comment
line. Each command is a function of (opts, seed, tol) that does no I/O: it
returns its rows, its grid label and its failure record (None when the
guarantee holds). `main` alone writes the provenance comment
(`# config_hash=... seed=... grid=...`) and the CSV, to --out or stdout, and
exits with status 2 and a JSON record on stderr when a guarantee is violated
or a config value is bad (malformed file, unknown key, or a ValueError
while the command runs; no CSV is written then).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import sys
from typing import Optional, Sequence

from .aftermarket import ResaleSpec, SignalProtocol, ThresholdBuyer
from .balanced import (balanced_reserve, static_price, welfare_guarantee_audit)
from .combined import (Mechanism, Quadrature, Strategy, expected_optimal_welfare,
                       expected_outcome)
from .distributions import Uniform
from .equilibrium import (default_deviation_grid, scripted_grouped_equilibrium,
                          scripted_lower_bound_equilibrium, symmetric_fpa_check,
                          verify_bne)
from .smoothness import (ONE_MINUS_INV_E, CheckDomain, SingleItemFirstPrice,
                         SmoothnessCertificate, check_smooth,
                         fpa_deviation_generator, poa_bound)
from .valuations import lower_bound_market, posted_fails_market

DEFAULTS = {
    "lower-bound-sweep": {"ms": "10,100,10000"},
    "grouped-sweep": {"m": "1000", "gammas": "0.5,0.2,0.1"},
    "posted-fails": {"eps": "0.01", "h": "1000"},
    "balanced-fix": {"m": "100"},
    "smooth-audit": {"resolution": "2000", "lam": str(ONE_MINUS_INV_E),
                     "mu": "1.0", "values": "1.0,0.1", "bids": "0.0,0.3,0.6,0.9"},
    "verify-eq": {"m": "100", "reserve": ""},
    "symmetric-fpa": {"lo": "0.0", "hi": "1.0", "samples": "20000"},
}


def _load_config(command: str, path: Optional[str]) -> dict:
    opts = dict(DEFAULTS[command])
    if path:
        parser = configparser.ConfigParser()
        with open(path) as fh:
            parser.read_file(fh)
        if parser.has_section(command):
            for key, value in parser.items(command):
                if key not in opts:
                    raise ValueError(
                        f"unknown config key {key!r} in section [{command}]")
                opts[key] = value
    return opts


def _config_hash(command: str, opts: dict, seed: int) -> str:
    blob = json.dumps([command, sorted(opts.items()), seed], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _list(s: str, kind: type = float) -> list:
    items = [kind(x) for x in s.split(",") if x.strip()]
    if not items:
        raise ValueError(f"empty list {s!r}")
    return items


def _write_csv(out: Optional[str], header_comment: str, rows: list[dict]) -> None:
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        fh.write(header_comment + "\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out:
            fh.close()


def _fail(record: dict) -> int:
    json.dump(record, sys.stderr)
    sys.stderr.write("\n")
    return 2


# -- commands --------------------------------------------------------------

# a command's rows, grid label and failure record (None when the guarantee
# holds); `main` writes them
Result = tuple[list[dict], str, Optional[dict]]

# the speculation market's E[OPT] rule: `cells` already cuts at every segment
# end, 1.0 (where z's segments meet, and A's Uniform(1, 1.5) starts) included
SPECULATION_QUAD = Quadrature(subdivide=1)


def _lower_bound_row(m: int) -> dict:
    game = scripted_lower_bound_equilibrium(m)
    ev = game.evaluator()
    eq_welfare = ev.expected_welfare()
    opt = expected_optimal_welfare(game.market, SPECULATION_QUAD)
    return {"m": m, "eq_welfare": eq_welfare, "opt_welfare": opt,
            "ratio": opt / eq_welfare,
            "speculator_utility": ev.expected_utility(2)}


def _grouped_row(m: int, gamma: float) -> dict:
    game = scripted_grouped_equilibrium(m, gamma)
    ev = game.evaluator()
    eq_welfare = ev.expected_welfare()
    k = len(game.market.groups)
    r = m // k
    # per-group optimum; groups are independent and identical
    opt = k * expected_optimal_welfare(lower_bound_market(r), SPECULATION_QUAD)
    return {"m": m, "gamma": gamma, "groups": k, "group_size": r,
            "eq_welfare": eq_welfare, "opt_welfare": opt,
            "ratio": opt / eq_welfare}


def cmd_lower_bound_sweep(opts: dict, seed: int, tol: float) -> Result:
    return [_lower_bound_row(m) for m in _list(opts["ms"], int)], f"ms:{opts['ms']}", None


def cmd_grouped_sweep(opts: dict, seed: int, tol: float) -> Result:
    m = int(opts["m"])
    return ([_grouped_row(m, g) for g in _list(opts["gammas"])],
            f"gammas:{opts['gammas']}", None)


def posted_fails_summary(eps: float, H: float) -> dict:
    """The single-item market where every posted-price combined market loses
    almost all welfare while the balanced static price does not."""
    market = posted_fails_market(eps, H)
    opt = expected_optimal_welfare(market, Quadrature(subdivide=2))
    # scripted combined play: buyer 1 always takes the posted item and
    # resells at the top of buyer 2's support
    top = H / eps
    strategies = (
        Strategy(posted_buy=lambda val, price, left: 1, seller_price=top),
        Strategy(buyer=ThresholdBuyer()),
    )
    mech = Mechanism("posted", posted_price=0.5 / (1.0 - eps),
                     posted_order=(0, 1))
    resale = ResaleSpec.single(0, (1,))
    res = expected_outcome(market, mech,
                           SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT,
                           resale, strategies, Quadrature(subdivide=2))
    # balanced static posted price, truthful demand, no resale
    bal_price = static_price(1.0, 1.0, opt)  # m = 1
    bal_mech = Mechanism("posted", posted_price=bal_price, posted_order=(1, 0))
    bal = expected_outcome(market, bal_mech,
                           SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT,
                           None, (Strategy(), Strategy()), Quadrature(subdivide=2))
    return {"eps": eps, "H": H, "scripted_welfare": res.welfare,
            "opt_welfare": opt, "ratio": opt / res.welfare,
            "balanced_price": bal_price, "balanced_welfare": bal.welfare}


def cmd_posted_fails(opts: dict, seed: int, tol: float) -> Result:
    row = posted_fails_summary(float(opts["eps"]), float(opts["h"]))
    audit = welfare_guarantee_audit(row["balanced_welfare"], row["opt_welfare"],
                                    tol=tol)
    failure = None if audit.ok else {"error": "balanced welfare guarantee violated",
                                     "welfare": audit.expected_welfare,
                                     "bound": audit.bound}
    return [row], "single", failure


def cmd_balanced_fix(opts: dict, seed: int, tol: float) -> Result:
    m = int(opts["m"])
    base = scripted_lower_bound_equilibrium(m)
    reserve = balanced_reserve(base.market, SPECULATION_QUAD)
    opt = expected_optimal_welfare(base.market, SPECULATION_QUAD)
    game = scripted_lower_bound_equilibrium(m, reserve=reserve)
    wel = game.evaluator().expected_welfare()
    audit = welfare_guarantee_audit(wel, opt, tol=tol)
    row = {"m": m, "reserve": reserve, "eq_welfare": wel, "opt_welfare": opt,
           "bound": audit.bound, "ok": audit.ok}
    failure = None if audit.ok else {"error": "welfare below half of expected optimum",
                                     "welfare": wel, "bound": audit.bound}
    return [row], "single", failure


def cmd_smooth_audit(opts: dict, seed: int, tol: float) -> Result:
    lam, mu = float(opts["lam"]), float(opts["mu"])
    poa = poa_bound(lam, mu)  # a bad lambda or mu exits before the check runs
    values = tuple(_list(opts["values"]))
    bids = tuple(_list(opts["bids"]))
    cert = SmoothnessCertificate(lam, mu,
                                 fpa_deviation_generator(int(opts["resolution"])))
    game = SingleItemFirstPrice(len(values))
    domain = CheckDomain((values,), tuple(bids for _ in values))
    report = check_smooth(game, cert, domain)
    # the most the discretized deviation can lose against the continuum
    bound = ONE_MINUS_INV_E * max(values) / int(opts["resolution"])
    ok = report.passes(tol)
    row = {"lam": lam, "mu": mu, "min_slack": report.min_slack,
           "discretization_bound": bound,
           "profiles_checked": report.n_profiles_checked,
           "poa_bound": poa, "ok": ok}
    failure = None if ok else {"error": "smoothness certificate violated",
                               "min_slack": report.min_slack,
                               "worst_actions": list(report.worst_actions)}
    return [row], f"bids:{opts['bids']}", failure


def cmd_verify_eq(opts: dict, seed: int, tol: float) -> Result:
    m = int(opts["m"])
    reserve = float(opts["reserve"]) if opts["reserve"].strip() else None
    game = scripted_lower_bound_equilibrium(m, reserve=reserve)
    grids = {0: default_deviation_grid(m, "regular"),
             1: default_deviation_grid(m, "bulk"),
             2: default_deviation_grid(m, "speculator")}
    report = verify_bne(game, grids, eps=tol)
    rows = [{"agent": i, "gap": g.gap, "deviations": g.n_deviations,
             "equilibrium_utility": g.equilibrium_utility,
             "best_deviation": g.witness.label}
            for i, g in enumerate(report.gaps)]
    failure = None if report.verdict else {"error": "profile is not an eps-equilibrium",
                                           "max_gap": report.max_gap, "eps": tol}
    return rows, report.grid_description.split(";")[0], failure


def cmd_symmetric_fpa(opts: dict, seed: int, tol: float) -> Result:
    dist = Uniform(float(opts["lo"]), float(opts["hi"]))
    report = symmetric_fpa_check(dist, samples=int(opts["samples"]), seed=seed)
    row = {"gap": report.gap, "efficiency": report.efficiency,
           "max_payment_residual": report.max_payment_residual,
           "bid_table_error": report.bid_table_error,
           "samples": report.n_samples}
    failure = None if report.passes(max(tol, 1e-9)) else {
        "error": "symmetric bid profile failed the check",
        "gap": report.gap, "efficiency": report.efficiency,
        "max_payment_residual": report.max_payment_residual}
    return [row], f"samples:{opts['samples']}", failure


COMMANDS = {
    "lower-bound-sweep": cmd_lower_bound_sweep,
    "grouped-sweep": cmd_grouped_sweep,
    "posted-fails": cmd_posted_fails,
    "balanced-fix": cmd_balanced_fix,
    "smooth-audit": cmd_smooth_audit,
    "verify-eq": cmd_verify_eq,
    "symmetric-fpa": cmd_symmetric_fpa,
}


def _tolerance(text: str) -> float:
    """A --tol value: a number >= 0. argparse exits 2 on anything else,
    a negative number or NaN included."""
    tol = float(text)
    if not tol >= 0:
        raise argparse.ArgumentTypeError(f"must be a number >= 0, not {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aftermarkets",
        description="Audits and sweeps for auctions with aftermarkets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="INI file with a [%s] section" % name)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="CSV output path (stdout)")
        p.add_argument("--tol", type=_tolerance, default=1e-6)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _load_config(args.command, args.config)
    except Exception as exc:  # malformed config file, or an unknown key
        return _fail({"error": "bad config", "detail": str(exc)})
    try:
        rows, grid, failure = COMMANDS[args.command](opts, args.seed, args.tol)
    except ValueError as exc:  # a config value the command cannot use
        return _fail({"error": "bad config", "detail": str(exc)})
    comment = (f"# config_hash={_config_hash(args.command, opts, args.seed)} "
               f"seed={args.seed} grid={grid}")
    _write_csv(args.out, comment, rows)
    return _fail(failure) if failure else 0


if __name__ == "__main__":
    sys.exit(main())
