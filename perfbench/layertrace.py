"""Per-layer tracing from outside the library.

`Tracer` wraps, for the duration of a `with` block, every module-level
function of the library's layer modules plus the methods listed in
`METHODS`, and restores the originals on exit. No library source is edited.

The modules import functions from each other by name (`combined` calls its
own binding of `uniform_price`, `equilibrium` its binding of `_run_auction`),
so each function is rebound in every `aftermarkets` module namespace that
holds it, the package namespace included. Methods are wrapped on the
base class and on every subclass that overrides them (`Uniform.partial_mean`,
`PointMass.cdf`).

Per wrapped name the tracer records calls, busy time (wall time while at
least one call of the name is running) and self time (each call's duration
minus the part its traced child calls cover). Generator functions are
counted by the items they yield.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "aftermarkets"
LAYERS = ("distributions", "valuations", "auctions", "aftermarket",
          "allocation", "combined", "equilibrium", "smoothness", "balanced")

# (module, class, method, key): the method is wrapped on the class and on
# every subclass that overrides it; calls are recorded under `key`.
METHODS = [("distributions", "UnitDistribution", name, f"distributions.{name}")
           for name in ("segments", "cdf", "quantile", "partial_mean", "cells")]
METHODS += [
    ("valuations", "HeadTailModel", "realize", "valuations.realize"),
    ("valuations", "HeadTailModel", "value_vec", "valuations.value_vec"),
    ("valuations", "HeadTailModel", "count_ge_vec", "valuations.count_ge_vec"),
    ("equilibrium", "ConstantActionEvaluator", "expected_utility",
     "equilibrium.expected_utility"),
    ("equilibrium", "ConstantActionEvaluator", "expected_welfare",
     "equilibrium.expected_welfare"),
    ("equilibrium", "CombinedTabularGame", "utility",
     "equilibrium.CombinedTabularGame.utility"),
    ("smoothness", "SmoothableGame", "utilities_and_revenue",
     "smoothness.utilities_and_revenue"),
    ("smoothness", "FiniteDist", "expect", "smoothness.expect"),
    ("smoothness", "SmoothnessCertificate", "deviation", "smoothness.deviation"),
]

# counters summed from return values
RESULT_COUNTERS = {
    "equilibrium.best_response_gap":
        ("equilibrium.deviations", lambda r: r.n_deviations),
    "equilibrium.best_response_dynamics":
        ("equilibrium.brd_iterations", lambda r: sum(r.iterations)),
    "smoothness.check_smooth":
        ("smoothness.profiles_checked", lambda r: r.n_profiles_checked),
}

# calls of `key` made while a call of `parent` is running
NESTED = {"equilibrium.expected_utility": "equilibrium.CombinedTabularGame.utility"}

CALLS, BUSY, SELF, DEPTH = range(4)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[float] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _rec(self, key: str) -> list:
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0])

    def _wrap(self, fn, key: str):
        rec, stack, clock = self._rec(key), self._stack, time.perf_counter
        counters = self.counters
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                rec[CALLS] += 1
                for item in fn(*args, **kwargs):
                    counters[key + ".yields"] = counters.get(key + ".yields", 0) + 1
                    yield item
            return gen_wrapper
        counter = RESULT_COUNTERS.get(key)
        parent = self._rec(NESTED[key]) if key in NESTED else None
        nested_key = f"{key}.under.{NESTED[key]}" if key in NESTED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if parent is not None and parent[DEPTH]:
                counters[nested_key] = counters.get(nested_key, 0) + 1
            rec[DEPTH] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[DEPTH] -= 1
                rec[CALLS] += 1
                rec[SELF] += dt - stack.pop()
                if not rec[DEPTH]:
                    rec[BUSY] += dt
                if stack:
                    stack[-1] += dt
            if counter is not None:
                name, get = counter
                counters[name] = counters.get(name, 0) + get(result)
            return result
        return wrapper

    # -- installing --------------------------------------------------------

    def _set(self, owner, name: str, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self):
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in list(vars(mod).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                wrapped = self._wrap(fn, f"{layer}.{name}")
                for ns in namespaces:
                    for alias, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, alias, wrapped)
        for layer, cls_name, meth, key in METHODS:
            base = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            for cls in [base] + _subclasses(base):
                if meth in cls.__dict__:
                    self._set(cls, meth, self._wrap(cls.__dict__[meth], key))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        return False

    # -- reading -----------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0,))[CALLS]

    def busy(self, key: str) -> float:
        return self.stats[key][BUSY] if key in self.stats else 0.0

    def self_time(self, key: str) -> float:
        return self.stats[key][SELF] if key in self.stats else 0.0


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (layer key, fields) for the plain call/busy/self metrics
TIMED = [
    ("distributions.cdf", ("calls", "busy_s")),
    ("distributions.quantile", ("calls", "busy_s")),
    ("distributions.partial_mean", ("calls", "busy_s")),
    ("distributions.cells", ("calls", "busy_s")),
    ("distributions.segments", ("calls",)),
    ("valuations.realize", ("calls", "busy_s")),
    ("valuations.value_vec", ("calls", "busy_s")),
    ("valuations.count_ge_vec", ("calls",)),
    ("auctions.uniform_price", ("calls", "busy_s")),
    ("auctions.discriminatory", ("calls", "busy_s")),
    ("auctions.first_price_single", ("calls", "busy_s")),
    ("auctions.posted_price_sell", ("calls", "busy_s")),
    ("aftermarket.run_posted_resale", ("calls", "busy_s")),
    ("aftermarket.apply_signal", ("calls", "busy_s")),
    ("allocation.opt_allocation", ("calls", "busy_s")),
    ("allocation.welfare", ("calls", "busy_s")),
    ("allocation.brute_force_opt", ("calls", "busy_s")),
    ("combined.play", ("calls", "busy_s", "self_s")),
    ("combined.expected_outcome", ("busy_s",)),
    ("combined.expected_optimal_welfare", ("busy_s",)),
    ("equilibrium.expected_utility", ("calls", "busy_s", "self_s")),
    ("equilibrium.expected_welfare", ("calls", "busy_s")),
    ("equilibrium.symmetric_fpa_bid", ("calls", "busy_s", "self_s")),
    ("equilibrium.interim_curves", ("busy_s",)),
    ("smoothness.check_smooth", ("busy_s",)),
    ("smoothness.utilities_and_revenue", ("calls", "busy_s", "self_s")),
    ("smoothness.expect", ("calls",)),
    ("smoothness.deviation", ("busy_s",)),
    ("balanced.check_balanced_conditions", ("calls", "busy_s", "self_s")),
    ("balanced.balanced_reserve", ("busy_s",)),
]


def layer_metrics(tr: Tracer, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, name -> (value, unit), from one traced pass."""
    out: dict[str, tuple[float, str]] = {}
    read = {"calls": (tr.calls, "count"), "busy_s": (tr.busy, "s"),
            "self_s": (tr.self_time, "s")}
    for key, fields in TIMED:
        for f in fields:
            get, unit = read[f]
            out[f"{key}.{f}"] = (get(key), unit)
    c = tr.counters
    primitives = sum(tr.calls(f"distributions.{k}")
                     for k in ("cdf", "quantile", "partial_mean"))
    utility = tr.calls("equilibrium.expected_utility")
    tabular = "equilibrium.CombinedTabularGame.utility"
    profiles = c.get("smoothness.profiles_checked", 0)
    out.update({
        "distributions.segments_per_primitive":
            (_ratio(tr.calls("distributions.segments"), primitives), "ratio"),
        "combined.draws": (c.get("combined.profile_nodes.yields", 0), "count"),
        "equilibrium.deviations": (c.get("equilibrium.deviations", 0), "count"),
        "equilibrium.cells_per_utility":
            (_ratio(tr.calls("distributions.cells"), utility), "ratio"),
        "equilibrium.tabular_hit_ratio":
            (1.0 - _ratio(c.get(f"equilibrium.expected_utility.under.{tabular}", 0),
                          tr.calls(tabular)) if tr.calls(tabular) else 0.0,
             "ratio"),
        "equilibrium.brd_iterations": (c.get("equilibrium.brd_iterations", 0),
                                       "count"),
        "smoothness.profiles_checked": (profiles, "count"),
        "smoothness.evals_per_profile":
            (_ratio(tr.calls("smoothness.utilities_and_revenue"), profiles),
             "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return out
