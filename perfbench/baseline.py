"""Measure the committed baseline, perfbench/baseline.json, and the layer
map, perfbench/layers.json.

    python3 perfbench/baseline.py

For each workload it runs `run.py --trace 0` once per seed (seeds 1..10)
and records each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median). It then runs
`run.py --trace 1` five times with one seed and checks that every count
repeats exactly. From the traced runs it writes layers.json: each per-layer
metric moves pass_s on the workloads where its traced value is nonzero, and
no change is predicted on the others. Last, it sets the ROADMAP re-anchor
timings beside the benchmark's own figures, and times play,
expected_utility and sample(rng, 1000) directly without the tracer, so a
traced figure that reads high can be told apart from a real gap. Each
benchmark run is its own process, one at a time.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bne-verify", "mc-play", "fpa-check", "certify")
RUNS = 10
TRACED_RUNS = 5
TRACE_SEED = 1
DIRECT_REPEATS = 10
SAMPLE_LOOPS = 10
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

# ROADMAP north-star aim 1, measured at re-anchor (2 CPUs, Python 3.11)
ROADMAP = {
    "play": 45e-6,
    "expected_utility": 150e-6,
    "monte_carlo_per_draw": 80e-6,
    "sample_1000": 5e-3,
    "verify_bne_m10000": 1.0,
    "symmetric_fpa_check_cli_defaults": 12.0,
}

# notes carried into layers.json, by metric-name prefix
LAYER_NOTES = {
    "distributions.": "setup_s and peak_rss_mb must not grow on any workload",
    "aftermarket.": "bne-verify resells inside equilibrium._group_tensor, "
                    "which this layer does not see",
    "equilibrium.expected_utility.self_s":
        "a single resale kernel must lower this on bne-verify without "
        "raising aftermarket busy time on mc-play",
    "combined.draws": "fixed by the audit list; a change that keeps the "
                      "audits must keep this count exactly",
    "equilibrium.deviations": "fixed by the audit list; a change that keeps "
                              "the audits must keep this count exactly",
    "smoothness.profiles_checked": "fixed by the audit list; a change that "
                                   "keeps the audits must keep this count "
                                   "exactly",
    "trace.overhead_s": "traced pass minus the median untraced wall pass; "
                        "measures the tracer, not the library",
}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"({out.returncode}):\n{out.stdout}\n{out.stderr}")
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return record, json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def audit_median(records: list[dict], name: str) -> dict:
    return summary([next(a["median_s"] for a in r["audits"] if a["name"] == name)
                    for r in records])


def cli_default_fpa_seconds() -> float:
    """One untraced symmetric_fpa_check(Uniform(0, 1)) at the CLI defaults."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "from aftermarkets import Uniform, symmetric_fpa_check; "
            "t = time.perf_counter(); symmetric_fpa_check(Uniform(0.0, 1.0)); "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=600)
    return float(out.stdout)


def direct_timings() -> dict[str, dict]:
    """Untraced per-call seconds of play, expected_utility and
    sample(rng, 1000) on the m = 100 speculation example, each timed
    DIRECT_REPEATS times in this process."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import aftermarkets as am
    import workloads

    m = workloads.MC_M
    game = am.scripted_lower_bound_equilibrium(m)
    strategies = game.strategies()
    profiles = [am.sample_profile(game.market, seed) for seed in range(2000)]
    devs = am.default_deviation_grid(m, "regular").deviations(m)
    # the random agents' distributions of both mc-play markets
    dists = [a.dist for market in (game.market, am.posted_fails_market(
        workloads.POSTED_EPS, workloads.POSTED_H)) for a in market.agents
        if a.random]
    play, utility, sample = [], [], []
    for r in range(DIRECT_REPEATS):
        t0 = time.perf_counter()
        for profile in profiles:
            am.play(game.market, game.mechanism, game.protocol, game.resale,
                    strategies, profile)
        play.append((time.perf_counter() - t0) / len(profiles))
        ev = game.evaluator()
        t0 = time.perf_counter()
        for dev in devs:
            ev.expected_utility(0, {0: dev})
        utility.append((time.perf_counter() - t0) / len(devs))
        rng = np.random.default_rng(r)
        t0 = time.perf_counter()
        for _ in range(SAMPLE_LOOPS):
            for dist in dists:
                dist.sample(rng, 1000)
        sample.append((time.perf_counter() - t0) / (SAMPLE_LOOPS * len(dists)))
    return {
        "play": dict(summary(play), source=f"am.play on {len(profiles)} "
                     f"sampled profiles, m = {m}"),
        "expected_utility": dict(summary(utility), source=(
            f"ConstantActionEvaluator.expected_utility over the {len(devs)} "
            f"regular-role deviations, m = {m}")),
        "sample_1000": dict(summary(sample), source=(
            f"dist.sample(rng, 1000), mean over the {len(dists)} random "
            "agents' distributions of the two mc-play markets")),
    }


def layer_map(traced: dict[str, list[dict]], traced_pass: dict[str, float]) -> dict:
    """layers.json from the first traced run of each workload. A per-layer
    metric moves pass_s on the workloads where its traced value is nonzero;
    on the others no change is predicted. `busy_share` is a busy time as a
    share of the traced pass, to tell a large saving from a negligible one."""
    out = {}
    for name in traced[WORKLOADS[0]][0]:
        on = [w for w in WORKLOADS if traced[w][0][name]]
        if name == "trace.overhead_s":
            on = []
        entry = {"moves": [{"metric": "pass_s", "workloads": on}] if on else [],
                 "no_change_on": [w for w in WORKLOADS if w not in on]}
        if name.endswith(".busy_s"):
            entry["busy_share"] = {
                w: float(f"{traced[w][0][name] / traced_pass[w]:.3g}") for w in on}
        notes = [n for prefix, n in LAYER_NOTES.items() if name.startswith(prefix)]
        if notes:
            entry["note"] = "; ".join(notes)
        out[name] = entry
    return {"about": "Written by perfbench/baseline.py. For each per-layer "
                     "metric of BENCHMARK.json: the end-to-end metric and the "
                     "workloads it moves (its traced value is nonzero there), "
                     "and the workloads where no change is predicted (the "
                     "traced value is 0). Counts come from one traced pass "
                     "(perfbench/run.py --trace 1) per workload.",
            "metrics": out}


def main() -> int:
    started = time.time()

    e2e, records, counts, layers, traced_pass = {}, {}, {}, {}, {}
    for w in WORKLOADS:
        rows = [run(w, seed, SECONDS, 0) for seed in range(1, RUNS + 1)]
        records[w] = [r for r, _ in rows]
        e2e[w] = {k: summary([res["metrics"][k]["value"] for _, res in rows])
                  for k in rows[0][1]["metrics"]}
        e2e[w]["passes_per_run"] = [r["n"] for r, _ in rows]
        e2e[w]["failed_ratio"] = [r["failed_ratio"] for r, _ in rows]
        print(w, {k: round(v["spread"], 4) for k, v in e2e[w].items()
                  if isinstance(v, dict)}, flush=True)

        traced = [run(w, TRACE_SEED, SECONDS, 1) for _ in range(TRACED_RUNS)]
        layers[w] = [{k: v["value"] for k, v in res["metrics"].items()}
                     for _, res in traced]
        traced_pass[w] = traced[0][0]["traced_pass_s"]
        units = traced[0][1]["metrics"]
        count_names = [k for k, v in units.items() if v["unit"] == "count"]
        counts[w] = {"seed": TRACE_SEED, "traced_runs": TRACED_RUNS,
                     "repeat_exactly": all(t[k] == layers[w][0][k]
                                           for t in layers[w] for k in count_names),
                     "counts": {k: layers[w][0][k] for k in count_names}}
        print(w, "counts repeat:", counts[w]["repeat_exactly"], flush=True)

    def per_call(w: str, busy: str, calls: str, scale: float = 1.0) -> dict:
        s = summary([t[busy] / t[calls] * scale for t in layers[w]])
        return {"value": s["median"], "spread": s["spread"]}

    mc = audit_median(records["mc-play"], "monte carlo welfare m=100")
    draws = records["mc-play"][0]["params"]["draws"]
    vb = audit_median(records["bne-verify"], "verify_bne m=10000")
    fpa = summary([cli_default_fpa_seconds() for _ in range(5)])
    ours = {
        "play": dict(per_call("mc-play", "combined.play.busy_s",
                              "combined.play.calls"),
                     source="traced combined.play busy_s / calls, mc-play"),
        "expected_utility": dict(
            per_call("bne-verify", "equilibrium.expected_utility.busy_s",
                     "equilibrium.expected_utility.calls"),
            source="traced equilibrium.expected_utility busy_s / calls, "
                   "bne-verify (m = 10, 100, 10^4, grouped m = 1000 and the "
                   "tabular game)"),
        "monte_carlo_per_draw": {
            "value": mc["median"] / draws, "spread": mc["spread"],
            "source": "untraced 'monte carlo welfare m=100' audit / draws, "
                      "mc-play"},
        "sample_1000": dict(
            per_call("mc-play", "distributions.quantile.busy_s",
                     "distributions.quantile.calls", 1000.0),
            source="1000 x traced distributions.quantile busy_s / calls, "
                   "mc-play (sample() is one quantile per draw)"),
        "verify_bne_m10000": {
            "value": vb["median"], "spread": vb["spread"],
            "source": "untraced 'verify_bne m=10000' audit, bne-verify"},
        "symmetric_fpa_check_cli_defaults": {
            "value": fpa["median"], "spread": fpa["spread"],
            "source": "5 direct untraced runs at the CLI defaults; fpa-check "
                      "itself uses smaller grids"},
    }
    direct = direct_timings()
    reconcile = {}
    for name, ref in ROADMAP.items():
        o = ours[name]
        diff = (o["value"] - ref) / ref
        reconcile[name] = {"roadmap_s": ref, "benchmark_s": o["value"],
                           "relative_difference": diff,
                           "run_to_run_spread": o["spread"],
                           "differs_beyond_spread": abs(diff) > o["spread"],
                           "source": o["source"]}
        if name in direct:
            d = direct[name]
            reconcile[name]["untraced"] = {
                "seconds": d["median"], "spread": d["spread"],
                "relative_difference": (d["median"] - ref) / ref,
                "differs_beyond_spread": abs(d["median"] - ref) / ref > d["spread"],
                "source": d["source"]}

    first = records[WORKLOADS[0]][0]
    out = {
        "about": "Baseline of BENCHMARK.json, written by perfbench/baseline.py.",
        "environment": {k: first[k] for k in ("python", "numpy", "scipy",
                                              "git_sha", "nproc")},
        "run_seconds": SECONDS,
        "runs_per_workload": RUNS,
        "end_to_end": e2e,
        "counts": counts,
        "per_layer_traced_runs": layers,
        "traced_pass_s": traced_pass,
        "reconciliation": reconcile,
        "wall_seconds": time.time() - started,
    }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    (HERE / "layers.json").write_text(
        json.dumps(layer_map(layers, traced_pass), indent=1) + "\n")
    print(json.dumps(reconcile, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
