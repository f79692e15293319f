"""Benchmark launcher: one workload, one single-threaded caller, closed loop.

    python3 perfbench/run.py --workload bne-verify --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`. With `--trace 0` it runs passes of the workload's audit list for
`--seconds` and prints the end-to-end metrics (setup_s, pass_s,
peak_rss_mb). Each audit runs next to the same audit of a frozen copy of
the library (perfbench/reference), so that the two see the host in the same
state: pass_s is the median over passes of the library's pass seconds over
the reference's, times the reference's pass seconds on the machine of the
committed baseline. With
`--trace 1` it times untraced passes the same way, then runs one more pass
under `layertrace.Tracer` and prints the per-layer metrics, including the
tracing overhead. Every audit, the frozen copy's too, is checked against
its reference; the last
stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}, and the exit code is nonzero
when any audit failed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference" / "aftermarkets"
SETUP_REPEATS = 7
# a median pass of the frozen copy on the 2-vCPU machine of the committed
# baseline, in a quiet spell; pass_s reads as the library's pass time there
REFERENCE_PASS_S = {"bne-verify": 3.0, "mc-play": 1.3, "fpa-check": 1.0,
                    "certify": 1.9}
SETUP_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
               "t = time.perf_counter(); import workloads; "
               "workloads.WORKLOADS[sys.argv[3]][0](int(sys.argv[4])); "
               "print(time.perf_counter() - t)")


def git_sha(root: Path):
    """HEAD of the checkout, or None outside a git clone or without git."""
    # stop git's search at the checkout, so an enclosing repository is not read
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the cold set-up: `import workloads`
    (the package, numpy and scipy) and the workload's first build. Each
    probe is a new process, so nothing warmed by an earlier build is reused."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC),
                              str(HERE), workload, str(seed)],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def _load(name: str, path: Path, package_dir: Path | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=(
            [str(package_dir)] if package_dir else None))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def reference_workloads():
    """A second instance of the workloads module, bound to the frozen copy of
    the library under perfbench/reference, imported as
    `reference_aftermarkets`. While the workloads source runs, the names
    `aftermarkets` and `aftermarkets.distributions` point at the copy."""
    ref = _load("reference_aftermarkets", REFERENCE / "__init__.py", REFERENCE)
    names = ("aftermarkets", "aftermarkets.distributions")
    live = {n: sys.modules.pop(n, None) for n in names}
    try:
        sys.modules.update({"aftermarkets": ref, "aftermarkets.distributions":
                            sys.modules["reference_aftermarkets.distributions"]})
        return _load("reference_workloads", HERE / "workloads.py")
    finally:
        for n, module in live.items():
            if module is None:
                sys.modules.pop(n, None)
            else:
                sys.modules[n] = module


def timed_pairs(run_audit, audits, ref_audits, seconds: float):
    """Closed loop of paired passes. `audits()` and `ref_audits()` list one
    pass of the library and of the frozen copy. Each audit runs next to its
    twin, in turn first, so a slow spell of the host slows both; a pair's
    ratio is its library seconds over its reference seconds. The first
    pair warms both copies (first calls, lazy imports that the one to go
    first would pay alone) and is not timed. Another pair starts only while
    it is expected to finish within `seconds`; at least one timed pair."""
    live, ref, times, ratios, pair_s = [], [], [], [], []
    start = time.perf_counter()
    warm = True
    while True:
        t0 = time.perf_counter()
        pair = ([], [])
        for i, twins in enumerate(zip(audits(), ref_audits())):
            for side in ((0, 1) if (i + len(ratios)) % 2 == 0 else (1, 0)):
                pair[side].append(run_audit(*twins[side]))
        pair_s.append(time.perf_counter() - t0)
        live_s, ref_s = (sum(a.seconds for a in side) for side in pair)
        live += pair[0]
        ref += pair[1]
        if warm:
            warm = False
            continue
        times.append(live_s)
        ratios.append(live_s / ref_s)
        if time.perf_counter() - start + statistics.median(pair_s) > seconds:
            return live, ref, times, ratios


def audit_summary(audits) -> list[dict]:
    by_name: dict[str, list] = {}
    for a in audits:
        by_name.setdefault(a.name, []).append(a)
    return [{"name": name, "ok": all(a.ok for a in group),
             "runs": len(group),
             "median_s": statistics.median(a.seconds for a in group),
             "best_s": min(a.seconds for a in group),
             "detail": group[-1].detail}
            for name, group in by_name.items()]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("bne-verify", "mc-play", "fpa-check", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aftermarkets" / "__init__.py").is_file():
        print(f"library source not found under {SRC}", file=sys.stderr)
        return 2
    # one caller, one thread: pin native thread pools before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import scipy
    import workloads

    setup_s = setup_seconds(args.workload, args.seed)
    build, audit_list = workloads.WORKLOADS[args.workload]
    state = build(args.seed)
    ref_build, ref_list = reference_workloads().WORKLOADS[args.workload]
    ref_state = ref_build(args.seed)

    audits, ref_audits, times, ratios = timed_pairs(
        workloads.run_audit, lambda: audit_list(state),
        lambda: ref_list(ref_state), args.seconds)
    ratio = statistics.median(ratios)
    pass_s = ratio * REFERENCE_PASS_S[args.workload]
    untraced_s = statistics.median(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        from layertrace import Tracer, layer_metrics
        with Tracer() as tracer:
            t0 = time.perf_counter()
            traced = workloads.run_pass(audit_list(state))
            traced_s = time.perf_counter() - t0
        audits.extend(traced)
        metrics = layer_metrics(tracer, traced_s - untraced_s)
    else:
        metrics = {"setup_s": (setup_s, "s"), "pass_s": (pass_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}

    # a run whose frozen copy fails an audit has no valid ratio
    attempted = len(audits) + len(ref_audits)
    failed = sum(not a.ok for a in audits + ref_audits)
    q1, q3 = quartiles(times)
    rq1, rq3 = quartiles(ratios)
    record = {
        "name": args.workload,
        "layer": "per_layer" if args.trace else "end_to_end",
        "params": {**state.params, "seconds": args.seconds,
                   "setup_repeats": SETUP_REPEATS},
        "pass_s": pass_s, "n": len(times), "ratio": ratio,
        "ratio_iqr": rq3 - rq1, "ratios": ratios, "median": untraced_s,
        "iqr": q3 - q1, "pass_times": times,
        "traced_pass_s": traced_s if args.trace else None,
        "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
        "failed_ratio": failed / attempted,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(), "seed": args.seed,
        "audits": audit_summary(audits),
        "reference_audits": audit_summary(ref_audits),
    }
    print(f"{args.workload} seed={args.seed}: pass_s {pass_s:.4f} s "
          f"(median ratio to the frozen copy {ratio:.4f} over {len(times)} "
          f"pairs; median wall pass {untraced_s:.4f} s), setup_s "
          f"{setup_s:.4f} s, peak_rss_mb {peak_rss_mb:.1f} MB, failed_ratio "
          f"{failed}/{attempted} = {failed / attempted:g}")
    for a in record["audits"]:
        print(f"  {'ok  ' if a['ok'] else 'FAIL'} {a['name']}: "
              f"best {a['best_s']:.4f} s, median {a['median_s']:.4f} s  "
              f"{a['detail']}")
    print("record " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
