"""Checks of the benchmark itself: gates trip on a corrupted reference, the
frozen copy of the library loads apart from the live one, the tracer reaches
every binding and restores it, the metric names agree with BENCHMARK.json,
and the layer map agrees with the traced baseline.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (ROOT / "src", HERE):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import aftermarkets as am  # noqa: E402
from aftermarkets import (auctions, combined, distributions,  # noqa: E402
                          equilibrium, smoothness)

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_corrupted_reference_fails_the_audit():
    state = workloads.build_bne_verify(0)
    ok, _ = workloads._verify(state, 10)
    assert ok
    state.ref["deviations"][10] = (1993, 1994, 1171)
    ok, detail = workloads._verify(state, 10)
    assert not ok and detail["deviations"] == (1994, 1994, 1171)


def test_reference_workloads_use_the_frozen_copy():
    ref = run.reference_workloads()
    assert ref.am.__name__ == "reference_aftermarkets"
    assert sys.modules["aftermarkets"] is am and workloads.am is am
    assert ref.WORKLOADS.keys() == workloads.WORKLOADS.keys()
    state = ref.build_fpa_check(0)
    assert isinstance(state.inputs["uniform"], ref.am.Uniform)
    assert not isinstance(state.inputs["uniform"], am.Uniform)


def test_failed_gate_makes_the_command_exit_nonzero(monkeypatch, capsys):
    build, audit_list = workloads.WORKLOADS["mc-play"]

    def corrupted(seed):
        state = build(seed)
        state.ref["opt_replay"] *= 1.01
        return state

    monkeypatch.setitem(workloads.WORKLOADS, "mc-play", (corrupted, audit_list))
    code = run.main(["--workload", "mc-play", "--seed", "3", "--seconds", "1",
                     "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] >= 1
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_tracer_wraps_every_binding_and_restores_it():
    before = (combined.uniform_price, equilibrium._run_auction,
              smoothness.first_price_single, am.verify_bne,
              distributions.Uniform.__dict__["partial_mean"],
              distributions.PointMass.__dict__["cdf"])
    with layertrace.Tracer() as tr:
        assert combined.uniform_price is auctions.uniform_price
        assert combined.uniform_price is not before[0]
        assert equilibrium._run_auction is combined._run_auction
        assert smoothness.first_price_single is auctions.first_price_single
        assert am.verify_bne is equilibrium.verify_bne
        distributions.Uniform(0.0, 1.0).partial_mean(0.0, 0.5)
        distributions.PointMass(1.0).cdf(2.0)
        game = am.scripted_lower_bound_equilibrium(10)
        am.expected_outcome(game.market, game.mechanism, game.protocol,
                            game.resale, game.strategies(), am.MonteCarlo(50, 0))
    after = (combined.uniform_price, equilibrium._run_auction,
             smoothness.first_price_single, am.verify_bne,
             distributions.Uniform.__dict__["partial_mean"],
             distributions.PointMass.__dict__["cdf"])
    assert all(a is b for a, b in zip(before, after))
    assert tr.calls("distributions.partial_mean") == 1
    assert tr.calls("distributions.cdf") == 1
    assert tr.calls("combined.play") == 50
    assert tr.calls("auctions.uniform_price") == 50
    assert tr.counters["combined.profile_nodes.yields"] == 50
    assert 0 < tr.self_time("combined.play") < tr.busy("combined.play")


def test_traced_counts_repeat():
    def counts():
        game = am.scripted_lower_bound_equilibrium(10)
        with layertrace.Tracer() as tr:
            am.expected_outcome(game.market, game.mechanism, game.protocol,
                                game.resale, game.strategies(),
                                am.MonteCarlo(100, 7))
        return {k: v[layertrace.CALLS] for k, v in tr.stats.items()}

    assert counts() == counts()


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    names = list(layertrace.layer_metrics(layertrace.Tracer(), 0.0))
    assert names == [m["name"] for m in bench["per_layer"]] == list(layers)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_layer_map_follows_the_traced_baseline():
    """A layer metric moves pass_s exactly on the workloads where the
    baseline's traced value is nonzero."""
    traced = json.loads((HERE / "baseline.json").read_text())["per_layer_traced_runs"]
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    for name, entry in layers.items():
        moved = [w for move in entry["moves"] for w in move["workloads"]]
        nonzero = [w for w in workloads.WORKLOADS if traced[w][0][name]]
        if name == "trace.overhead_s":
            nonzero = []
        assert moved == nonzero, name
        assert entry["no_change_on"] == [w for w in workloads.WORKLOADS
                                         if w not in nonzero], name
