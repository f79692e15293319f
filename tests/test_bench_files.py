"""Every committed BENCH_<n>.json follows one schema: the benchmark command,
the parent commit, the host, the run order, and one record per run, each
naming its side, a workload of BENCHMARK.json and its seed, and holding the
end-to-end metrics that perfbench/run.py prints."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = ("pass_s", "setup_s", "peak_rss_mb", "failed_ratio")


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_schema(path):
    bench = json.loads(path.read_text())
    assert set(bench) == {"command", "parent", "host", "order", "records"}
    assert bench["records"]
    for entry in bench["records"]:
        assert entry["side"] in ("parent", "change")
        assert entry["workload"] in WORKLOADS
        assert isinstance(entry["seed"], int)
        record = entry["record"]
        assert record["name"] == entry["workload"]
        assert record["seed"] == entry["seed"]
        for key in METRICS:
            assert math.isfinite(record[key]), key
