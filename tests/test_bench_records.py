"""Every committed ``BENCH_*.json`` at the repo root is a well-formed
benchmark record: each workload of ``BENCHMARK.json`` ran correctly with no
failed op, and every metric it reports is one that ``BENCHMARK.json``
declares, with the declared unit."""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_a_bench_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_bench_record_matches_benchmark(path):
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    runs = _load(path)["runs"]
    for w in bench["workloads"]:
        assert any(r["workload"] == w["name"] for r in runs), w["name"]
    for r in runs:
        result = r["result"]
        assert result["correct"] is True, r["workload"]
        assert result["failed"] == 0, r["workload"]
        for name, metric in result["metrics"].items():
            assert name in units, name
            assert metric["unit"] == units[name], name
