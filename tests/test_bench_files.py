"""Every committed `BENCH_*.json` reads back and speaks of the benchmark
that `BENCHMARK.json` defines: its workloads and its metrics only."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in SPEC["workloads"]}
METRICS = {metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_bench_file_names_only_defined_workloads_and_metrics(path):
    bench = json.loads(path.read_text())
    for commit, about in bench["commits"].items():
        assert len(commit) == 40 and about["side"] in ("parent", "change")
        assert about["source_lines"] > 0
    assert bench["runs"]
    for run in bench["runs"]:
        assert bench["commits"][run["commit"]]["side"] == run["side"]
        assert run["workload"] in WORKLOADS
        assert isinstance(run["seed"], int) and run["seconds"] > 0
        assert run["result"]["metrics"].keys() <= METRICS
        assert run["result"]["failed"] == 0


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_bench_file_pairs_one_parent_run_with_one_change_run(path):
    """Each pair of a series runs the parent and the change back to back,
    on one workload, seed and run length."""
    pairs = {}
    for run in json.loads(path.read_text())["runs"]:
        pairs.setdefault((run["series"], run["pair"]), []).append(run)
    for key, runs in pairs.items():
        assert sorted(run["side"] for run in runs) == ["change", "parent"], key
        assert sorted(run["position"] for run in runs) == [1, 2], key
        assert len({(run["workload"], run["seed"], run["seconds"]) for run in runs}) == 1, key
