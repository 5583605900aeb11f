"""Self-tests of the benchmark, at the tiny input size.

    python3 -m pytest perfbench -q

They run the real parent and worker processes on small inputs, so they
check the harness, the oracles and the tracer, not performance.
"""
from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import fixtures  # noqa: E402
from spans import ITEM, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench_out" / "selftest"


def bench(*args: str) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args,
                           "--size", "tiny"], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", fixtures.WORKLOADS)
def test_every_end_to_end_metric_with_its_unit_and_no_errors(workload):
    result = bench("--workload", workload, "--seed", "3", "--seconds", "1")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", fixtures.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (bench("--workload", workload, "--seed", "5", "--trace", "1")
                     for _ in range(2))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{name: m["value"] for name, m in run["metrics"].items()
               if m["unit"] == "count"} for run in (first, second)]
    assert counts[0] == counts[1]
    assert first["failed"] == 0
    if workload == "proof-replay":
        assert counts[0]["model.eval_calls"] == 0
        assert counts[0]["proofs.steps"] > 0
    else:
        assert counts[0]["model.eval_calls"] > 0


def test_timings_scale_to_the_reference_host_speed():
    import run

    ref = run.REFERENCE_CALIBRATION_S
    measured = {"passes": [[0.010, 0.020, 0.030], [0.010, 0.020, 0.030]],
                "calibration_s": 2 * ref, "peak_rss_mb": 30.0}
    setups = [{"setup_s": 0.5, "setup_calibration_s": ref / 2},
              {"setup_s": 0.2, "setup_calibration_s": 2 * ref},
              {"setup_s": 0.4, "setup_calibration_s": ref}]
    raw = run.wall_clock(measured, setups)
    scaled = run.end_to_end(measured, setups)
    assert raw["setup_s"] == pytest.approx(0.4)
    assert scaled["setup_s"] == pytest.approx(0.4)  # of 1.0, 0.1 and 0.4
    assert scaled["verdict_p50_ms"] == pytest.approx(raw["verdict_p50_ms"] / 2)
    assert scaled["verdict_p90_ms"] == pytest.approx(raw["verdict_p90_ms"] / 2)
    assert scaled["verdicts_per_s"] == pytest.approx(raw["verdicts_per_s"] * 2)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"]


def test_the_calibration_loop_does_not_use_declogic():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, worker; worker.calibrate(); "
         "print(any(m.startswith('declogic') for m in sys.modules))"],
        cwd=HERE, capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "False", done.stderr


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_sum_to_each_root():
    module = types.ModuleType("perfbench_selftest_layers")

    def leaf():
        _spin(0.0005)

    def inner():
        _spin(0.001)
        module.leaf()

    def outer():
        _spin(0.001)
        module.inner()
        module.leaf()

    module.leaf, module.inner, module.outer = leaf, inner, outer
    sys.modules[module.__name__] = module
    tracer = Tracer()
    tracer.install([
        ("leaf", module.__name__, "leaf", [module.__name__], True, None, None),
        ("inner", module.__name__, "inner", [module.__name__], False, None, None),
        ("outer", module.__name__, "outer", [module.__name__], False, None, None),
    ])
    try:
        for item in ("a", "b"):
            with tracer.span("item", item):
                module.outer()
                _spin(0.001)
    finally:
        tracer.uninstall()
        del sys.modules[module.__name__]
    assert module.outer is outer
    sums = tracer.tree_sums()
    assert len(sums) == 2
    for root, total in sums:
        assert total == pytest.approx(root, rel=1e-9, abs=1e-12)
    assert tracer.calls()["leaf"] == 4
    own = tracer.self_times()
    assert own["inner"] >= 0.001 and own["outer"] >= 0.001
    assert {span[ITEM] for span in tracer.spans} == {"a", "b"}


def test_trace_file_trees_sum_to_their_roots():
    bench("--workload", "imp-equiv", "--seed", "4", "--trace", "1")
    path = ROOT / ".perfbench_out" / "imp-equiv-s4-tiny" / "trace.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    root_of, totals = {}, {}
    for span in spans:
        root = span["id"] if span["parent"] is None else root_of[span["parent"]]
        root_of[span["id"]] = root
        own = span["self"] + sum(s for _, s in span["folded"].values())
        totals[root] = totals.get(root, 0.0) + own
    assert len(totals) > 1
    for root, total in totals.items():
        duration = spans[root]["end"] - spans[root]["start"]
        assert total == pytest.approx(duration, rel=1e-9, abs=1e-12)


def _wrong_law(item):
    item["expected"] = {"weak": not item["expected"]["weak"],
                        "strong": item["expected"]["strong"]}


def _wrong_proof(item):
    item["expected"] = 1 if item["expected"] == "accepted" else "accepted"


def _wrong_program(item):
    item["expected"] = "weak" if item["expected"] != "weak" else "strong"


def _wrong_probe(item):
    item["expected"] = 1


@pytest.mark.parametrize("workload, corrupt", [
    ("laws-sweep", _wrong_law), ("proof-replay", _wrong_proof),
    ("imp-equiv", _wrong_program), ("probe-sweep", _wrong_probe)])
def test_a_wrong_expected_answer_counts_as_an_error(workload, corrupt):
    fixture = fixtures.build(workload, 7, "tiny")
    corrupt(fixture["items"][0])
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / f"{workload}-wrong.json"
    path.write_text(json.dumps(fixture))
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(path),
                           "--mode", "run", "--seconds", "0.01"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] == len(result["passes"])
    assert result["failures"][0].startswith(fixture["items"][0]["id"])
    assert not result["cli_mismatches"]
