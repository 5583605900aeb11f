"""declogic benchmark: seeded verdict workloads, end to end and per layer.

    python3 perfbench/run.py --workload probe-sweep --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all
    python3 -m pytest perfbench -q        # self-tests at a tiny size

Run from the root of a checkout.  The parent builds the workload's inputs
and known answers from `--seed` (fixtures.py), then starts fresh
single-threaded child processes (worker.py) and only waits:

- `--trace 0`: one child that sets up and runs whole passes over the
  items for about `--seconds`, one item at a time, between two pairs of
  set-up-only children.  `setup_s` is the median set-up time of the five
  children.  An item's time is its mean over the passes; `verdict_p50_ms`
  and `verdict_p90_ms` are percentiles over items, `verdicts_per_s` is
  items completed over summed item time, and `peak_rss_mb` is the
  measuring child's peak resident memory.  The four timings are scaled
  to a reference host speed, as below.
- `--trace 1`: one child that runs a pass untraced and a pass with every
  layer wrapped (spans.py), and prints the per-layer metrics: self time
  and counts per module, plus `bench.item_self_s` (time inside items that
  no layer span covers) and the tracing overhead, the traced pass's item
  time minus the untraced pass's.  Spans go to
  `.perfbench_out/<workload>-s<seed>-<size>/trace.jsonl`.
- `--workload all`: every workload at the given seed, one after another.

BENCHMARK.json lists proof-replay, imp-equiv and probe-sweep.  laws-sweep
(98 law instantiations over |S|=256, where model point evaluation does the
work) runs the same way but is left out there: with four workloads the
runs had to be 25 s long to fit a 3420 s budget for all runs, and at that
length drift in CPU speed pushed the run-to-run spread past the bounds.

Host speed.  Other tenants of a shared host change its speed by up to
1.5x over seconds to minutes, and a run of about 40 s cannot average
that out: on a 2-vCPU shared VM, sets of 7 runs of proof-replay spread
by 0.13 to 0.30 of their median in wall-clock time, and by 0.04 once
scaled as below.  So every child also times a fixed pure-Python
calibration loop that never calls declogic (worker.calibrate): ten
loops right after its set-up, and in the measuring child one loop
before every 20 items.  Each time is multiplied by
REFERENCE_CALIBRATION_S over the mean calibration time of the same
child (of the same run, for item times), which gives the time on a host
where the loop takes 20 ms; `verdicts_per_s` is divided by that factor.
A faster declogic still reads faster, since the loop does not use it.
The unscaled wall-clock values and the calibration time are printed
above the JSON line.  `--trace 1` metrics are not scaled.

Each report prints the metrics named in BENCHMARK.json with their units,
then `error_rate` (items whose verdict differs from the known answer or
that raised, plus a failed CLI cross-check, over items attempted) and the
item count.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  `error_rate` is not
among the JSON metrics because it is zero on a correct run; it is
`failed / attempted`.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_CHILDREN = 4  # set-up-only children; the measuring child adds one
CHILD_TIMEOUT_S = 170
# The calibration loop's time on the reference host; times are scaled to it.
REFERENCE_CALIBRATION_S = 0.020
REQUIRED = ("src/declogic/__init__.py", "tests/semantic_reference.py",
            "tests/reference_imp.py", "BENCHMARK.json")

sys.path.insert(0, str(HERE))
import fixtures  # noqa: E402


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child(args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran over {CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchError(f"worker {args} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def wall_clock(run: dict, setups: list[dict]) -> dict:
    """Unscaled metrics: percentiles over items, each item timed as its
    mean over the passes, and the median set-up time of the children.

    Pooling every pass's times into one median makes p50 jump between the
    host's fast and slow spells; an item's mean over passes moves smoothly
    with the share of the run spent in each.
    """
    per_item = [[t for t in item if t is not None] for item in zip(*run["passes"])]
    means = [statistics.fmean(times) for times in per_item if times]
    done = sum(len(times) for times in per_item)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "verdict_p50_ms": 1000 * statistics.median(means),
        "verdict_p90_ms": 1000 * statistics.quantiles(means, n=10)[-1],
        "verdicts_per_s": done / sum(map(sum, per_item)),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def end_to_end(run: dict, setups: list[dict]) -> dict:
    """The wall-clock metrics scaled to the reference host speed: each
    set-up by its own child's calibration, item times by the run's."""
    scale = REFERENCE_CALIBRATION_S / run["calibration_s"]
    metrics = wall_clock(run, setups)
    metrics["setup_s"] = statistics.median(
        s["setup_s"] * REFERENCE_CALIBRATION_S / s["setup_calibration_s"]
        for s in setups)
    metrics["verdict_p50_ms"] *= scale
    metrics["verdict_p90_ms"] *= scale
    metrics["verdicts_per_s"] /= scale
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    out = OUT / f"{workload}-s{seed}-{size}"
    out.mkdir(parents=True, exist_ok=True)
    fixture_file = out / "fixture.json"
    fixture_file.write_text(json.dumps(fixtures.build(workload, seed, size)))
    if trace:
        trace_file = out / "trace.jsonl"
        result = child([str(fixture_file), "--mode", "trace",
                        "--trace-file", str(trace_file)])
        result["trace_file"] = str(trace_file.relative_to(ROOT))
        return result
    # Half the set-up-only children run before the measuring child and half
    # after it, so the median set-up time spans the run's drift in speed.
    setup_only = [str(fixture_file), "--mode", "setup"]
    setups = [child(setup_only) for _ in range(SETUP_CHILDREN // 2)]
    result = child([str(fixture_file), "--mode", "run",
                    "--seconds", str(seconds)])
    setups.append(result)
    setups += [child(setup_only)
               for _ in range(SETUP_CHILDREN - SETUP_CHILDREN // 2)]
    result["metrics"] = end_to_end(result, setups)
    result["wall_clock"] = wall_clock(result, setups)
    return result


def report(workload: str, seed: int, result: dict, wanted: list[dict],
           trace: bool) -> dict:
    """Print the metrics by name and unit; return the JSON result."""
    metrics = {}
    for entry in wanted:
        if entry["name"] not in result["metrics"]:
            raise BenchError(f"{workload} did not report {entry['name']}")
        metrics[entry["name"]] = {"value": result["metrics"][entry["name"]],
                                  "unit": entry["unit"]}
    attempted, failed = result["attempted"], result["failed"]
    if trace:
        print(f"{workload} seed={seed} traced: {attempted // 2} items, "
              f"{result['spans']} spans in {result['trace_file']}")
        print(f"  tracing overhead: {result['traced_items_s']:.3f} s traced - "
              f"{result['untraced_items_s']:.3f} s untraced item time = "
              f"{metrics['trace.overhead_s']['value']:.3f} s; set-up "
              f"{result['traced_setup_s']:.3f} s traced, "
              f"{result['untraced_setup_s']:.3f} s untraced")
        if result["unbound"]:
            print(f"  not traced (binding gone): {', '.join(result['unbound'])}")
    else:
        print(f"{workload} seed={seed}: {result['items_per_pass']} items "
              f"x {len(result['passes'])} passes, "
              f"{attempted} attempted with the CLI cross-check")
        raw = result["wall_clock"]
        print(f"  calibration loop {1000 * result['calibration_s']:.3f} ms "
              f"over {result['calibrations']} loops (reference "
              f"{1000 * REFERENCE_CALIBRATION_S:g} ms); unscaled: set-up "
              f"{raw['setup_s']:.4f} s, p50 {raw['verdict_p50_ms']:.3f} ms, "
              f"p90 {raw['verdict_p90_ms']:.3f} ms, "
              f"{raw['verdicts_per_s']:.3f} verdicts/s")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'error_rate':<28} {failed / attempted:>14.6g} ratio "
          f"({failed}/{attempted})")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one declogic benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=[*fixtures.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=fixtures.SIZES, default="full",
                        help="tiny shrinks every input, for the self-tests")
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from a declogic checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    bench = spec()
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    workloads = fixtures.WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace), args.size)
            results.append(report(workload, args.seed, result, wanted,
                                  bool(args.trace)))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{name}": value for w, r in zip(workloads, results)
                        for name, value in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
