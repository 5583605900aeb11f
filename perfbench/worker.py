"""One benchmark run in a fresh, single-threaded process.

    python3 perfbench/worker.py FIXTURE.json --mode run --seconds 38

Set-up is `import declogic` plus loading the fixture's texts the way the
CLI does (parse the model or theory, build the theory and the model);
it ends where the first item can start.  Items then run in a closed
loop, one at a time: every item is timed on its own and its verdict is
compared with the fixture's known answer outside the timed region.

Modes:
  setup  set up once and report the set-up time, then the host's speed;
  run    set up, run whole passes over the items for about `--seconds`
         with the calibration loop between every `CALIBRATE_EVERY` items,
         then cross-check the CLI once on the fixture's small case;
  trace  set up and run one pass untraced, then set up and run one pass
         again with every layer wrapped by `spans.Tracer`, and report
         per-layer self times and counts plus the tracing overhead.

The calibration loop (`calibrate`) never calls declogic; its mean time
measures how fast the shared host ran while the items did, and run.py
scales the reported times by it.

The last line of standard output is one JSON object with the results.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import random
import resource
import subprocess
import statistics
import sys
import tempfile
import time
from pathlib import Path

from spans import END, FOLDED, NAME, START, Tracer

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter
CALIBRATE_EVERY = 20  # items between two calibration loops in a pass
SETUP_CALIBRATIONS = 10  # calibration loops right after a set-up


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes; it never calls declogic.

    Other tenants of a shared host change its speed by up to 1.5x over
    seconds to minutes.  The loop builds and walks a tree of tuples with
    string labels and dict updates, the kind of interpreter work declogic
    does on terms, so its time moves with the host's speed as the items'
    times do.  The collector is off while it runs, so its time does not
    depend on how many objects the process holds.  Changing the loop
    changes the scale of every reported time.
    """
    def build(depth, k):
        if depth == 0:
            return ("leaf", k % 5)
        return ("node", str(k), build(depth - 1, 3 * k + 1),
                build(depth - 1, 7 * k + 2))

    def walk(tree, seen):
        if tree[0] == "leaf":
            return tree[1]
        key = (tree[1], len(seen))
        seen[key] = seen.get(key, 0) + 1
        return walk(tree[2], seen) + walk(tree[3], seen)

    collecting = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        for rep in range(4):
            seen = {}
            walk(build(11, rep), seen)
            sorted(seen.items())
        return clock() - start
    finally:
        if collecting:
            gc.enable()


def host_speed() -> float:
    """Mean calibration time over `SETUP_CALIBRATIONS` loops."""
    return statistics.fmean(calibrate() for _ in range(SETUP_CALIBRATIONS))


def run_cli(args: list[str]) -> tuple[int, str]:
    """Exit code and standard output of `python -m declogic ARGS`."""
    done = subprocess.run([sys.executable, "-m", "declogic", *args], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout


# ---------------------------------------------------------------------------
# Workloads.  Each has `setup(texts) -> state`, `items(state, entries)`
# giving (id, thunk, expected) triples for one pass, `judge(verdict,
# expected)`, and `cli_check(state, case, scratch) -> list of mismatches`.
# Thunks look functions up on their modules at call time, so the traced
# run sees the wrapped bindings.


class Workload:
    def items(self, state, entries):
        return [(e["id"], self._thunk(state, e), e["expected"]) for e in entries]


class LawsSweep(Workload):
    def setup(self, texts):
        from declogic import model, theory

        config = model.parse_model_config(texts["model"])
        combined = theory.theory_from_config(config)
        families = {"states": (theory.states_theory(config.locations), None)}
        if config.exceptions:
            mirror = theory.states_theory(config.exceptions)
            families["exceptions"] = (mirror, theory.dual_symbol_map(mirror))
        return {"model": model.build_model(combined, config.carriers),
                "families": families}

    def _thunk(self, state, entry):
        from declogic import model, theory

        law_theory, symbol_map = state["families"][entry["family"]]
        m = state["model"]

        def verdict():
            law = theory.seven_laws(law_theory, entry["i"],
                                    entry["j"])[entry["number"] - 1]
            if symbol_map is not None:
                law = theory.dualize_equation(law, symbol_map)
            weak = model.check_weak_eq(law.lhs, law.rhs, m)
            strong = model.check_strong_eq(law.lhs, law.rhs, m)
            shown = None if strong is None else model.render_counterexample(strong, m)
            return weak is None, shown, law.mode.value

        return verdict

    def judge(self, verdict, expected):
        weak, strong, _ = verdict
        if strong is not None and expected["strong"] == "*":
            return weak == expected["weak"]
        return weak == expected["weak"] and strong == expected["strong"]

    def cli_check(self, state, case, scratch):
        small = self.setup({"model": case["model"]})
        lines, failures = [], 0
        mismatches = []
        for entry in case["items"]:
            verdict = self._thunk(small, entry)()
            if not self.judge(verdict, entry["expected"]):
                mismatches.append(f"{entry['id']}: {verdict!r}")
            weak, strong, mode = verdict
            ok = weak and ((strong is None) == (mode == "strong"))
            failures += not ok
            lines.append(
                f"{entry['id']} {'WEAK ok' if weak else 'WEAK FAIL'} "
                + ("STRONG ok" if strong is None
                   else f"STRONG counterexample: {strong}")
                + f" [{'ok' if ok else 'FAIL'}]")
        lines.append(f"{failures} law instantiations FAILED" if failures
                     else "all law instantiations passed")
        path = scratch / "cli.model"
        path.write_text(case["model"])
        code, out = run_cli(["laws", "--model", str(path)])
        want = "\n".join(lines) + "\n"
        if (code, out) != (1 if failures else 0, want):
            mismatches.append(f"laws: exit {code}, stdout {out!r} != {want!r}")
        return mismatches


class ProofReplay(Workload):
    def setup(self, texts):
        from declogic import theory

        return {name: theory.parse_theory(text)
                for name, text in texts["theories"].items()}

    def _thunk(self, state, entry):
        from declogic import proofs

        th = state[entry["theory"]]
        text = entry["text"]

        def verdict():
            script = proofs.parse_script(text, th.signature)
            return proofs.check_script(script, th)

        return verdict

    def judge(self, report, expected):
        if expected == "accepted":
            return report.ok
        return not report.ok and report.errors[0][0] == expected

    def cli_check(self, state, case, scratch):
        mismatches = []
        for n, entry in enumerate(case["items"]):
            report = self._thunk(state, entry)()
            if not self.judge(report, entry["expected"]):
                mismatches.append(f"prove {entry['id']}: {report.describe()}")
            theory_file = scratch / f"cli-{n}.theory"
            script_file = scratch / f"cli-{n}.proof"
            theory_file.write_text(case["theories"][entry["theory"]])
            script_file.write_text(entry["text"])
            code, out = run_cli(["prove", str(script_file),
                                 "--theory", str(theory_file)])
            want = (0 if report.ok else 1, report.describe() + "\n")
            if (code, out) != want:
                mismatches.append(f"prove {entry['id']}: {(code, out)!r} != {want!r}")
        return mismatches


class ImpEquiv(Workload):
    def setup(self, texts):
        from declogic import imp, model

        config = model.parse_model_config(texts["model"])
        sizes = {base: len(values) for base, values in config.carriers.items()}
        used = set(config.locations.values()) | set(config.exceptions.values())
        th = imp.build_imp_theory(config.locations, config.exceptions,
                                  {base: sizes[base] for base in used})
        return {"theory": th,
                "model": model.build_model(th, imp.default_carriers(th)),
                "fuel": texts["fuel"]}

    def _thunk(self, state, entry):
        from declogic import imp

        th, m, fuel = state["theory"], state["model"], state["fuel"]
        left, right = entry["left"], entry["right"]

        def verdict():
            return imp.check_equiv(imp.parse_command(left),
                                   imp.parse_command(right), th, m, fuel=fuel)

        return verdict

    def judge(self, verdict, expected):
        return verdict.kind == expected

    def cli_check(self, state, case, scratch):
        from declogic import imp

        small = self.setup({"model": case["model"], "fuel": case["fuel"]})
        mismatches = []
        (scratch / "cli.model").write_text(case["model"])
        for n, entry in enumerate(case["items"]):
            verdict = self._thunk(small, entry)()
            if not self.judge(verdict, entry["expected"]):
                mismatches.append(f"imp-equiv {entry['id']}: {verdict.kind}")
            files = []
            for side in ("left", "right"):
                path = scratch / f"cli-{n}-{side}.imp"
                path.write_text(entry[side] + "\n")
                files.append(str(path))
            code, out = run_cli(["imp-equiv", *files, "--model",
                                 str(scratch / "cli.model"),
                                 "--fuel", str(case["fuel"])])
            ok = verdict.kind in (imp.STRONG, imp.WEAK)
            want = (0 if ok else 1, verdict.describe(small["model"]) + "\n")
            if (code, out) != want:
                mismatches.append(f"imp-equiv {entry['id']}: {(code, out)!r} != {want!r}")
        return mismatches


class ProbeSweep(Workload):
    """Probes share one pool context per (flavor, probe seed), as
    `probe_all` does; contexts are made afresh in every pass so each pass
    repeats the same work."""

    def setup(self, texts):
        from declogic import model, theory

        flavors = {}
        for flavor, text in texts["models"].items():
            config = model.parse_model_config(text)
            th = theory.theory_from_config(config)
            flavors[flavor] = (th, model.build_model(th, config.carriers))
        return {"flavors": flavors, "samples": texts["samples"]}

    def items(self, state, entries):
        contexts: dict = {}
        return [(e["id"], self._thunk(state, e, contexts), e["expected"])
                for e in entries]

    def _thunk(self, state, entry, contexts):
        from declogic import probes

        th, m = state["flavors"][entry["flavor"]]
        samples, seed = state["samples"], entry["probe_seed"]
        if entry["kind"] == "variant":
            name = entry["variant"]
            return lambda: probes.probe_variant(name, th, m, samples=samples,
                                                seed=seed)
        key = (entry["flavor"], seed)
        rule = entry["rule"]

        def verdict():
            ctx = contexts.get(key)
            if ctx is None:
                ctx = contexts[key] = probes.ProbeContext(
                    th, m, random.Random(f"{seed}:{th.flavor}"))
            return probes.soundness_probe(rule, th, m, samples=samples,
                                          seed=seed, context=ctx)

        return verdict

    def judge(self, report, expected):
        # A variant that escapes is a miss, counted apart from errors.
        return expected == "any" or len(report.violations) == expected

    def cli_check(self, state, case, scratch):
        # There is no probe subcommand: cross-check `laws` on the model
        # description the probes run over.
        return LawsSweep().cli_check(None, case, scratch)


WORKLOADS = {
    "laws-sweep": LawsSweep(),
    "proof-replay": ProofReplay(),
    "imp-equiv": ImpEquiv(),
    "probe-sweep": ProbeSweep(),
}


# ---------------------------------------------------------------------------
# Passes


def run_pass(workload, items, tracer=None, calibrations=None):
    """Run each item once; returns (item times in item order, None where
    the item raised; failed ids; variant misses).  With a `calibrations`
    list, time the calibration loop into it before every
    `CALIBRATE_EVERY` items, outside the items' times."""
    times, failed, misses = [], [], 0
    for n, (item_id, thunk, expected) in enumerate(items):
        if calibrations is not None and n % CALIBRATE_EVERY == 0:
            calibrations.append(calibrate())
        start = clock()
        try:
            if tracer is None:
                verdict = thunk()
            else:
                with tracer.span("item", item_id):
                    verdict = thunk()
        except Exception as err:  # a raising item is a failed verdict
            failed.append(f"{item_id}: raised {type(err).__name__}: {err}")
            times.append(None)
            continue
        times.append(clock() - start)
        if not workload.judge(verdict, expected):
            failed.append(f"{item_id}: got {_brief(verdict)}, expected {expected!r}")
        elif expected == "any" and not verdict.violations:
            misses += 1
    return times, failed, misses


def _brief(verdict) -> str:
    if hasattr(verdict, "kind"):
        return verdict.kind
    if hasattr(verdict, "describe"):
        return verdict.describe()
    return repr(verdict)


def timed_setup(workload, texts):
    """(import seconds, set-up seconds, state) from a cold interpreter."""
    start = clock()
    import declogic  # noqa: F401  (the import is what is measured)

    imported = clock()
    state = workload.setup(texts)
    return imported - start, clock() - start, state


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mode_run(fixture, workload, seconds: float) -> dict:
    import_s, setup_s, state = timed_setup(workload, fixture["setup"])
    setup_calibration_s = host_speed()
    items = workload.items(state, fixture["items"])
    # Whole passes until the next one would end past `seconds`, at least two.
    calibrations: list[float] = []
    start = clock()
    times, failed, misses = run_pass(workload, items, None, calibrations)
    passes = [times]
    while (len(passes) < 2
           or (clock() - start) * (len(passes) + 0.5) / len(passes) < seconds):
        times, bad, missed = run_pass(workload,
                                      workload.items(state, fixture["items"]),
                                      None, calibrations)
        passes.append(times)
        failed += bad
        misses += missed
    attempted = len(passes) * len(items)
    with tempfile.TemporaryDirectory(dir=fixture["scratch"]) as scratch:
        mismatches = workload.cli_check(state, fixture["cli"], Path(scratch))
    return {"import_s": import_s, "setup_s": setup_s,
            "setup_calibration_s": setup_calibration_s,
            "calibration_s": statistics.fmean(calibrations),
            "calibrations": len(calibrations), "passes": passes,
            "items_per_pass": len(items),
            "attempted": attempted + 1, "failed": len(failed) + bool(mismatches),
            "failures": (failed + mismatches)[:10], "cli_mismatches": mismatches,
            "variant_misses": misses, "peak_rss_mb": peak_rss_mb()}


# ---------------------------------------------------------------------------
# Traced run


def _points(ty, m, cache: dict) -> int:
    """Number of ordinary points of `ty` in `m`, by the type's shape."""
    key = (m, ty)
    if key not in cache:
        from declogic.types import Base, Empty, Prod, Sum, Unit

        if isinstance(ty, Unit):
            n = 1
        elif isinstance(ty, Empty):
            n = 0
        elif isinstance(ty, Base):
            n = len(m.carriers[ty.name])
        elif isinstance(ty, Prod):
            n = _points(ty.left, m, cache) * _points(ty.right, m, cache)
        elif isinstance(ty, Sum):
            n = _points(ty.left, m, cache) + _points(ty.right, m, cache)
        else:
            raise TypeError(f"not an object type: {ty!r}")
        cache[key] = n
    return cache[key]


def _count_check(strong: bool, cache: dict):
    def hook(tracer, args, kwargs, result, record):
        lhs, _, m = args
        inputs = _points(lhs.source, m, cache)
        if strong:
            inputs += sum(len(m.carriers[b]) for b in m.exceptions.values())
        tracer.counters["model.checks"] += 1
        tracer.counters["model.points_requested"] += len(m.states) * inputs
    return hook


def _count_nodes(tracer, args, kwargs, term, record):
    """Distinct nodes reachable from an elaborated term, by identity."""
    from declogic.terms import DecoratedTerm

    with tracer.span("bench.count_nodes"):
        seen = set()
        stack = [term]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            for f in dataclasses.fields(node):
                child = getattr(node, f.name)
                if isinstance(child, DecoratedTerm):
                    stack.append(child)
        tracer.counters["imp.elaborated_nodes"] += len(seen)


def _count_table(tracer, args, kwargs, result, record):
    # A cache miss tabulates the term, so it evaluates inside the span.
    if record[FOLDED] and "model.eval" in record[FOLDED]:
        tracer.counters["probes.table_builds"] += 1


def _count_probe(tracer, args, kwargs, report, record):
    for field in ("samples", "accepted", "rejected", "skipped"):
        tracer.counters[f"probes.{field}"] += getattr(report, field)


def _count_steps(tracer, args, kwargs, report, record):
    tracer.counters["proofs.steps"] += len(args[0].steps)


def _count_raise(counter, error_class):
    def hook(tracer, err):
        if isinstance(err, error_class):
            tracer.counters[counter] += 1
    return hook


def _count_table_entries(tracer, args, kwargs, m, record):
    tracer.counters["model.table_entries"] += sum(map(len, m.interps.values()))


def layer_targets():
    """(span, home, attribute, bindings, folded, on_return, on_raise)."""
    from declogic.generate import GenerationError
    from declogic.rules import RuleError

    imp_ = "declogic.imp"
    points: dict = {}
    return [
        ("theory.load", "declogic.theory", "theory_from_config",
         ["declogic.theory"], False, None, None),
        ("theory.load", "declogic.theory", "parse_theory",
         ["declogic.theory"], False, None, None),
        ("theory.load", f"{imp_}.elaborate", "build_imp_theory",
         [imp_, f"{imp_}.elaborate"], False, None, None),
        ("theory.laws", "declogic.theory", "seven_laws",
         ["declogic.theory"], False, None, None),
        ("theory.laws", "declogic.theory", "dualize_equation",
         ["declogic.theory"], False, None, None),
        ("model.build", "declogic.model", "build_model",
         ["declogic.model"], False, _count_table_entries, None),
        ("model.check", "declogic.model", "check_eq",
         ["declogic.model", "declogic.probes"], False, None, None),
        ("model.check", "declogic.model", "check_strong_eq",
         ["declogic.model"], False, _count_check(True, points), None),
        ("model.check", "declogic.model", "check_weak_eq",
         ["declogic.model"], False, _count_check(False, points), None),
        ("model.eval", "declogic.model", "eval_term",
         ["declogic.model", "declogic.probes", f"{imp_}.equiv"], True, None, None),
        ("syntax.parse", "declogic.syntax", "parse_term",
         ["declogic.syntax", "declogic.proofs"], True, None, None),
        ("terms.canonical_key", "declogic.terms", "canonical_key",
         ["declogic.rules", "declogic.proofs"], True, None, None),
        ("rules.check", "declogic.rules", "check_rule",
         ["declogic.proofs", "declogic.probes"], False, None,
         _count_raise("rules.rejected", RuleError)),
        ("proofs.parse", "declogic.proofs", "parse_script",
         ["declogic.proofs"], False, None, None),
        ("proofs.replay", "declogic.proofs", "check_script",
         ["declogic.proofs"], False, _count_steps, None),
        ("generate", "declogic.generate", "random_term",
         ["declogic.probes"], False, None,
         _count_raise("generate.failed", GenerationError)),
        ("probes.tables", "declogic.probes:ProbeContext", "tables",
         ["declogic.probes:ProbeContext"], False, _count_table, None),
        ("probes.probe", "declogic.probes", "soundness_probe",
         ["declogic.probes"], False, _count_probe, None),
        ("probes.probe", "declogic.probes", "probe_variant",
         ["declogic.probes"], False, None, None),
        ("imp.parse", f"{imp_}.parser", "parse_command",
         [imp_, f"{imp_}.parser"], False, None, None),
        ("imp.elaborate", f"{imp_}.elaborate", "elaborate",
         [f"{imp_}.equiv"], False, _count_nodes, None),
        ("imp.equiv", f"{imp_}.equiv", "check_equiv",
         [imp_, f"{imp_}.equiv"], False, None, None),
    ]


def layer_metrics(tracer: Tracer, import_s: float, misses: int) -> dict:
    own = tracer.self_times()
    calls = tracer.calls()
    count = tracer.counters
    replay_s = sum(span[END] - span[START] for span in tracer.spans
                   if span[NAME] == "proofs.replay")

    def ratio(a, b):
        return a / b if b else 0.0

    samples = count["probes.samples"]
    return {
        "declogic.import_s": import_s,
        "syntax.parse_s": own["syntax.parse"],
        "syntax.terms_parsed": calls["syntax.parse"],
        "theory.load_s": own["theory.load"],
        "theory.laws_s": own["theory.laws"],
        "model.build_s": own["model.build"],
        "model.table_entries": count["model.table_entries"],
        "model.check_s": own["model.check"],
        "model.checks": count["model.checks"],
        "model.points_requested": count["model.points_requested"],
        "model.eval_s": own["model.eval"],
        "model.eval_calls": calls["model.eval"],
        "model.points_per_s": ratio(calls["model.eval"], own["model.eval"]),
        "terms.canonical_key_s": own["terms.canonical_key"],
        "terms.canonical_key_calls": calls["terms.canonical_key"],
        "rules.check_s": own["rules.check"],
        "rules.calls": calls["rules.check"],
        "rules.rejected": count["rules.rejected"],
        "proofs.parse_s": own["proofs.parse"],
        "proofs.replay_s": own["proofs.replay"],
        "proofs.steps": count["proofs.steps"],
        "proofs.steps_per_s": ratio(count["proofs.steps"], replay_s),
        "generate.s": own["generate"],
        "generate.calls": calls["generate"],
        "generate.failed": count["generate.failed"],
        "probes.probe_s": own["probes.probe"],
        "probes.tables_s": own["probes.tables"],
        "probes.table_calls": calls["probes.tables"],
        "probes.table_builds": count["probes.table_builds"],
        "probes.samples": samples,
        "probes.accepted": count["probes.accepted"],
        "probes.rejected": count["probes.rejected"],
        "probes.skipped": count["probes.skipped"],
        "probes.accept_ratio": ratio(count["probes.accepted"], samples),
        "probes.variant_misses": misses,
        "imp.parse_s": own["imp.parse"],
        "imp.elaborate_s": own["imp.elaborate"],
        "imp.elaborated_nodes": count["imp.elaborated_nodes"],
        "imp.equiv_s": own["imp.equiv"],
        "bench.item_self_s": own["item"],
    }


def mode_trace(fixture, workload, trace_path: str) -> dict:
    import_s, setup_plain, state = timed_setup(workload, fixture["setup"])
    plain_times, failed, _ = run_pass(
        workload, workload.items(state, fixture["items"]))
    del state
    gc.collect()

    tracer = Tracer()
    tracer.install(layer_targets())
    try:
        with tracer.span("setup", "setup"):
            state = workload.setup(fixture["setup"])
        items = workload.items(state, fixture["items"])
        traced_times, bad, misses = run_pass(workload, items, tracer)
    finally:
        tracer.uninstall()
    failed += bad
    setup_span = tracer.spans[0]
    metrics = layer_metrics(tracer, import_s, misses)
    untraced = sum(t for t in plain_times if t is not None)
    traced = sum(t for t in traced_times if t is not None)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_ratio"] = (traced - untraced) / untraced
    tracer.write(trace_path)
    return {"metrics": metrics,
            "untraced_items_s": untraced, "traced_items_s": traced,
            "untraced_setup_s": setup_plain,
            "traced_setup_s": setup_span[END] - setup_span[START],
            "unbound": tracer.unbound,
            "spans": len(tracer.spans),
            "attempted": 2 * len(items), "failed": len(failed),
            "failures": failed[:10]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fixture")
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    with open(args.fixture, encoding="utf-8") as handle:
        fixture = json.load(handle)
    fixture["scratch"] = str(Path(args.fixture).parent)
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[fixture["workload"]]
    if args.mode == "setup":
        import_s, setup_s, _ = timed_setup(workload, fixture["setup"])
        result = {"import_s": import_s, "setup_s": setup_s,
                  "setup_calibration_s": host_speed()}
    elif args.mode == "run":
        result = mode_run(fixture, workload, args.seconds)
    else:
        result = mode_trace(fixture, workload, args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
