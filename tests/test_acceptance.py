"""End-to-end gates over the whole library, one verdict line each.

Each test here guards one published guarantee and prints a single
CRITERION line, pass or fail, so a batch run can be skimmed.  The
checks are exhaustive over small model families or replay frozen
oracle values; nothing is sampled without a fixed seed.
"""

import functools
import itertools
import random
import time

from declogic import (
    Decoration,
    GenerationError,
    build_model,
    check_strong_eq,
    check_weak_eq,
    eval_term,
    infer_decoration,
    random_term,
    type_pool,
    typecheck,
)
from declogic.model import check_eq
from declogic.derivations import all_law_scripts
from declogic.model import (
    UNIT,
    Exc,
    Outcome,
    render_counterexample,
)
from declogic.imp import (
    build_imp_theory,
    check_equiv,
    default_carriers,
    elaborate,
    parse_command,
    print_command,
)
from declogic.probes import probe_all, probe_variant
from declogic.proofs import check_script, dualize_script
from declogic.syntax import parse_term, print_term
from declogic.terms import CaseSeq, Comp, Mode, Op, PairSeq
from declogic.theory import (
    combine,
    dual_symbol_map,
    dualize,
    dualize_equation,
    dump_theory,
    seven_laws,
    states_theory,
)
from reference_imp import reference_verdict
from semantic_reference import comonad_delta, comonad_epsilon, comonad_phi
import test_imp


def criterion(number, title):
    """Print one verdict line for the wrapped check, pass or fail."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException:
                print(f"CRITERION {number} ({title}): FAIL")
                raise
            suffix = f" - {detail}" if detail else ""
            print(f"CRITERION {number} ({title}): pass{suffix}")

        return run

    return wrap


def _family(names):
    """Declarations over 1-2 names with carrier sizes 2-3."""
    for count in (1, 2):
        for sizes in itertools.product((2, 3), repeat=count):
            mapping = {}
            carriers = {}
            for name, size in zip(names[:count], sizes):
                mapping[name] = f"V{size}"
                carriers[f"V{size}"] = tuple(range(size))
            yield mapping, carriers


def _instantiations(mapping):
    names = list(mapping)
    pairs = [(i, j) for i in names for j in names if i != j]
    return pairs or [(names[0], None)]


def _check_law_family(make_model, make_law):
    """Exact verdicts for every law instantiation; returns the count."""
    checked = 0
    for mapping, carriers in _family(["x", "y"]) :
        theory = states_theory(mapping)
        model = make_model(theory, carriers)
        for i, j in _instantiations(mapping):
            for number, law in enumerate(seven_laws(theory, i, j), start=1):
                law = make_law(theory, law)
                weak = check_weak_eq(law.lhs, law.rhs, model)
                strong = check_strong_eq(law.lhs, law.rhs, model)
                assert weak is None, f"law {number} failed weakly"
                if law.mode is Mode.STRONG:
                    assert strong is None, f"law {number} failed strongly"
                else:
                    assert number == 4
                    assert strong is not None, "law 4 held strongly"
                    assert render_counterexample(strong, model)
                checked += 1
    return checked


@criterion(1, "state laws")
def test_criterion_1_state_laws():
    start = time.monotonic()
    checked = _check_law_family(build_model, lambda theory, law: law)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    return f"{checked} exact verdicts in {elapsed:.1f}s"


@criterion(2, "duality")
def test_criterion_2_duality():
    start = time.monotonic()
    checked = _check_law_family(
        lambda theory, carriers: build_model(dualize(theory), carriers),
        lambda theory, law: dualize_equation(law, dual_symbol_map(theory)),
    )
    theory = states_theory({"x": "V", "y": "W"})
    assert dump_theory(dualize(dualize(theory))) == dump_theory(theory)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    return f"{checked} dual verdicts, double dual is identity, {elapsed:.1f}s"


@criterion(3, "proof replay")
def test_criterion_3_proof_replay():
    scripts = 0
    equations = 0
    for mapping, carriers in _family(["x", "y"]):
        theory = states_theory(mapping)
        model = build_model(theory, carriers)
        dual_theory = dualize(theory)
        dual_model = build_model(dual_theory, carriers)
        for label, script in all_law_scripts(theory).items():
            for current, current_theory, current_model in (
                (script, theory, model),
                (dualize_script(script, theory), dual_theory, dual_model),
            ):
                report = check_script(current, current_theory)
                assert report.ok, (label, report.describe())
                scripts += 1
                for step in current.steps:
                    eq = step.conclusion
                    cex = check_eq(eq.mode, eq.lhs, eq.rhs, current_model)
                    assert cex is None, (label, step.rule)
                    equations += 1
    return f"{scripts} scripts accepted, {equations} step equations hold"


@criterion(4, "rule probes")
def test_criterion_4_rule_probes():
    st = states_theory({"x": "V", "y": "V"})
    carriers = {"V": (0, 1)}
    accepted = 0
    for theory in (st, dualize(st), combine(st, dualize(st))):
        model = build_model(theory, carriers)
        reports = probe_all(theory, model, samples=200, seed=0)
        broken = [r.describe() for r in reports.values() if not r.ok]
        assert not broken, broken
        accepted += sum(r.accepted for r in reports.values())
    st_model = build_model(st, carriers)
    detections = []
    for seed in (0, 1, 2):
        report = probe_variant("repl_weak_any_h", st, st_model,
                               samples=200, seed=seed)
        assert report.violations, f"unsound variant escaped seed {seed}"
        detections.append(len(report.violations))
    return (f"{accepted} accepted instantiations clean; "
            f"variant caught with {detections} violations over three seeds")


@criterion(5, "state with exceptions")
def test_criterion_5_state_with_exceptions():
    theory = build_imp_theory({"x": "V"}, {"e": "V"}, {"V": 2})
    model = build_model(theory, default_carriers(theory))
    raw = elaborate(parse_command("x := 1; throw e(0)"), theory)
    assert eval_term(raw, model, UNIT, (0,)) == Outcome(Exc("e", 0), (1,))
    handled = elaborate(
        parse_command("try { x := 1; throw e(0) } catch e(v) { skip }"), theory)
    for state in model.states:
        assert eval_term(handled, model, UNIT, state) == Outcome(UNIT, (1,))
    catcher = parse_command("try { throw e(0) } catch e(v) { skip }")
    skip = parse_command("skip")
    cex = check_strong_eq(elaborate(catcher, theory), elaborate(skip, theory),
                          model)
    assert cex is None, render_counterexample(cex, model)
    assert check_equiv(catcher, skip, theory, model).kind == "strong"
    return "writes persist through raises; catch-and-ignore is strongly skip"


@criterion(6, "program corpus")
def test_criterion_6_program_corpus():
    corpus = test_imp.CORPUS
    theory, model = test_imp.THEORY, test_imp.MODEL
    machine = test_imp.MACHINE
    assert len(corpus) >= 10
    assert any(expected == "fuel-exhausted" for *_, expected in corpus)
    states_checked = 0
    for label, left, right, fuel, expected in corpus:
        first, second = parse_command(left), parse_command(right)
        verdict = check_equiv(first, second, theory, model, fuel=fuel)
        assert verdict.kind == expected, (label, verdict.kind)
        assert reference_verdict(machine, model, first, second, fuel) == expected
        for source in (left, right):
            cmd = parse_command(source)
            term = elaborate(cmd, theory, fuel=fuel)
            for state in model.states:
                got = eval_term(term, model, UNIT, state)
                assert got == test_imp._reference_outcome(cmd, state, fuel)
                states_checked += 1
    return (f"{len(corpus)} pairs match the reference on {states_checked} runs, "
            f"fuel exhaustion reported")


def _children(term):
    if isinstance(term, Comp):
        return (term.outer, term.inner)
    if isinstance(term, PairSeq):
        return (term.first, term.second)
    if isinstance(term, CaseSeq):
        return (term.on_left, term.on_right)
    return ()


def _max_of_children(term):
    if isinstance(term, Op):
        return term.symbol.decoration
    decoration = Decoration(0, 0)
    for child in _children(term):
        decoration = decoration.join(_max_of_children(child))
    return decoration


@criterion(7, "structural suites")
def test_criterion_7_structural_suites():
    points = 0
    for mapping, carriers in _family(["x", "y"]):
        model = build_model(states_theory(mapping), carriers)
        for values in carriers.values():
            for x in values:
                for s in model.states:
                    pair = (x, s)
                    assert comonad_epsilon(comonad_delta(pair)) == pair
                    assert comonad_phi(comonad_epsilon)(comonad_delta(pair)) == pair
                    assert comonad_delta(comonad_delta(pair)) == \
                        comonad_phi(comonad_delta)(comonad_delta(pair))
                    points += 1

    st = states_theory({"x": "V", "y": "V"})
    theory = combine(st, dualize(st))
    model = build_model(theory, {"V": (0, 1)})
    rng = random.Random("structural-acceptance")
    pool = type_pool(theory)
    made = 0
    while made < 1000:
        source, target = rng.choice(pool), rng.choice(pool)
        try:
            term = random_term(rng, theory, model, source, target, depth=3)
        except GenerationError:
            continue
        made += 1
        assert typecheck(term, theory.signature).ok
        text = print_term(term)
        again = parse_term(text, theory.signature)
        assert again == term
        assert print_term(again) == text
        assert infer_decoration(term) == _max_of_children(term)

    for _, left, right, *_ in test_imp.CORPUS:
        for source in (left, right):
            cmd = parse_command(source)
            printed = print_command(cmd)
            assert parse_command(printed) == cmd
            assert print_command(parse_command(printed)) == printed
    return f"comonad laws at {points} points; {made} terms round-trip bit-exact"
