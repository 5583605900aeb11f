"""Proof checker and law derivation tests.

The derivation scripts double as a regression corpus: every script
must be accepted by the rule checker, and every intermediate equation
must hold in finite models under its claimed mode, so an over-eager
rule change is caught by the model oracle and an over-strict one by
the script replay.
"""

import gc
import time

import pytest
from hypothesis import given, strategies as st

from declogic import syntax
from declogic.derivations import ScriptBuilder, all_law_scripts, law_script
from declogic.model import build_model, check_eq
from declogic.proofs import (
    ProofScript,
    ProofStep,
    check_script,
    check_step,
    dualize_script,
    parse_script,
    print_script,
)
from declogic.rules import (
    PremiseShapeMismatch,
    SideConditionViolated,
    UnknownRule,
    check_rule,
)
from declogic.syntax import ParseError, parse_term, print_term
from declogic.terms import (FORMS, Bang, CaseSeq, Comp, Equation, Id, Mode, Op, PairSeq,
                            Proj2, canonical_key)
from declogic.theory import (
    combine,
    dualize,
    lookup_op,
    seven_laws,
    states_theory,
    tag_op,
    update_op,
)
from declogic.types import UNIT_T, Base

ST1 = states_theory({"x": "V"})
ST2 = states_theory({"x": "V", "y": "V"})
EX2 = dualize(ST2)
CMB = combine(ST2, EX2)

CARRIERS = {"V": (0, 1)}
M_ST2 = build_model(ST2, CARRIERS)
M_EX2 = build_model(EX2, CARRIERS)
M_CMB = build_model(CMB, CARRIERS)


def weak(lhs, rhs):
    return Equation(Mode.WEAK, lhs, rhs)


def strong(lhs, rhs):
    return Equation(Mode.STRONG, lhs, rhs)


# ---------------------------------------------------------------------------
# Law derivations


def test_single_location_scripts_check():
    scripts = all_law_scripts(ST1)
    assert sorted(scripts) == ["law1@x", "law2@x", "law3@x", "law4@x"]
    for key, script in scripts.items():
        report = check_script(script, ST1)
        assert report.ok, f"{key}: {report.describe()}"
    assert sum(len(s.steps) for s in scripts.values()) == 21


def test_two_location_scripts_check():
    scripts = all_law_scripts(ST2)
    assert len(scripts) == 14
    for key, script in scripts.items():
        report = check_script(script, ST2)
        assert report.ok, f"{key}: {report.describe()}"
    assert sum(len(s.steps) for s in scripts.values()) == 352


def test_script_goals_are_the_seven_laws():
    laws = seven_laws(ST2, "x", "y")
    for number, law in zip(range(1, 8), laws):
        script = law_script(ST2, number, "x", "y")
        assert script.goal == law


def test_every_step_holds_in_the_model():
    for key, script in all_law_scripts(ST2).items():
        for step in script.steps:
            eq = step.conclusion
            cex = check_eq(eq.mode, eq.lhs, eq.rhs, M_ST2)
            assert cex is None, f"{key} {step.rule}: {cex}"


def test_scripts_stay_valid_under_combine():
    for key, script in all_law_scripts(ST2).items():
        report = check_script(script, CMB)
        assert report.ok, f"{key} over combined: {report.describe()}"
        for step in script.steps:
            eq = step.conclusion
            cex = check_eq(eq.mode, eq.lhs, eq.rhs, M_CMB)
            assert cex is None, f"{key} {step.rule} in combined model: {cex}"


def test_dual_scripts_check_and_hold():
    for key, script in all_law_scripts(ST2).items():
        dual = dualize_script(script, ST2)
        report = check_script(dual, EX2)
        assert report.ok, f"dual {key}: {report.describe()}"
        for step in dual.steps:
            eq = step.conclusion
            cex = check_eq(eq.mode, eq.lhs, eq.rhs, M_EX2)
            assert cex is None, f"dual {key} {step.rule}: {cex}"


def test_double_dual_is_identity():
    for script in all_law_scripts(ST2).values():
        assert dualize_script(dualize_script(script, ST2), EX2) == script


def test_dualized_labels_and_rules():
    dual = dualize_script(law_script(ST2, 1, "x"), ST2)
    rules = {step.rule for step in dual.steps}
    labels = {p for step in dual.steps for p in step.premises
              if isinstance(p, str)}
    assert "repl" in rules and "subs" in rules
    assert labels == {"ex_ax1_x", "ex_ax2_x_y"}


def test_print_parse_round_trip():
    for theory in (ST1, ST2):
        for script in all_law_scripts(theory).values():
            text = print_script(script)
            again = parse_script(text, theory.signature)
            assert print_script(again) == text
            assert check_script(again, theory).ok


def _equations(script):
    return [script.goal] + [step.conclusion for step in script.steps]


def _nodes(script):
    """Every distinct node of a parsed script's equations, each once."""
    stack = [side for eq in _equations(script) for side in (eq.lhs, eq.rhs)]
    seen = {}
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if FORMS[type(node)].kinds == "tt":
                stack += FORMS[type(node)].args(node)
    return list(seen.values())


# A side whose two argument texts the script has read before is built
# from their nodes; these tests pin that it is the term `parse_term`
# gives, that it shares nodes, that errors are unchanged, and that the
# cut of a side is linear in its length.

_TWO_TERM_FORMS = (Comp, PairSeq, CaseSeq)


def _tamper(term, kind):
    """`term` with the arguments of its top node swapped ("swap") or
    under the next form of two terms ("rehead"); other terms as they are.
    The result may be ill-typed, which parsing does not check."""
    form = FORMS[type(term)]
    if form.kinds != "tt":
        return term
    a, b = form.args(term)
    if kind == "swap":
        return type(term)(b, a)
    return _TWO_TERM_FORMS[(_TWO_TERM_FORMS.index(type(term)) + 1) % 3](a, b)


def _law_scripts_and_tampered_copies():
    scripts = [(s, ST1) for s in all_law_scripts(ST1).values()]
    scripts += [(s, ST2) for s in all_law_scripts(ST2).values()]
    scripts += [(dualize_script(s, ST2), EX2) for s in all_law_scripts(ST2).values()]
    for script, theory in list(scripts):
        for kind in ("swap", "rehead"):
            def tamper(eq):
                return Equation(eq.mode, _tamper(eq.lhs, kind), _tamper(eq.rhs, kind))
            copy = ProofScript(tamper(script.goal), tuple(
                ProofStep(step.rule, step.premises, tamper(step.conclusion))
                for step in script.steps))
            scripts.append((copy, theory))
    return scripts


def test_script_sides_parse_as_alone_and_repeats_share_a_term():
    """Law scripts and copies whose sides are new forms of texts read
    before give back their text, and each side is the term it parses to
    alone, with the same canonical key."""
    for script, theory in _law_scripts_and_tampered_copies():
        text = print_script(script)
        parsed = parse_script(text, theory.signature)
        assert print_script(parsed) == text
        for eq in _equations(parsed):
            for side in (eq.lhs, eq.rhs):
                alone = parse_term(print_term(side), theory.signature)
                assert side == alone
                assert canonical_key(side) == canonical_key(alone)
        # Within one script, subterms that print alike are one node:
        # every side, and every subterm of one.
        by_text = {}
        for node in _nodes(parsed):
            assert by_text.setdefault(print_term(node), node) is node


def test_two_parses_of_one_script_share_no_node():
    text = print_script(law_script(ST2, 6, "x", "y"))
    first, second = (parse_script(text, ST2.signature) for _ in range(2))
    assert check_script(first, ST2).ok and check_script(second, ST2).ok
    assert not {id(node) for node in _nodes(first)} & {id(node) for node in _nodes(second)}


def _count_parses(monkeypatch):
    """The texts `declogic.syntax.parse_term` is called on from now on."""
    texts = []
    original = syntax.parse_term
    monkeypatch.setattr(syntax, "parse_term",
                        lambda text, *args: texts.append(text) or original(text, *args))
    return texts


def test_a_side_of_texts_read_before_is_built_without_parsing(monkeypatch):
    look, put = "op(lookup_x)", "op(update_x)"
    first, second = f"comp({look}, {put})", f"comp({put}, {look})"
    parses = _count_parses(monkeypatch)
    script = parse_script(
        f"goal strong {first} = {second}\n"
        f"step 1: refl [] |- weak pair({first}, {second}) = pair({first}, {second})\n"
        f"step 2: refl [] |- weak case({look}, {put}) = comp({put}, {look})\n",
        ST1.signature)
    goal, one, two = _equations(script)
    # Parsing the goal's left side enters `look` and `put` as its argument
    # texts; every later side is built from texts read before.
    assert parses == [first]
    assert goal.rhs.outer is goal.lhs.inner and goal.rhs.inner is goal.lhs.outer
    assert one.lhs is one.rhs
    assert one.lhs.first is goal.lhs and one.lhs.second is goal.rhs
    assert two.lhs.on_left is goal.lhs.outer and two.lhs.on_right is goal.lhs.inner
    assert two.rhs is goal.rhs


@pytest.mark.parametrize("side", ["comp(op(lookup_x),op(update_x))",
                                  "comp( op(lookup_x), op(update_x))",
                                  "comp(op(lookup_x), op(update_x) )"])
def test_a_side_spaced_otherwise_is_parsed_to_the_same_node(monkeypatch, side):
    printed = "comp(op(lookup_x), op(update_x))"
    parses = _count_parses(monkeypatch)
    script = parse_script(f"goal strong {printed} = op(lookup_x)\n"
                          f"step 1: refl [] |- weak {side} = {printed}\n", ST1.signature)
    assert parses[-1] == side
    assert script.steps[0].conclusion.lhs is script.goal.lhs


# Each side's argument texts were read in the goal; the messages and
# columns are the ones parsing the side alone gives.
MALFORMED = [
    ("cmop(op(update_x), op(lookup_x))", "unknown term form 'cmop'", 25),
    ("comp(op(update_x), op(lookup_x)", "expected ')'", 56),
    ("comp(op(update_x), op(lookup_x)) x", "unexpected trailing input", 58),
    ("comp(op(update_x), op(lookup_x)))", "unexpected trailing input", 57),
    ("pair(op(update_x), op(lookup_x)) (x)", "unexpected trailing input", 58),
]


@pytest.mark.parametrize("side, message, col", MALFORMED)
def test_a_malformed_side_of_known_argument_texts_is_a_parse_error(side, message, col):
    text = ("goal strong comp(op(update_x), op(lookup_x)) = id(V)\n"
            f"step 1: refl [] |- weak {side} = id(V)\n")
    with pytest.raises(ParseError) as info:
        parse_script(text, ST1.signature)
    assert (info.value.message, info.value.line, info.value.col) == (message, 2, col)


def test_cutting_a_left_nested_side_is_linear():
    """The argument comma of a left-nested pair is its last one."""
    def goal(depth):
        side = "pair(" * depth + "op(lookup_x)" + ", op(lookup_x))" * depth
        return f"goal strong {side} = {side}\n"

    # Best of 3 at each size, taken in turns, so that a busy spell of the
    # host slows both sizes alike.
    texts = {depth: goal(depth) for depth in (10_000, 20_000)}
    best = {depth: float("inf") for depth in texts}
    for _ in range(3):
        for depth, text in texts.items():
            gc.collect()
            start = time.perf_counter()
            script = parse_script(text, ST1.signature)
            best[depth] = min(best[depth], time.perf_counter() - start)
            assert script.goal.lhs is script.goal.rhs
    assert best[20_000] / best[10_000] < 3, best


def test_parse_errors_give_script_line_and_column():
    lines = [
        "goal weak op(lookup_x) = op(lookup_x)",
        "step 1: refl [] |- weak op(lookup_x) = op(lookup_x)",
        "  step 2: refl []  |-  weak op(lookup_x) =   comp(op(lookup_x), op(nope))",
    ]
    with pytest.raises(ParseError) as info:
        parse_script("\n".join(lines) + "\n", ST1.signature)
    err = info.value
    assert (err.line, err.col) == (3, lines[2].index("op(nope)") + 1)
    assert str(err) == (f"operation 'nope' is not declared "
                        f"(line 3, column {err.col})")
    # a lhs error, after a comment line and with a repeated good side
    text = ("# header\n"
            "goal weak op(lookup_x) = op(lookup_x)\n"
            "step 1: refl [] |- strong comp(op(lookup_x) = op(lookup_x)\n")
    with pytest.raises(ParseError) as info:
        parse_script(text, ST1.signature)
    line = text.splitlines()[2]
    assert (info.value.line, info.value.col) == (3, line.index(" = ") + 1)
    assert info.value.message == "expected ','"


def test_law_script_argument_errors():
    from declogic.theory import TheoryError
    with pytest.raises(TheoryError):
        law_script(ST1, 5, "x")
    with pytest.raises(TheoryError):
        law_script(ST2, 6, "x", "x")
    with pytest.raises(TheoryError):
        law_script(ST2, 8)


# ---------------------------------------------------------------------------
# Step checking


def axiom_step(theory, label):
    ax = theory.axioms[label]
    return ProofStep("axiom", (label,), ax)


def test_axiom_step_checks():
    check_step(axiom_step(ST2, "st_ax1_x"), [], ST2)


def test_axiom_unknown_label():
    ax = ST2.axioms["st_ax1_x"]
    with pytest.raises(PremiseShapeMismatch):
        check_step(ProofStep("axiom", ("st_ax1_z",), ax), [], ST2)


def test_axiom_wrong_mode():
    ax = ST2.axioms["st_ax1_x"]
    stronger = strong(ax.lhs, ax.rhs)
    with pytest.raises(PremiseShapeMismatch):
        check_step(ProofStep("axiom", ("st_ax1_x",), stronger), [], ST2)


def test_axiom_wrong_equation():
    ax_x = ST2.axioms["st_ax1_x"]
    with pytest.raises(PremiseShapeMismatch):
        check_step(ProofStep("axiom", ("st_ax1_y",), ax_x), [], ST2)


def test_forward_reference_rejected():
    ax = ST2.axioms["st_ax1_x"]
    step = ProofStep("sym", (1,), weak(ax.rhs, ax.lhs))
    with pytest.raises(PremiseShapeMismatch):
        check_step(step, [], ST2)


def test_label_outside_axiom_rejected():
    ax = ST2.axioms["st_ax1_x"]
    step = ProofStep("sym", ("st_ax1_x",), weak(ax.rhs, ax.lhs))
    with pytest.raises(PremiseShapeMismatch):
        check_step(step, [], ST2)


def test_unknown_rule():
    ax = ST2.axioms["st_ax1_x"]
    with pytest.raises(UnknownRule):
        check_step(ProofStep("induction", (), ax), [], ST2)


def test_effect_accepts_accessor_sides():
    lookup = lookup_op(ST2, "x")
    bang = Bang(lookup.target)
    premise = weak(Comp(bang, lookup), Id(UNIT_T))
    check_rule("effect", strong(premise.lhs, premise.rhs), [premise], ST2)


def test_effect_rejects_modifier_sides():
    ax = ST2.axioms["st_ax1_x"]
    with pytest.raises(SideConditionViolated):
        check_rule("effect", strong(ax.lhs, ax.rhs), [ax], ST2)


def test_weak_repl_rejects_state_reading_outer_term():
    ax = ST2.axioms["st_ax1_x"]
    update = update_op(ST2, "x")
    conclusion = weak(Comp(update, ax.lhs), Comp(update, ax.rhs))
    with pytest.raises(SideConditionViolated):
        check_rule("repl", conclusion, [ax], ST2)


def test_strong_repl_allows_any_outer_term():
    lookup = lookup_op(ST2, "x")
    premise = strong(Comp(Bang(lookup.target), lookup), Id(UNIT_T))
    conclusion = strong(Comp(lookup, premise.lhs), Comp(lookup, premise.rhs))
    check_rule("repl", conclusion, [premise], ST2)


def test_weak_subs_rejects_raising_inner_term():
    from declogic.theory import untag_op
    raiser = Comp(untag_op(CMB, "x"), tag_op(CMB, "x"))
    premise = CMB.axioms["st_ax1_x"]
    conclusion = weak(Comp(premise.lhs, raiser), Comp(premise.rhs, raiser))
    with pytest.raises(SideConditionViolated):
        check_rule("subs", conclusion, [premise], CMB)


def test_subs_premise_must_be_a_suffix():
    ax = ST2.axioms["st_ax1_x"]
    lookup = lookup_op(ST2, "x")
    conclusion = weak(Comp(lookup, Id(UNIT_T)), Comp(lookup, Id(UNIT_T)))
    with pytest.raises(PremiseShapeMismatch):
        check_rule("subs", conclusion, [ax], ST2)


def test_subs_inner_terms_must_agree():
    ax = ST2.axioms["st_ax1_x"]
    lx, ly = lookup_op(ST2, "x"), lookup_op(ST2, "y")
    conclusion = weak(Comp(ax.lhs, lx), Comp(ax.rhs, ly))
    with pytest.raises(PremiseShapeMismatch):
        check_rule("subs", conclusion, [ax], ST2)


def test_trans_requires_matching_middle():
    ax_x = ST2.axioms["st_ax1_x"]
    ax_y = ST2.axioms["st_ax1_y"]
    conclusion = weak(ax_x.lhs, ax_y.rhs)
    with pytest.raises(PremiseShapeMismatch):
        check_rule("trans", conclusion, [ax_x, ax_y], ST2)


def test_trans_mode_is_strict():
    lookup = lookup_op(ST2, "x")
    a = strong(lookup, lookup)
    b = weak(lookup, lookup)
    with pytest.raises(PremiseShapeMismatch):
        check_rule("trans", weak(lookup, lookup), [a, b], ST2)


def test_obs_requires_every_observer():
    script = law_script(ST2, 1, "x")
    *steps, final = script.steps
    trimmed = ProofStep("obs", final.premises[:1], final.conclusion)
    with pytest.raises(PremiseShapeMismatch):
        check_step(trimmed, [s.conclusion for s in steps], ST2)


def test_obs_premises_must_be_weak():
    lookup = lookup_op(ST1, "x")
    premise = strong(Comp(lookup, Id(UNIT_T)), Comp(lookup, Id(UNIT_T)))
    conclusion = strong(Id(UNIT_T), Id(UNIT_T))
    with pytest.raises(PremiseShapeMismatch):
        check_rule("obs", conclusion, [premise], ST1)


def test_obs_rejects_raising_sides_in_combined():
    # same-tag throws after different writes agree under every lookup but
    # leave different states behind, so obs must refuse raising sides
    from declogic.terms import Absurd, Const
    tag = tag_op(CMB, "x")
    update = update_op(CMB, "x")
    v = Base("V")

    def throw_after(written):
        write = Comp(update, Const(written, v))
        return Comp(Absurd(UNIT_T), Comp(tag, Comp(Const(0, v), write)))

    f, g = throw_after(0), throw_after(1)
    assert check_eq(Mode.STRONG, f, g, M_CMB) is not None
    observers = [lookup_op(CMB, "x"), lookup_op(CMB, "y")]
    premises = [weak(Comp(o, f), Comp(o, g)) for o in observers]
    for premise in premises:
        assert check_eq(Mode.WEAK, premise.lhs, premise.rhs, M_CMB) is None
    with pytest.raises(SideConditionViolated):
        check_rule("obs", strong(f, g), premises, CMB)


def test_pair_cong_weak_first_premise_needs_conditions():
    lookup = lookup_op(ST2, "x")
    update = update_op(ST2, "x")
    v = lookup.target
    ax = ST2.axioms["st_ax1_x"]
    # second components read the state after weakly-differing writes
    bad = weak(PairSeq(ax.lhs, Comp(lookup, Bang(v))),
               PairSeq(ax.rhs, Comp(lookup, Bang(v))))
    with pytest.raises(SideConditionViolated):
        check_rule("pair-cong", bad, [ax, strong(Comp(lookup, Bang(v)),
                                                 Comp(lookup, Bang(v)))], ST2)
    assert update is not None


def test_pair_cong_strong_conclusion_needs_strong_premises():
    lookup = lookup_op(ST2, "x")
    ax = ST2.axioms["st_ax1_x"]
    refl = strong(lookup, lookup)
    conclusion = strong(PairSeq(ax.lhs, lookup), PairSeq(ax.rhs, lookup))
    with pytest.raises(PremiseShapeMismatch):
        check_rule("pair-cong", conclusion, [ax, refl], ST2)


def test_pair_proj_2_conditions():
    lookup = lookup_op(ST2, "x")
    update = update_op(ST2, "x")
    v = lookup.target
    writer = Comp(update, Id(v))
    pair = PairSeq(writer, Comp(lookup, Bang(v)))
    lhs = Comp(Proj2(UNIT_T, v), pair)
    rhs = Comp(lookup, Bang(v))
    # the first component writes and the second reads: rejected weakly
    with pytest.raises(SideConditionViolated):
        check_rule("pair-proj-2", weak(lhs, rhs), [], ST2)
    # with a state-blind second component the weak form is fine
    blind = PairSeq(writer, Bang(v))
    check_rule("pair-proj-2",
               weak(Comp(Proj2(UNIT_T, UNIT_T), blind), Bang(v)), [], ST2)
    # strongly the first component must preserve the state
    with pytest.raises(SideConditionViolated):
        check_rule("pair-proj-2",
                   strong(Comp(Proj2(UNIT_T, UNIT_T), blind), Bang(v)),
                   [], ST2)


def test_side_conditions_carry_their_names():
    ax = ST2.axioms["st_ax1_x"]
    update = update_op(ST2, "x")
    conclusion = weak(Comp(update, ax.lhs), Comp(update, ax.rhs))
    with pytest.raises(SideConditionViolated) as info:
        check_rule("repl", conclusion, [ax], ST2,
                   drop=frozenset({"subs.weak-inner-raise-free"}))
    assert info.value.condition == "repl.weak-outer-state-blind"
    assert str(info.value) == "weak replacement needs a state-blind outer term"
    # a dropped condition counts as met
    check_rule("repl", conclusion, [ax], ST2,
               drop=frozenset({"repl.weak-outer-state-blind"}))


def test_rules_reject_malformed_shapes():
    lx, ly = lookup_op(ST2, "x"), lookup_op(ST2, "y")
    with pytest.raises(PremiseShapeMismatch):
        check_rule("refl", weak(lx, ly), [], ST2)
    with pytest.raises(PremiseShapeMismatch):
        check_rule("pair-proj-1", weak(lx, lx), [], ST2)
    with pytest.raises(PremiseShapeMismatch):
        check_rule("pair-comp", weak(lx, lx), [], ST2)


def test_refl_accepts_reassociated_chains():
    lx, ly = lookup_op(ST2, "x"), lookup_op(ST2, "y")
    pair = PairSeq(lx, ly)
    left = Comp(Comp(Proj2(Base("V"), Base("V")), pair), Id(UNIT_T))
    right = Comp(Proj2(Base("V"), Base("V")), Comp(pair, Id(UNIT_T)))
    check_rule("refl", strong(left, right), [], ST2)


# ---------------------------------------------------------------------------
# Script level


def test_script_goal_subsumption_strong_for_weak():
    lookup = lookup_op(ST1, "x")
    goal = weak(Comp(Bang(lookup.target), lookup), Id(UNIT_T))
    b = ScriptBuilder(ST1, goal)
    w = b.unit_weak(goal.lhs, goal.rhs)
    b.effect(w)
    assert check_script(b.script(), ST1).ok


def test_script_weak_final_cannot_prove_strong_goal():
    ax = ST1.axioms["st_ax1_x"]
    goal = strong(ax.lhs, ax.rhs)
    script = ProofScript(goal, (axiom_step(ST1, "st_ax1_x"),))
    report = check_script(script, ST1)
    assert not report.ok
    assert any("strong" in msg for _, msg in report.errors)


def test_script_last_step_must_match_goal():
    ax = ST1.axioms["st_ax1_x"]
    goal = weak(ax.lhs, ax.lhs)
    script = ProofScript(goal, (axiom_step(ST1, "st_ax1_x"),))
    report = check_script(script, ST1)
    assert not report.ok


def test_empty_script_rejected():
    ax = ST1.axioms["st_ax1_x"]
    report = check_script(ProofScript(ax, ()), ST1)
    assert not report.ok


def test_check_script_collects_all_errors():
    ax = ST1.axioms["st_ax1_x"]
    bad = ProofStep("sym", (1,), ax)
    script = ProofScript(ax, (axiom_step(ST1, "st_ax1_x"), bad, bad))
    report = check_script(script, ST1)
    numbers = [n for n, _ in report.errors]
    assert numbers == [2, 3]


def test_builder_rejects_invalid_step_eagerly():
    b = ScriptBuilder(ST1, ST1.axioms["st_ax1_x"])
    with pytest.raises(PremiseShapeMismatch):
        b.add("sym", [1], Mode.WEAK, Id(UNIT_T), Id(UNIT_T))


def test_report_describe_mentions_step():
    ax = ST1.axioms["st_ax1_x"]
    script = ProofScript(ax, (ProofStep("axiom", ("nope",), ax),))
    text = check_script(script, ST1).describe()
    assert "step 1" in text


# ---------------------------------------------------------------------------
# Script parsing


def test_parse_rejects_missing_goal():
    with pytest.raises(ParseError):
        parse_script("step 1: refl [] |- weak id(unit) = id(unit)\n",
                     ST1.signature)


def test_parse_rejects_out_of_order_steps():
    text = ("goal weak id(unit) = id(unit)\n"
            "step 2: refl [] |- weak id(unit) = id(unit)\n")
    with pytest.raises(ParseError):
        parse_script(text, ST1.signature)


def test_parse_rejects_missing_turnstile():
    text = ("goal weak id(unit) = id(unit)\n"
            "step 1: refl [] weak id(unit) = id(unit)\n")
    with pytest.raises(ParseError):
        parse_script(text, ST1.signature)


def test_parse_rejects_bad_mode():
    with pytest.raises(ParseError):
        parse_script("goal loose id(unit) = id(unit)\n", ST1.signature)


def test_parse_rejects_non_decimal_step_number():
    text = ("goal weak id(unit) = id(unit)\n"
            "step ²: refl [] |- weak id(unit) = id(unit)\n")
    with pytest.raises(ParseError) as info:
        parse_script(text, ST1.signature)
    assert info.value.message == "bad number '²'"
    assert (info.value.line, info.value.col) == (2, 6)


def test_parse_accepts_unicode_turnstile_and_comments():
    text = ("# annihilation, single location\n"
            "goal weak comp(op(lookup_x), op(update_x)) = id(V)\n"
            "step 1: axiom [st_ax1_x] ⊢ weak "
            "comp(op(lookup_x), op(update_x)) = id(V)\n")
    script = parse_script(text, ST1.signature)
    assert check_script(script, ST1).ok
    assert script.steps[0].premises == ("st_ax1_x",)


# ---------------------------------------------------------------------------
# Random chains stay sound


_INNER_POOL = [lookup_op(ST2, "x"), lookup_op(ST2, "y"),
               update_op(ST2, "x"), Id(Base("V")), Bang(Base("V"))]
_OUTER_POOL = [Id(UNIT_T), Id(Base("V")), Bang(Base("V")),
               PairSeq(Id(Base("V")), Id(Base("V")))]


@given(st.lists(st.sampled_from(_INNER_POOL), max_size=3),
       st.lists(st.sampled_from(_OUTER_POOL), max_size=3),
       st.sampled_from(["st_ax1_x", "st_ax1_y", "st_ax2_x_y", "st_ax2_y_x"]))
def test_random_weak_contexts_preserve_model_truth(inner, outer, label):
    """Any subs/repl chain the checker accepts must hold in the model.

    Inner terms may have any state decoration; outer ones are drawn
    state-blind so the weak replacement condition holds by construction.
    """
    b = ScriptBuilder(ST2, ST2.axioms[label])
    index = b.axiom(label)
    for h in inner:
        if h.target != b.eq(index).lhs.source:
            continue
        index = b.subs(index, h)
    for h in outer:
        if h.source != b.eq(index).lhs.target:
            continue
        index = b.repl(index, h)
    eq = b.eq(index)
    assert check_eq(eq.mode, eq.lhs, eq.rhs, M_ST2) is None
