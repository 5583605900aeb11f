"""Probe calibration: honest rules survive randomized adversarial steps
while deliberately weakened checkers are caught within the sample budget."""

import ast
import inspect
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declogic.generate import GenerationError, random_term, type_pool
from declogic.model import (UNIT, FiniteModel, ModelError, build_model, check_eq,
                            check_strong_eq, check_weak_eq, eval_term,
                            scan_inputs, scan_points, validate_model)
from declogic import rules
from declogic.probes import (
    _SAMPLERS,
    NoCandidate,
    ProbeContext,
    UNSOUND_VARIANTS,
    probe_all,
    probe_variant,
    soundness_probe,
)
from declogic.rules import DUAL_RULE, RULES, RuleError, check_rule, dual_name
from declogic import model as model_module
from declogic import probes
from declogic.terms import (CHILDREN, Bang, CaseSeq, Comp, Const, Decoration,
                            Equation, Id, Mode, Op, OpSymbol, PairSeq, typecheck)
from declogic.theory import (
    TheoryError,
    combine,
    dual_symbol_map,
    dualize,
    dualize_equation,
    lookup_op,
    states_theory,
)
from declogic.types import EMPTY_T, UNIT_T, Base, Prod, Sum
from test_model import _pure_tag_theory

ST = states_theory({"x": "V", "y": "V"})
EX = dualize(ST)
CMB = combine(ST, EX)
CARRIERS = {"V": (0, 1)}
FLAVORS = {
    "states": (ST, build_model(ST, CARRIERS)),
    "exceptions": (EX, build_model(EX, CARRIERS)),
    "combined": (CMB, build_model(CMB, CARRIERS)),
}


# ---------------------------------------------------------------------------
# Term generation


def test_type_pool_tracks_flavor():
    states_pool = type_pool(ST)
    assert EMPTY_T not in states_pool
    assert UNIT_T in states_pool and Base("V") in states_pool
    for theory in (EX, CMB):
        assert EMPTY_T in type_pool(theory)


@pytest.mark.parametrize("flavor", list(FLAVORS))
def test_random_terms_well_typed_and_total(flavor):
    theory, model = FLAVORS[flavor]
    pool = type_pool(theory)
    rng = random.Random(11)
    made = 0
    from declogic.model import enumerate_points, eval_term

    for _ in range(200):
        src, tgt = rng.choice(pool), rng.choice(pool)
        try:
            term = random_term(rng, theory, model, src, tgt, depth=3)
        except GenerationError:
            continue
        assert term.source == src and term.target == tgt
        assert typecheck(term, theory.signature).ok
        for state in model.states:
            for v in enumerate_points(src, model) + list(model.exc_values):
                eval_term(term, model, v, state)
        made += 1
    assert made >= 150


def test_states_terms_cannot_raise_or_catch():
    rng = random.Random(3)
    _, model = FLAVORS["states"]
    for _ in range(100):
        src, tgt = rng.choice(type_pool(ST)), rng.choice(type_pool(ST))
        term = random_term(rng, ST, model, src, tgt, depth=3)
        assert term.decoration.exc == 0


def test_depth_zero_falls_back_to_bridges():
    rng = random.Random(0)
    _, model = FLAVORS["states"]
    v = Base("V")
    assert random_term(rng, ST, model, v, v, depth=0) == Id(v)
    assert random_term(rng, ST, model, v, UNIT_T, depth=0) == Bang(v)
    bridged = random_term(rng, ST, model, v, Sum(v, UNIT_T), depth=0)
    assert isinstance(bridged, Comp)
    assert isinstance(bridged.outer, Const) and isinstance(bridged.inner, Bang)


def test_pointless_target_is_a_generation_error():
    rng = random.Random(0)
    _, model = FLAVORS["states"]
    with pytest.raises(GenerationError):
        random_term(rng, ST, model, Base("V"), EMPTY_T, depth=2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(sorted(FLAVORS)))
def test_generated_decorations_bound_by_join_of_ops(seed, flavor):
    theory, model = FLAVORS[flavor]
    rng = random.Random(seed)
    pool = type_pool(theory)
    src, tgt = rng.choice(pool), rng.choice(pool)
    try:
        term = random_term(rng, theory, model, src, tgt, depth=3)
    except GenerationError:
        return
    cap_state = max((op.decoration.state for op in theory.signature.values()),
                    default=0)
    cap_exc = max((op.decoration.exc for op in theory.signature.values()),
                  default=0)
    assert term.decoration.state <= cap_state
    assert term.decoration.exc <= cap_exc


# ---------------------------------------------------------------------------
# Pools and buckets


def test_strong_buckets_agree_with_model():
    theory, model = FLAVORS["combined"]
    ctx = ProbeContext(theory, model, random.Random(5))
    v = Base("V")
    for src, tgt in [(UNIT_T, UNIT_T), (v, v), (UNIT_T, v)]:
        pair = ctx.equal_pair(src, tgt, Mode.STRONG)
        assert pair is not None
        f, g = pair
        assert check_strong_eq(f, g, model) is None


def test_weak_only_pairs_differ_strongly():
    theory, model = FLAVORS["states"]
    ctx = ProbeContext(theory, model, random.Random(5))
    pair = ctx.weak_only_pair(UNIT_T, UNIT_T)
    assert pair is not None
    f, g = pair
    assert check_weak_eq(f, g, model) is None
    assert check_strong_eq(f, g, model) is not None


# ---------------------------------------------------------------------------
# Honest rules


@pytest.mark.parametrize("flavor", list(FLAVORS))
def test_probing_honest_rules_finds_no_violation(flavor):
    theory, model = FLAVORS[flavor]
    reports = probe_all(theory, model, samples=120, seed=0)
    assert set(reports) == set(RULES)
    for rule, report in reports.items():
        assert report.ok, report.describe()
    never_fired = {rule for rule, report in reports.items()
                   if report.accepted == 0}
    if flavor == "states":
        assert never_fired == {"empty-weak", "case-absurd-2"}
    else:
        assert never_fired == set()


# Per rule, (accepted, rejected, skipped) of probe_all(samples=200,
# seed=0) over states, exceptions and combined, as recorded from the
# samplers written once per mirror pair over `STATE` and `EXC`.
PINNED_VERDICTS = {
    "refl": ((200, 0, 0), (200, 0, 0), (200, 0, 0)),
    "sym": ((200, 0, 0), (200, 0, 0), (200, 0, 0)),
    "trans": ((200, 0, 0), (200, 0, 0), (200, 0, 0)),
    "strong-to-weak": ((200, 0, 0), (200, 0, 0), (200, 0, 0)),
    "subs": ((200, 0, 0), (133, 67, 0), (147, 53, 0)),
    "repl": ((125, 75, 0), (200, 0, 0), (128, 72, 0)),
    "effect": ((16, 184, 0), (21, 179, 0), (12, 188, 0)),
    "obs": ((24, 0, 176), (39, 0, 161), (13, 112, 75)),
    "pair-cong": ((135, 65, 0), (200, 0, 0), (171, 29, 0)),
    "case-cong": ((200, 0, 0), (152, 48, 0), (186, 14, 0)),
    "unit-weak": ((200, 0, 0), (60, 140, 0), (105, 95, 0)),
    "empty-weak": ((0, 0, 200), (200, 0, 0), (141, 59, 0)),
    "pair-proj-1": ((122, 78, 0), (50, 150, 0), (57, 143, 0)),
    "pair-proj-2": ((85, 115, 0), (51, 149, 0), (45, 155, 0)),
    "case-inj-1": ((18, 182, 0), (155, 45, 0), (35, 165, 0)),
    "case-inj-2": ((29, 171, 0), (114, 86, 0), (28, 172, 0)),
    "pair-bang-2": ((200, 0, 0), (143, 57, 0), (163, 37, 0)),
    "case-absurd-2": ((0, 0, 200), (200, 0, 0), (140, 60, 0)),
    "pair-fuse-2": ((200, 0, 0), (106, 94, 0), (150, 50, 0)),
    "case-fuse-2": ((64, 136, 0), (200, 0, 0), (117, 83, 0)),
    "pair-comp": ((47, 153, 0), (69, 131, 0), (46, 154, 0)),
    "case-comp": ((33, 167, 0), (78, 122, 0), (39, 161, 0)),
}


def test_probe_verdicts_are_pinned():
    for i, flavor in enumerate(FLAVORS):
        theory, model = FLAVORS[flavor]
        reports = probe_all(theory, model, samples=200, seed=0)
        got = {rule: (r.accepted, r.rejected, r.skipped)
               for rule, r in reports.items()}
        assert got == {rule: triples[i]
                       for rule, triples in PINNED_VERDICTS.items()}, flavor


class _ComparingContext(ProbeContext):
    """A context whose every check is compared with `check_eq`."""

    checks = 0

    def check(self, eq):
        got = super().check(eq)
        assert got == check_eq(eq.mode, eq.lhs, eq.rhs, self.model), eq
        self.checks += 1
        return got


def _counting(monkeypatch, counts, name, owners):
    original = getattr(owners[0], name)

    def wrapper(*args):
        counts[name] += 1
        return original(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("flavor", list(FLAVORS))
def test_checks_from_tables_agree_with_check_eq(flavor, monkeypatch):
    """Every premise and conclusion the probe_all draws check, answered
    from composed behavior tables, gets `check_eq`'s verdict and
    counterexample, and none falls back to a scan."""
    theory, model = FLAVORS[flavor]
    counts = {"check_eq": 0}
    _counting(monkeypatch, counts, "check_eq", [probes])
    ctx = _ComparingContext(theory, model, random.Random(f"0:{flavor}"))
    got = {rule: soundness_probe(rule, theory, model, samples=200, seed=0,
                                 context=ctx)
           for rule in RULES}
    i = list(FLAVORS).index(flavor)
    assert {rule: (r.accepted, r.rejected, r.skipped)
            for rule, r in got.items()} == \
        {rule: triples[i] for rule, triples in PINNED_VERDICTS.items()}
    assert ctx.checks > 0 and counts["check_eq"] == 0


@pytest.mark.parametrize("flavor", list(FLAVORS))
def test_tables_give_check_eq_counterexamples(flavor):
    """Every pair of pool members, at both strengths, including the
    pairs that differ, so that each position maps back to its point."""
    theory, model = FLAVORS[flavor]
    ctx = ProbeContext(theory, model, random.Random(3))
    differ = 0
    for src, tgt in ctx._pairs[:6]:
        pool = ctx.pool(src, tgt)
        for f in pool:
            for g in pool:
                for mode in Mode:
                    want = check_eq(mode, f, g, model)
                    assert ctx.check(Equation(mode, f, g)) == want
                    differ += want is not None
    assert differ > 100


def _eval_table(model, term):
    """The table `ProbeContext.tables` composes, from `eval_term` at each
    point."""
    inputs, index = scan_inputs(term.target, model)
    state = {s: i for i, s in enumerate(model.states)}
    return tuple(state[out.state] * len(inputs) + index[out.value]
                 for out in (eval_term(term, model, v, s)
                             for v, s in scan_points(term.source, model)))


def _composite(ctx, rng, src, tgt, depth):
    """A random term src -> tgt: a pool member, or a `Comp`, `PairSeq` or
    `CaseSeq` of smaller composites."""
    shape = rng.randrange(4) if depth else 0
    if shape == 1:
        mid = ctx.some_type()
        return Comp(_composite(ctx, rng, mid, tgt, depth - 1),
                    _composite(ctx, rng, src, mid, depth - 1))
    if shape == 2 and isinstance(tgt, Prod):
        return PairSeq(_composite(ctx, rng, src, tgt.left, depth - 1),
                       _composite(ctx, rng, src, tgt.right, depth - 1))
    if shape == 3 and isinstance(src, Sum):
        return CaseSeq(_composite(ctx, rng, src.left, tgt, depth - 1),
                       _composite(ctx, rng, src.right, tgt, depth - 1))
    return ctx.rand(src, tgt)


def _nodes(term):
    todo = [term]
    while todo:
        t = todo.pop()
        yield t
        if type(t) in CHILDREN:
            todo += CHILDREN[type(t)](t)


@pytest.mark.parametrize("flavor", list(FLAVORS))
def test_composed_tables_are_eval_term_tables(flavor, monkeypatch):
    """Composites of pool members, catchers and raising case branches
    among them, get the table `eval_term` gives, and each check of two of
    them `check_eq`'s answer, with no scan."""
    theory, model = FLAVORS[flavor]
    ctx = ProbeContext(theory, model, random.Random(f"compose:{flavor}"))
    rng = random.Random(flavor)
    monkeypatch.setattr(probes, "check_eq", None)
    seen = set()
    for _ in range(300):
        src, tgt = ctx.some_type(), ctx.some_type()
        try:
            lhs, rhs = (_composite(ctx, rng, src, tgt, 3) for _ in range(2))
        except NoCandidate:
            continue
        for term in (lhs, rhs):
            assert ctx.tables(term) == _eval_table(model, term), term
            for t in _nodes(term):
                seen.add(type(t).__name__)
                if isinstance(t, CaseSeq) and t.on_right.decoration.exc:
                    seen.add("raising right branch")
                if t.decoration.exc == 2:
                    seen.add("catcher")
        for mode in Mode:
            assert ctx.check(Equation(mode, lhs, rhs)) == \
                check_eq(mode, lhs, rhs, model)
    effects = {"raising right branch", "catcher"} if theory.exceptions else set()
    assert {"Comp", "PairSeq", "CaseSeq"} | effects <= seen


V = Base("V")
_ONE_X = states_theory({"x": "V"})
# A model of `_ONE_X` written out by hand, not made by `build_model`.
_HAND = FiniteModel(
    carriers=CARRIERS, locations={"x": "V"}, exceptions={},
    interps={"lookup_x": {(UNIT, (x,)): (x, (x,)) for x in (0, 1)},
             "update_x": {(v, (x,)): (UNIT, (v,)) for v in (0, 1) for x in (0, 1)}})
# Where x is 1, this lookup gives 7, off its carrier.
_OFF_CARRIER = FiniteModel(
    carriers=CARRIERS, locations={"x": "V"}, exceptions={},
    interps={**_HAND.interps,
             "lookup_x": {(UNIT, (0,)): (0, (0,)), (UNIT, (1,)): (7, (1,))}})
_PURE_TAG = _pure_tag_theory()
BROKEN = {"pure tag": (_PURE_TAG, build_model(_PURE_TAG, CARRIERS)),
          "off carrier": (_ONE_X, _OFF_CARRIER)}
PROBES = {
    "ProbeContext": lambda th, m: ProbeContext(th, m, random.Random(0)),
    "probe_all": lambda th, m: probe_all(th, m, samples=20),
    "soundness_probe": lambda th, m: soundness_probe("subs", th, m, samples=20),
    "probe_variant": lambda th, m: probe_variant("subs_weak_any_h", th, m, samples=20),
}


@pytest.mark.parametrize("probe", list(PROBES))
@pytest.mark.parametrize("broken", list(BROKEN))
def test_a_model_that_breaks_its_theory_is_refused(broken, probe):
    """The rules need not be sound in such a model, so a probe over it
    would report violations of sound rules."""
    theory, model = BROKEN[broken]
    first = validate_model(model, theory)[0]
    with pytest.raises(ModelError, match=re.escape(first)):
        PROBES[probe](theory, model)


def test_refusal_names_the_pure_operation_that_raised():
    with pytest.raises(ModelError, match="tag_e: pure operation raised"):
        probe_all(*BROKEN["pure tag"], samples=200, seed=0)


def test_checks_refuse_undeclared_ops_and_sides_of_two_types():
    ctx = ProbeContext(_ONE_X, _HAND, random.Random(0))
    look = lookup_op(_ONE_X, "x")
    pure_look = Op(OpSymbol("lookup_x", UNIT_T, V, Decoration(0, 0)))
    peek = Op(OpSymbol("peek", UNIT_T, V, Decoration(1, 0)))
    bump = Op(OpSymbol("bump", V, V, Decoration(1, 0)))
    for mode in Mode:
        for lhs, name in ((peek, "peek"), (Comp(bump, look), "bump"),
                          (pure_look, "lookup_x")):
            with pytest.raises(ValueError, match=f"operation '{name}'"):
                ctx.check(Equation(mode, lhs, look))
        with pytest.raises(ValueError, match="unit -> V and V -> V"):
            ctx.check(Equation(mode, look, Id(V)))


def test_checks_name_the_types_of_children_that_do_not_meet():
    """Sides of one type can hold a node whose children do not fit:
    the error names the form and both types, as the side-type one does."""
    ctx = ProbeContext(_ONE_X, _HAND, random.Random(0))
    look = lookup_op(_ONE_X, "x")
    for side, message in ((Comp(look, look), "comp arguments differ in type: unit and V"),
                          (PairSeq(look, Id(V)), "pair arguments differ in type: unit and V"),
                          (CaseSeq(look, Bang(V)), "case arguments differ in type: V and unit")):
        for mode in Mode:
            with pytest.raises(ValueError) as err:
                ctx.check(Equation(mode, side, side))
            assert str(err.value) == message


def test_a_hand_written_model_is_probed_through_composed_tables(monkeypatch):
    ctx = ProbeContext(_ONE_X, _HAND, random.Random(0))
    pool = ctx.pool(UNIT_T, V)
    assert any(isinstance(m, Op) for m in pool)
    pairs = [(f, g, mode) for f in pool for g in pool for mode in Mode]
    wanted = [check_eq(mode, f, g, _HAND) for f, g, mode in pairs]
    monkeypatch.setattr(probes, "check_eq", None)  # no scan
    assert [ctx.check(Equation(mode, f, g)) for f, g, mode in pairs] == wanted
    assert None in wanted and set(wanted) != {None}
    assert all(report.ok for report in probe_all(_ONE_X, _HAND, samples=50).values())


def test_a_context_probes_only_its_own_theory_and_model():
    theory, model = FLAVORS["states"]
    ctx = ProbeContext(theory, model, random.Random(0))
    for other in ((states_theory({"x": "V", "y": "V"}), model),
                  (theory, build_model(theory, CARRIERS)), BROKEN["pure tag"]):
        with pytest.raises(ValueError, match="another theory or model"):
            soundness_probe("refl", *other, samples=5, context=ctx)


@pytest.mark.parametrize("name", sorted(UNSOUND_VARIANTS))
def test_variant_counterexamples_are_check_eq_ones(name):
    variant = UNSOUND_VARIANTS[name]
    for flavor in variant.flavors:
        theory, model = FLAVORS[flavor]
        report = probe_variant(name, theory, model, samples=200, seed=0)
        first = report.violations[0]
        conclusion = first.conclusion
        assert first.counterexample == check_eq(
            conclusion.mode, conclusion.lhs, conclusion.rhs, model)


# (check_eq, eval_term) calls in probe_all(samples=200, seed=0): one
# evaluation per point of each op's table, where a non-catching op passes
# exceptional inputs on unevaluated, and no scan.  Evaluating every op at
# its exceptional inputs too took 0/24, 0/20 and 0/168.  Answering only
# checks between pool members from tables, and scanning the rest, took
# 1753/24932, 2163/14109 and 1811/32974; scanning every check took
# 5144/84694, 5627/35979 and 5237/137284.
PINNED_WORK = {
    "states": (0, 24),
    "exceptions": (0, 12),
    "combined": (0, 72),
}


@pytest.mark.parametrize("flavor", list(FLAVORS))
def test_probe_work_is_pinned(flavor, monkeypatch):
    """Every check is answered from composed tables: the model evaluates
    only the operations, once per point."""
    theory, model = FLAVORS[flavor]
    counts = {"check_eq": 0, "eval_term": 0}
    _counting(monkeypatch, counts, "check_eq", [probes])
    _counting(monkeypatch, counts, "eval_term", [probes, model_module])
    probe_all(theory, model, samples=200, seed=0)
    assert (counts["check_eq"], counts["eval_term"]) == PINNED_WORK[flavor]


def test_rejections_are_counted_per_condition():
    theory, model = FLAVORS["states"]
    real = soundness_probe("effect", theory, model, samples=200, seed=0)
    assert real.rejected_by.get("effect.sides-bounded", 0) > 0
    assert sum(real.rejected_by.values()) <= real.rejected
    broken = probe_variant("effect_any_decoration", theory, model,
                           samples=200, seed=0)
    assert "effect.sides-bounded" not in broken.rejected_by


@pytest.mark.parametrize("flavor", list(FLAVORS))
def test_sampled_steps_are_well_typed(flavor):
    """Every side of every sampled premise and conclusion typechecks, and
    the two sides of each equation share their source and target, so a
    sampler that builds an arrow the wrong way round fails here rather
    than only lowering its accept count."""
    theory, model = FLAVORS[flavor]
    ctx = ProbeContext(theory, model, random.Random(f"0:{flavor}"))
    for rule in RULES:
        for _ in range(200):
            try:
                premises, conclusion = _SAMPLERS[rule](ctx)
            except NoCandidate:
                continue
            for eq in (*premises, conclusion):
                for side in (eq.lhs, eq.rhs):
                    assert typecheck(side, theory.signature).ok, (rule, side)
                assert (eq.lhs.source, eq.lhs.target) == \
                    (eq.rhs.source, eq.rhs.target), (rule, eq)


def test_dual_rule_is_an_involution():
    names = set(RULES) | {"axiom"}
    assert set(DUAL_RULE) == names
    for rule, mirror in DUAL_RULE.items():
        assert mirror in names and DUAL_RULE[mirror] == rule


def _verdict(rule, conclusion, premises, theory):
    """None if accepted, else the error class and the condition name."""
    try:
        check_rule(rule, conclusion, premises, theory)
    except RuleError as err:
        return type(err), getattr(err, "condition", None)
    return None


@pytest.mark.parametrize("flavor", ["states", "exceptions"])
def test_mirror_rules_agree_on_dualized_steps(flavor):
    """A rule and its mirror give the same verdict, error class and
    mirrored condition name on a sampled step and its dual."""
    theory, model = FLAVORS[flavor]
    mirror, symbols = dualize(theory), dual_symbol_map(theory)
    ctx = ProbeContext(theory, model, random.Random(f"0:{flavor}"))
    compared = 0
    for rule in RULES:
        for _ in range(200):
            try:
                premises, conclusion = _SAMPLERS[rule](ctx)
            except NoCandidate:
                continue
            try:
                dual_premises = [dualize_equation(p, symbols)
                                 for p in premises]
                dual_conclusion = dualize_equation(conclusion, symbols)
            except TheoryError:  # constants have no dual
                continue
            verdict = _verdict(rule, conclusion, premises, theory)
            dual = _verdict(DUAL_RULE[rule], dual_conclusion, dual_premises,
                            mirror)
            if dual is not None and dual[1] is not None:
                dual = (dual[0], dual_name(dual[1]))
            assert verdict == dual, (rule, conclusion)
            compared += 1
    assert compared >= 900


def test_probe_is_deterministic_per_seed():
    theory, model = FLAVORS["combined"]
    fingerprint = [
        tuple((r.rule, r.accepted, r.rejected, r.skipped, len(r.violations))
              for r in probe_all(theory, model, samples=60, seed=7).values())
        for _ in range(2)
    ]
    assert fingerprint[0] == fingerprint[1]


def test_unknown_rule_is_rejected():
    theory, model = FLAVORS["states"]
    with pytest.raises(ValueError):
        soundness_probe("modus-ponens", theory, model, samples=1)


def test_report_describe_mentions_verdict():
    theory, model = FLAVORS["states"]
    report = soundness_probe("refl", theory, model, samples=20, seed=0)
    assert "refl" in report.describe()
    assert "sound" in report.describe()


# ---------------------------------------------------------------------------
# Deliberately broken checkers


def test_registry_names_rules_that_exist():
    for name, variant in UNSOUND_VARIANTS.items():
        assert variant.rule in RULES, name
        assert variant.flavors
        assert set(variant.flavors) <= set(FLAVORS)


@pytest.mark.parametrize("name", sorted(UNSOUND_VARIANTS))
def test_variants_detected_on_every_listed_flavor_and_seed(name):
    variant = UNSOUND_VARIANTS[name]
    for flavor in variant.flavors:
        theory, model = FLAVORS[flavor]
        for seed in (0, 1, 2):
            report = probe_variant(name, theory, model, samples=200,
                                   seed=seed)
            assert report.violations, (name, flavor, seed, report.describe())


def test_violations_are_genuine():
    """A reported violation has model-true premises and a model-false
    conclusion."""
    theory, model = FLAVORS["states"]
    report = probe_variant("repl_weak_any_h", theory, model, samples=200,
                           seed=0)
    assert report.violations
    v = report.violations[0]
    for premise in v.premises:
        assert check_eq(premise.mode, premise.lhs, premise.rhs, model) is None
    assert check_eq(v.conclusion.mode, v.conclusion.lhs, v.conclusion.rhs,
                    model) is not None


def test_variant_flavors_are_tight_for_repl():
    """Where the dropped condition is vacuous, the broken checker is
    indistinguishable from the honest one."""
    theory, model = FLAVORS["exceptions"]
    for seed in (0, 1, 2):
        report = probe_variant("repl_weak_any_h", theory, model,
                               samples=200, seed=seed)
        assert report.ok


# ---------------------------------------------------------------------------
# Named side conditions

_MORE = "necessary, but 200 samples do not reach it: "
_SAFE = "conservative: "

# Every named side condition of the rule checker: the flavors where
# dropping it alone lets `soundness_probe` (seed 0, 200 samples, one
# ProbeContext per flavor shared in this order, as probe_all shares
# one) find a violation, or the reason no such probe does.  A `_MORE`
# entry ends with the flavor, seed and sample count at which a
# `soundness_probe` with its own context first catches the condition.
KILL_TABLE = {
    "case-absurd-2.kept-state-preserving":
        _SAFE + "empty has no ordinary points and an exception passes inj2 "
        "and absurd untouched, so both sides run the kept branch alike",
    "case-comp.outer-catch-free":
        _MORE + "on the right side an exception the outer term raises "
        "meets it again, and a catcher handles it (exceptions, seed 3, 977 "
        "samples)",
    "case-comp.outer-raise-free-or-left-catch-free":
        ("exceptions", "combined"),
    "case-comp.outer-state-blind":
        _SAFE + "a catch-free outer term ignores exceptions, so each side "
        "applies it once, to the same value in the same state",
    "case-cong.weak-premise": ("exceptions", "combined"),
    "case-fuse-2.strong-moved-state-preserving":
        _SAFE + "both sides run the moved term, then the right branch on "
        "its outcome, then the left branch on any exception",
    "case-fuse-2.weak-moved-state-preserving-or-left-state-blind":
        _SAFE + "both sides run the moved term, then the right branch on "
        "its outcome, then the left branch on any exception",
    "case-inj-1.discarded-state-blind":
        _SAFE + "the skipped branch only sees exceptional inputs, which "
        "weak equality ignores and a catch-free branch passes untouched",
    "case-inj-1.strong-discarded-catch-free": ("exceptions", "combined"),
    "case-inj-1.strong-kept-state-preserving":
        _SAFE + "with a catch-free skipped branch both sides run the left "
        "branch on exactly the same inputs",
    "case-inj-2.left-state-blind":
        _SAFE + "the left branch only sees the right branch's exceptions, "
        "which it passes untouched unless it catches, allowed only when "
        "the right branch cannot raise",
    "case-inj-2.strong-kept-state-preserving":
        _SAFE + "both sides start by running the right branch on the same "
        "input",
    "case-inj-2.strong-left-catch-free": ("exceptions", "combined"),
    "case-inj-2.weak-left-catch-free-or-right-raise-free": ("exceptions",),
    "effect.sides-bounded": ("states", "exceptions", "combined"),
    "empty-weak.sides-state-blind":
        _SAFE + "empty has no ordinary points, so every weak equation out "
        "of it holds",
    "obs.sides-raise-free": ("combined",),
    "obs.sides-state-blind": ("combined",),
    "pair-bang-2.kept-catch-free": ("exceptions", "combined"),
    "pair-comp.inner-raise-free": ("exceptions", "combined"),
    "pair-comp.inner-state-blind-or-first-state-preserving":
        _MORE + "the right side reruns a state-reading inner term after a "
        "state-changing first component (states, seed 0, 514 samples)",
    "pair-comp.inner-state-preserving":
        _MORE + "the right side runs a state-changing inner term twice, "
        "which only a non-idempotent writer shows (states, seed 1, 206 "
        "samples)",
    "pair-cong.weak-premise": ("states", "combined"),
    "pair-fuse-2.strong-moved-catch-free": ("exceptions", "combined"),
    "pair-fuse-2.weak-moved-catch-free-or-first-raise-free":
        ("exceptions", "combined"),
    "pair-proj-1.discarded-raise-free": ("exceptions", "combined"),
    "pair-proj-1.strong-discarded-state-preserving": ("states", "combined"),
    "pair-proj-1.strong-kept-catch-free": ("exceptions", "combined"),
    "pair-proj-2.first-raise-free": ("exceptions", "combined"),
    "pair-proj-2.strong-first-state-preserving": ("states", "combined"),
    "pair-proj-2.strong-kept-catch-free": ("exceptions", "combined"),
    "pair-proj-2.weak-first-state-preserving-or-second-state-blind":
        ("states",),
    "repl.weak-outer-state-blind": ("states", "combined"),
    "subs.weak-inner-raise-free": ("exceptions", "combined"),
    "unit-weak.sides-raise-free": ("exceptions", "combined"),
}


def test_kill_table_lists_every_condition():
    """Every `_side` call in the rule checker names a condition (its third
    argument) in the pair/state reading.  A mirrored checker also runs
    it on the exception axis, under its `dual_name`; a self-dual rule's
    name is its own `dual_name`."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(rules))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_side":
            name = node.args[2].value
            names |= {name, dual_name(name)}
    assert set(KILL_TABLE) == names


def test_kill_table_matches_probes():
    caught = {name: () for name in KILL_TABLE}
    for flavor, (theory, model) in FLAVORS.items():
        ctx = ProbeContext(theory, model, random.Random(f"0:{flavor}"))
        for name in KILL_TABLE:
            report = soundness_probe(name.split(".")[0], theory, model,
                                     samples=200, seed=0,
                                     drop=frozenset({name}), context=ctx)
            if report.violations:
                caught[name] += (flavor,)
    assert caught == {name: entry if isinstance(entry, tuple) else ()
                      for name, entry in KILL_TABLE.items()}
