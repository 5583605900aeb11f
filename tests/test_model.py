"""Evaluator, equality oracle, comonad helpers, model files."""

import collections
import random

import pytest

import test_imp
from declogic import model as model_module
from declogic import probes
from declogic.generate import GenerationError, random_term, type_pool
from declogic.imp import (
    build_imp_theory,
    check_equiv,
    default_carriers,
    dist_symbol,
    elaborate,
    parse_command,
)
from declogic.model import (
    UNIT,
    CarrierMismatch,
    Counterexample,
    Exc,
    FiniteModel,
    MissingInterpretation,
    ModelError,
    Outcome,
    UnknownBaseType,
    build_model,
    check_both_eq,
    check_strong_eq,
    check_weak_eq,
    enumerate_points,
    eval_points,
    eval_term,
    parse_model_config,
    print_model_config,
    Tables,
    scan_points,
    validate_model,
)
from declogic.syntax import ParseError
from declogic.terms import (
    Absurd,
    Bang,
    CaseSeq,
    Comp,
    Const,
    Equation,
    Id,
    Inj1,
    Inj2,
    Mode,
    Op,
    OpSymbol,
    PURE,
    PairSeq,
    Proj1,
    Proj2,
    shield,
)
from declogic.theory import (
    combine,
    dualize,
    dump_theory,
    extend_theory,
    lookup_op,
    parse_theory,
    states_theory,
    tag_op,
    untag_op,
    update_op,
)
from declogic.types import UNIT_T, Base, Prod, Sum
from reference_eval import live_states, named_locations, ops_of
from reference_imp import Machine, reference_check
from semantic_reference import comonad_delta, comonad_epsilon, comonad_phi

V = Base("V")
P = Base("P")


@pytest.fixture(scope="module")
def st1():
    theory = states_theory({"x": "V"})
    return theory, build_model(theory, {"V": (0, 1)})


@pytest.fixture(scope="module")
def st2():
    theory = states_theory({"x": "V", "y": "V"})
    return theory, build_model(theory, {"V": (0, 1)})


@pytest.fixture(scope="module")
def cmb():
    theory = combine(states_theory({"x": "V"}),
                     dualize(states_theory({"e": "P", "f": "P"})))
    return theory, build_model(theory, {"V": (0, 1), "P": (0, 1)})


class TestEnumeration:
    def test_unit_and_empty(self, st1):
        _, model = st1
        assert enumerate_points(UNIT_T, model) == [UNIT]
        from declogic.types import EMPTY_T
        assert enumerate_points(EMPTY_T, model) == []

    def test_product_is_left_major(self, st1):
        _, model = st1
        assert enumerate_points(Prod(V, V), model) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_sum_is_left_then_right(self, st1):
        _, model = st1
        assert enumerate_points(Sum(UNIT_T, V), model) == [
            ("L", UNIT), ("R", 0), ("R", 1)]

    def test_unknown_base(self, st1):
        _, model = st1
        with pytest.raises(UnknownBaseType):
            enumerate_points(Base("missing"), model)

    def test_states_are_location_products(self, st2):
        _, model = st2
        assert model.states == ((0, 0), (0, 1), (1, 0), (1, 1))


class TestEvalBasics:
    def test_identity(self, st1):
        _, model = st1
        for s in model.states:
            assert eval_term(Id(UNIT_T), model, UNIT, s) == Outcome(UNIT, s)

    def test_law1_shape(self, st1):
        theory, model = st1
        t = Comp(update_op(theory, "x"), lookup_op(theory, "x"))
        for s in model.states:
            assert eval_term(t, model, UNIT, s) == Outcome(UNIT, s)

    def test_write_then_read(self, st1):
        theory, model = st1
        t = Comp(lookup_op(theory, "x"), update_op(theory, "x"))
        assert eval_term(t, model, 1, (0,)) == Outcome(1, (1,))

    def test_lookup_reads_component(self, st2):
        theory, model = st2
        assert eval_term(lookup_op(theory, "y"), model, UNIT, (0, 1)).value == 1
        assert eval_term(lookup_op(theory, "x"), model, UNIT, (0, 1)).value == 0

    def test_pair_threads_state_left_to_right(self, st1):
        theory, model = st1
        # write 1, then read: the read sees the write
        t = PairSeq(Comp(update_op(theory, "x"), Const(1, V)),
                    lookup_op(theory, "x"))
        assert eval_term(t, model, UNIT, (0,)) == Outcome((UNIT, 1), (1,))

    def test_pair_second_sees_original_input(self, st1):
        theory, model = st1
        t = PairSeq(Comp(update_op(theory, "x"), Const(1, V)), Id(UNIT_T))
        assert eval_term(t, model, UNIT, (0,)).value == (UNIT, UNIT)

    def test_missing_interpretation(self, st1):
        theory, model = st1
        broken = type(model)(carriers=model.carriers, locations=model.locations,
                             exceptions=model.exceptions, interps={})
        with pytest.raises(MissingInterpretation):
            eval_term(lookup_op(theory, "x"), broken, UNIT, (0,))

    def test_carrier_mismatch(self, st1):
        theory, model = st1
        with pytest.raises(CarrierMismatch):
            eval_term(update_op(theory, "x"), model, 7, (0,))

    @pytest.mark.parametrize("term, value", [
        (Proj1(V, V), 3),
        (Proj2(V, V), (0,)),
        (Comp(Id(V), Proj1(V, V)), 3),
        (CaseSeq(Id(V), Id(V)), 3),
        (CaseSeq(Id(V), Id(V)), ("L", 0, 1)),
    ])
    def test_off_carrier_input_names_node_and_input(self, st1, term, value):
        _, model = st1
        kind = "CaseSeq" if isinstance(term, CaseSeq) else "Proj"
        with pytest.raises(CarrierMismatch) as info:
            eval_term(term, model, value, (0,))
        assert str(info.value).startswith(kind)
        assert f"undefined on input {value!r} in state (0,)" in str(info.value)

    def test_non_term_keeps_its_type_error(self, st1):
        _, model = st1
        with pytest.raises(TypeError) as info:
            eval_term("junk", model, UNIT, (0,))
        assert str(info.value) == "not a term: 'junk'"


class TestExceptionRouting:
    def test_raise_carries_state(self, cmb):
        theory, model = cmb
        t = Comp(Comp(tag_op(theory, "e"), Const(0, P)),
                 Comp(update_op(theory, "x"), Const(1, V)))
        out = eval_term(t, model, UNIT, (0,))
        assert out == Outcome(Exc("e", 0), (1,))

    def test_non_catcher_ops_bypass_exceptional_input(self, cmb):
        theory, model = cmb
        for term in (update_op(theory, "x"), lookup_op(theory, "x"),
                     tag_op(theory, "e"), Id(P), Bang(P), Const(1, V)):
            out = eval_term(term, model, Exc("e", 1), (0,))
            assert out == Outcome(Exc("e", 1), (0,))

    def test_untag_consumes_matching(self, cmb):
        theory, model = cmb
        out = eval_term(untag_op(theory, "e"), model, Exc("e", 1), (0,))
        assert out == Outcome(1, (0,))

    def test_untag_rethrows_other(self, cmb):
        theory, model = cmb
        out = eval_term(untag_op(theory, "e"), model, Exc("f", 1), (0,))
        assert out == Outcome(Exc("f", 1), (0,))

    def test_pair_short_circuits_after_first_raises(self, cmb):
        theory, model = cmb
        raiser = Comp(tag_op(theory, "e"), Const(0, P))
        writer = Comp(update_op(theory, "x"), Const(1, V))
        t = PairSeq(Comp(Bang(UNIT_T), raiser), writer)
        out = eval_term(t, model, UNIT, (0,))
        assert out == Outcome(Exc("e", 0), (0,))  # the write never ran

    def test_pair_bypasses_exceptional_input(self, cmb):
        theory, model = cmb
        t = PairSeq(Comp(Bang(UNIT_T), Comp(update_op(theory, "x"), Const(1, V))),
                    Comp(Proj1(UNIT_T, UNIT_T),
                         PairSeq(Id(UNIT_T), Comp(Bang(P), untag_op(theory, "e")))))
        out = eval_term(t, model, Exc("e", 0), (0,))
        assert out == Outcome(Exc("e", 0), (0,))

    def test_case_left_branch_on_inl(self, cmb):
        theory, model = cmb
        t = CaseSeq(Comp(update_op(theory, "x"), Const(1, V)), Id(UNIT_T))
        out = eval_term(t, model, ("L", UNIT), (0,))
        assert out == Outcome(UNIT, (1,))

    def test_case_right_branch_on_inr(self, cmb):
        theory, model = cmb
        t = CaseSeq(Comp(update_op(theory, "x"), Const(1, V)), Id(UNIT_T))
        out = eval_term(t, model, ("R", UNIT), (0,))
        assert out == Outcome(UNIT, (0,))

    def test_comp_lets_downstream_catch(self, cmb):
        theory, model = cmb
        raiser = Comp(tag_op(theory, "e"), Id(P))          # P -> empty
        to_p = Comp(untag_op(theory, "e"), raiser)         # P -> P, catches own raise
        assert eval_term(to_p, model, 1, (0,)) == Outcome(1, (0,))

    def test_case_left_postprocesses_right_raise(self, cmb):
        theory, model = cmb
        from declogic.terms import Absurd
        raiser = Comp(tag_op(theory, "e"), Id(P))          # P -> empty
        on_left = Comp(untag_op(theory, "e"), Absurd(P))   # empty -> P, catcher
        out = eval_term(CaseSeq(on_left, raiser), model, ("R", 1), (0,))
        assert out == Outcome(1, (0,))
        # an ordinary right result is final: the left branch stays out
        out2 = eval_term(CaseSeq(on_left, Comp(untag_op(theory, "e"), raiser)),
                         model, ("R", 1), (0,))
        assert out2 == Outcome(1, (0,))

    def test_case_routes_exceptional_input_right_first(self, cmb):
        theory, model = cmb
        from declogic.terms import Absurd
        on_left = Comp(untag_op(theory, "e"), Absurd(P))
        on_right = Id(P)
        t = CaseSeq(on_left, on_right)
        out = eval_term(t, model, Exc("e", 1), (0,))
        assert out == Outcome(1, (0,))  # right bypassed, left caught

    def test_shield_blocks_outside_exceptions(self, cmb):
        theory, model = cmb
        from declogic.terms import Absurd
        catcher = Comp(untag_op(theory, "e"), Absurd(P))
        shielded = shield(catcher)
        out = eval_term(shielded, model, Exc("e", 1), (0,))
        assert out == Outcome(Exc("e", 1), (0,))  # not caught from outside

    def test_shield_transparent_on_ordinary(self, cmb):
        theory, model = cmb
        raiser = Comp(tag_op(theory, "e"), Id(P))
        shielded = shield(raiser)
        for p in (0, 1):
            for s in model.states:
                assert (eval_term(shielded, model, p, s)
                        == eval_term(raiser, model, p, s))


class TestEqualityChecks:
    def test_law1_strong(self, st1):
        theory, model = st1
        t = Comp(update_op(theory, "x"), lookup_op(theory, "x"))
        assert check_strong_eq(t, Id(UNIT_T), model) is None

    def test_law4_weak_not_strong(self, st1):
        theory, model = st1
        t = Comp(lookup_op(theory, "x"), update_op(theory, "x"))
        assert check_weak_eq(t, Id(V), model) is None
        cex = check_strong_eq(t, Id(V), model)
        assert cex is not None
        assert cex.value == 1 and cex.state == (0,)

    def test_reflexivity(self, st1):
        theory, model = st1
        t = Comp(lookup_op(theory, "x"), update_op(theory, "x"))
        assert check_strong_eq(t, t, model) is None
        assert check_weak_eq(t, t, model) is None

    def test_different_writes_weakly_equal(self, st1):
        theory, model = st1
        w0 = Comp(update_op(theory, "x"), Const(0, V))
        w1 = Comp(update_op(theory, "x"), Const(1, V))
        assert check_weak_eq(w0, w1, model) is None
        assert check_strong_eq(w0, w1, model) is not None

    def test_throw_not_weakly_skip(self, cmb):
        theory, model = cmb
        raiser = Comp(tag_op(theory, "e"), Const(0, P))
        skip = Comp(Bang(UNIT_T), Id(UNIT_T))
        cex = check_weak_eq(Comp(Bang(UNIT_T), raiser), skip, model)
        assert cex is not None

    def test_distinct_exceptions_differ_weakly(self, cmb):
        theory, model = cmb
        r_e = Comp(tag_op(theory, "e"), Const(0, P))
        r_f = Comp(tag_op(theory, "f"), Const(0, P))
        assert check_weak_eq(r_e, r_f, model) is not None

    def test_strong_feeds_exceptional_inputs(self, cmb):
        theory, model = cmb
        from declogic.terms import Absurd
        consume = Comp(untag_op(theory, "e"), Absurd(P))
        ignore = Absurd(P)
        # Identical on ordinary inputs (there are none at the empty
        # type); they differ only when an exception flows in.
        assert check_weak_eq(consume, ignore, model) is None
        assert check_strong_eq(consume, ignore, model) is not None

    def test_strong_implies_weak_on_law_corpus(self, st2):
        from declogic.theory import seven_laws
        theory, model = st2
        for law in seven_laws(theory, "x", "y"):
            if check_strong_eq(law.lhs, law.rhs, model) is None:
                assert check_weak_eq(law.lhs, law.rhs, model) is None


def test_scan_points_order():
    theory = combine(states_theory({"x": "V", "y": "V"}),
                     dualize(states_theory({"e": "V"})))
    model = build_model(theory, {"V": (0, 1)})
    states = [(0, 0), (0, 1), (1, 0), (1, 1)]
    ordinary = [("L", UNIT), ("R", 0), ("R", 1)]
    exceptional = [Exc("e", 0), Exc("e", 1)]
    ty = Sum(UNIT_T, V)
    assert scan_points(ty, model) == [
        (v, s) for s in states for v in ordinary + exceptional]
    assert scan_points(ty, model, exceptional=False) == [
        (v, s) for s in states for v in ordinary]


def first_difference(lhs, rhs, model, strong: bool):
    """The reference scan, a plain triple loop over every state: its
    ordinary inputs, then (strong only) its exceptional ones."""
    kinds = [enumerate_points(lhs.source, model)]
    if strong:
        kinds.append(model.exc_values)
    for state in model.states:
        for inputs in kinds:
            for v in inputs:
                a = eval_term(lhs, model, v, state)
                b = eval_term(rhs, model, v, state)
                if (a != b) if strong else (a.value != b.value):
                    return Counterexample(v, state, a, b)
    return None


_XY = states_theory({"x": "V", "y": "V"})
DIFFERENTIAL = {"states": _XY, "exceptions": dualize(_XY),
                "combined": combine(_XY, dualize(_XY))}


@pytest.mark.parametrize("flavor", list(DIFFERENTIAL))
def test_every_check_gives_the_reference_counterexample(flavor, monkeypatch):
    """The three checks and a probe context's table-answered `check`
    all find the reference scan's first difference."""
    theory = DIFFERENTIAL[flavor]
    model = build_model(theory, {"V": (0, 1)})
    ctx = probes.ProbeContext(theory, model, random.Random(f"scan:{flavor}"))

    def no_scan(*args):
        raise AssertionError("a check of two tabulated terms scanned")

    monkeypatch.setattr(probes, "check_eq", no_scan)
    rng = random.Random(f"pairs:{flavor}")
    shapes = set()
    for _ in range(300):
        src, tgt = rng.choice(ctx.types), rng.choice(ctx.types)
        pool = ctx.pool(src, tgt)
        if not pool:
            continue
        lhs, rhs = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.3:
            try:
                rhs = random_term(rng, theory, model, src, tgt, depth=3)
            except GenerationError:
                pass
            ctx.tables(rhs)
        strong = first_difference(lhs, rhs, model, strong=True)
        weak = first_difference(lhs, rhs, model, strong=False)
        assert check_strong_eq(lhs, rhs, model) == strong
        assert check_weak_eq(lhs, rhs, model) == weak
        assert check_both_eq(lhs, rhs, model) == (weak, strong)
        assert ctx.check(Equation(Mode.STRONG, lhs, rhs)) == strong
        assert ctx.check(Equation(Mode.WEAK, lhs, rhs)) == weak
        shapes.add((weak is None, strong is None))
    assert shapes == {(True, True), (True, False), (False, False)}


_XYZ = states_theory({"x": "V", "y": "V", "z": "V"})
_E = dualize(states_theory({"e": "V"}))
LIVE = {"states": _XYZ, "combined": combine(_XYZ, _E),
        "single": combine(states_theory({"x": "V"}), _E)}


def _entries(model):
    return {(name, key) for name, table in model.interps.items() for key in table}


@pytest.mark.parametrize("flavor", list(LIVE))
def test_live_scans_give_the_full_scan_verdicts(flavor):
    """On random terms that name none to all of the locations, the
    checks, which read only the live states, find the first difference
    of the scan over every state.  They fill tables only for the ops the
    sides name, and only at the live states."""
    theory = LIVE[flavor]
    carriers = {"V": (0, 1)}
    maker = build_model(theory, carriers)
    rng = random.Random(f"live:{flavor}")
    types = type_pool(theory)
    named, shapes = collections.Counter(), set()
    for _ in range(300):
        src, tgt = rng.choice(types), rng.choice(types)
        try:
            lhs, rhs = (random_term(rng, theory, maker, src, tgt, 3)
                        for _ in range(2))
        except GenerationError:
            continue
        live, full = build_model(theory, carriers), build_model(theory, carriers)
        strong = first_difference(lhs, rhs, full, strong=True)
        weak = first_difference(lhs, rhs, full, strong=False)
        assert check_strong_eq(lhs, rhs, live) == strong
        assert check_weak_eq(lhs, rhs, live) == weak
        assert check_both_eq(lhs, rhs, live) == (weak, strong)
        names = {op.symbol.name for op in ops_of(lhs, rhs)}
        states = set(live_states(live, lhs, rhs))
        assert all(name in names and key[1] in states for name, key in _entries(live))
        named[len(named_locations(lhs, rhs))] += 1
        shapes.add((weak is None, strong is None))
    assert set(named) == set(range(len(theory.locations) + 1))
    assert shapes == {(True, True), (True, False), (False, False)}


def test_equiv_gets_the_reference_verdict_and_state():
    """With a third location, which no corpus program names, each pair
    gets the verdict and the first state of the direct interpreter's
    run over every state."""
    locations = {**test_imp.LOCATIONS, "z": "V"}
    theory = build_imp_theory(locations, test_imp.EXCEPTIONS, test_imp.SIZES)
    model = build_model(theory, default_carriers(theory))
    machine = Machine(locations, test_imp.EXCEPTIONS, test_imp.SIZES)
    for label, left, right, fuel, _ in test_imp.CORPUS:
        first, second = parse_command(left), parse_command(right)
        verdict = check_equiv(first, second, theory, model, fuel=fuel)
        assert (verdict.kind, verdict.state) == \
            reference_check(machine, model, first, second, fuel), label


def test_state_reading_tables_of_unknown_make_keep_every_state():
    """An op whose table `build_model` did not make may read any
    location, whatever its name or decoration says; a lookup is known by
    its name, even where its theory declares it pure."""
    theory = states_theory({"x": "V", "y": "V"})
    model = build_model(theory, {"V": (0, 1)})
    peek = Op(OpSymbol("peek", UNIT_T, V, PURE))
    reads_y = {(UNIT, s): (s[1], s) for s in model.states}
    hand = FiniteModel(carriers=model.carriers, locations=model.locations,
                       exceptions={}, interps={"peek": reads_y})
    model.interps["peek"] = reads_y
    pure_lookup = Op(OpSymbol("lookup_y", UNIT_T, V, PURE))
    zero = Const(0, V)
    for m, lhs, states in ((hand, peek, model.states),
                           (model, peek, model.states),
                           (model, pure_lookup, [(0, 0), (0, 1)])):
        assert scan_points(UNIT_T, m, True, (lhs, zero)) == \
            [(UNIT, s) for s in states]
        assert check_weak_eq(lhs, zero, m).state == (0, 1)
        assert check_both_eq(lhs, zero, m)[0].state == (0, 1)
    one = build_model(states_theory({"y": "V"}), {"V": (0, 1)})
    assert check_weak_eq(pure_lookup, zero, one).state == (1,)


def test_listing_live_states_builds_no_table():
    """The footprint walk reads tables as they stand: an op that no point
    reaches, here one whose table cannot be built, neither gets a table
    nor raises."""
    theory = LIVE["combined"]
    model = build_model(theory, {"V": (0, 1), "W": (1, 2)})
    W = Base("W")
    never = Comp(Op(OpSymbol("add_W", Prod(W, W), W, PURE)),
                 PairSeq(Const(1, W), Const(2, W)))
    lhs, rhs = (PairSeq(Comp(tag_op(theory, "e"), lookup_op(theory, name)), never)
                for name in ("y", "x"))
    before = _entries(model), set(model.interps)
    points = scan_points(UNIT_T, model, True, (lhs, rhs))
    assert [s for v, s in points if v is UNIT] == \
        [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    assert (_entries(model), set(model.interps)) == before
    cex = check_strong_eq(lhs, rhs, model)
    assert (cex.state, cex.left.value, cex.right.value) == \
        ((0, 1, 0), Exc("e", 1), Exc("e", 0))
    assert "add_W" not in model.interps
    with pytest.raises(ModelError):
        model.interps["add_W"]


def _verdict_or_error(run):
    try:
        return run()
    except ModelError as err:
        return type(err), str(err)


def _scan_both(lhs, rhs, model):
    """The reference for `check_both_eq`: the strong scan, then the weak."""
    strong = first_difference(lhs, rhs, model, strong=True)
    return first_difference(lhs, rhs, model, strong=False), strong


_X = states_theory({"x": "V"})
_X_DICTS = {"lookup_x": {(UNIT, (x,)): (x, (x,)) for x in (0, 1)},
            "update_x": {(v, (x,)): (UNIT, (v,)) for v in (0, 1) for x in (0, 1)}}
# Models of `_X` written out by hand, not made by `build_model`.  The
# partial one has no entry for writing 1 where x is 0.
HAND_MODELS = {
    "valid": _X_DICTS,
    "partial": {**_X_DICTS, "update_x": {key: out for key, out in _X_DICTS["update_x"].items()
                                         if key != (1, (0,))}},
}


@pytest.mark.parametrize("case", list(HAND_MODELS))
def test_hand_made_tables_give_the_scan_verdict_or_error(case, monkeypatch):
    """Every op may read any location there, so tables cover every state;
    where they cannot be composed, the scan answers, and raises its own
    error at its first point that has no entry."""
    model = FiniteModel(carriers={"V": (0, 1)}, locations={"x": "V"},
                        exceptions={}, interps=HAND_MODELS[case])
    scans = collections.Counter()
    scan = model_module._scan

    def scanning(lhs, rhs, model, full_outcome):
        scans[full_outcome] += 1
        return scan(lhs, rhs, model, full_outcome)

    monkeypatch.setattr(model_module, "_scan", scanning)
    maker = build_model(_X, {"V": (0, 1)})
    rng = random.Random(f"hand:{case}")
    types = type_pool(_X)
    kinds = collections.Counter()
    for _ in range(200):
        src, tgt = rng.choice(types), rng.choice(types)
        try:
            lhs, rhs = (random_term(rng, _X, maker, src, tgt, 3) for _ in range(2))
        except GenerationError:
            continue
        for strong, check in ((True, check_strong_eq), (False, check_weak_eq)):
            want = _verdict_or_error(lambda: first_difference(lhs, rhs, model, strong))
            assert _verdict_or_error(lambda: check(lhs, rhs, model)) == want
            kinds[type(want).__name__] += 1
        assert _verdict_or_error(lambda: check_both_eq(lhs, rhs, model)) == \
            _verdict_or_error(lambda: _scan_both(lhs, rhs, model))
    assert {"NoneType", "Counterexample"} <= kinds.keys()
    assert ("tuple" in kinds) == (case == "partial")
    # `kinds` counts two checks a pair, and so many are strong.
    if case == "valid":
        assert not scans
    else:
        assert 0 < scans[True] < kinds.total()


def test_ill_typed_sides_give_the_scan_verdict_or_error():
    """A node whose children do not meet cannot be tabulated, and sides
    of two types cannot be compared as tables; the scan evaluates them
    as far as it gets."""
    model = build_model(_X, {"V": (0, 1)})
    look = lookup_op(_X, "x")
    pairs = [(Comp(look, look), Comp(look, look)),
             (PairSeq(look, Id(V)), PairSeq(look, Bang(V))),
             (CaseSeq(look, Bang(V)), CaseSeq(look, Bang(V))),
             (look, Id(V)), (Comp(look, Bang(V)), look)]
    wanted = set()
    for lhs, rhs in pairs:
        for strong, check in ((True, check_strong_eq), (False, check_weak_eq)):
            want = _verdict_or_error(lambda: first_difference(lhs, rhs, model, strong))
            assert _verdict_or_error(lambda: check(lhs, rhs, model)) == want
            wanted.add(type(want).__name__)
        assert _verdict_or_error(lambda: check_both_eq(lhs, rhs, model)) == \
            _verdict_or_error(lambda: _scan_both(lhs, rhs, model))
    assert {"tuple", "Counterexample"} <= wanted


def _nested_handlers(depth: int) -> str:
    """`depth` handlers, each in the one around it, each binding a name."""
    program = "x := v0"
    for k in range(depth):
        program = f"try {{ throw e(x) }} catch e(v{k}) {{ {program} }}"
    return program


@pytest.mark.parametrize("depth, composed", [(1, True), (6, False)])
def test_a_check_whose_tables_would_outgrow_its_scan_scans(depth, composed, monkeypatch):
    """Each handler's environment holds one more value, so the nodes'
    sources grow by a factor of the carrier size: six of them would cost
    the tables 4**6 points per node, where the scan reads four states."""
    theory = build_imp_theory({"x": "V"}, {"e": "V"}, {"V": 4})
    model = build_model(theory, default_carriers(theory))
    lhs = elaborate(parse_command(_nested_handlers(depth)), theory, 16)
    rhs = elaborate(parse_command("x := 0"), theory, 16)
    made = []
    monkeypatch.setattr(model_module, "Tables",
                        lambda *args: made.append(args) or Tables(*args))
    want = first_difference(lhs, rhs, model, strong=True)
    assert check_strong_eq(lhs, rhs, model) == want
    assert want is not None and bool(made) == composed


class TestPurityInvariants:
    def test_pure_terms_preserve_state_and_ignore_it(self, st2):
        _, model = st2
        t = Comp(Proj1(V, V), PairSeq(Id(V), Id(V)))
        values = set()
        for s in model.states:
            out = eval_term(t, model, 1, s)
            assert out.state == s
            values.add(out.value)
        assert values == {1}

    def test_cokleisli_law_for_accessors(self, st2):
        theory, model = st2
        f = lookup_op(theory, "x")                              # unit -> V
        g = PairSeq(Id(V), Comp(lookup_op(theory, "y"), Bang(V)))  # V -> VxV
        comp = Comp(g, f)
        for s in model.states:
            direct = eval_term(comp, model, UNIT, s)
            inner = eval_term(f, model, UNIT, s)
            outer = eval_term(g, model, inner.value, s)  # same s: co-Kleisli
            assert direct.value == outer.value
            assert direct.state == s


class TestComonadHelpers:
    def test_counit_laws(self, st2):
        _, model = st2
        for x in (0, 1):
            for s in model.states:
                pair = (x, s)
                assert comonad_epsilon(comonad_delta(pair)) == pair
                assert comonad_phi(comonad_epsilon)(comonad_delta(pair)) == pair

    def test_coassociativity(self, st2):
        _, model = st2
        for x in (0, 1):
            for s in model.states:
                pair = (x, s)
                assert comonad_delta(comonad_delta(pair)) == \
                    comonad_phi(comonad_delta)(comonad_delta(pair))


def forced_copy(model, theory):
    """Plain dicts holding every entry of `model`'s tables; validating
    first fills tables that `build_model` leaves to fill on first use."""
    assert validate_model(model, theory) == []
    interps = {name: dict(table) for name, table in model.interps.items()}
    return type(model)(carriers=model.carriers, locations=model.locations,
                       exceptions=model.exceptions, interps=interps)


class TestValidation:
    def test_standard_models_validate(self, st1, st2, cmb):
        for theory, model in (st1, st2, cmb):
            assert validate_model(model, theory) == []

    def test_imp_model_validates(self):
        # every family: lookup, update, tag, untag, add, sub, mul, eq, le, dist
        theory = build_imp_theory({"x": "V", "y": "W"}, {"e": "W"}, {"V": 3, "W": 2})
        V, W = Base("V"), Base("W")
        theory = extend_theory(theory, [dist_symbol(V, UNIT_T, UNIT_T),
                                        dist_symbol(Prod(V, W), UNIT_T, Sum(W, V))])
        model = build_model(theory, default_carriers(theory))
        assert validate_model(model, theory) == []
        assert {name.partition("_")[0] for name in model.interps} == {
            "lookup", "update", "tag", "untag", "add", "sub", "mul", "eq", "le", "dist"}

    def test_dist_tables_refuse_keys_off_their_domain(self):
        theory = build_imp_theory({"x": "V"}, {}, {"V": 2})
        model = build_model(theory, default_carriers(theory))
        dist = Op(dist_symbol(Base("V"), UNIT_T, Base("V")))
        assert eval_term(dist, model, (1, ("R", 0)), (0,)) == Outcome(("R", (1, 0)), (0,))
        for value in ((2, ("L", UNIT)), (1, ("R", 2)), (1, ("X", 0)), (1, ("L", 0)), 1):
            with pytest.raises(KeyError):
                model.interps[dist.symbol.name][(value, (0,))]
            with pytest.raises(CarrierMismatch):
                eval_term(dist, model, value, (0,))
        # Names that number no type (the last one past every type built so
        # far), types that are not a product with a sum on its right, and a
        # number spelled with a leading zero.
        not_dist = [Sum(Base("V"), UNIT_T).number, Prod(Base("V"), UNIT_T).number]
        beyond = Base("numbered_after_the_model").number + 1
        for name in ("dist_", "dist_V", "dist_-1", *(f"dist_{n}" for n in not_dist),
                     f"dist_0{dist.symbol.source.number}", f"dist_{beyond}"):
            with pytest.raises(MissingInterpretation):
                eval_term(Op(OpSymbol(name, UNIT_T, UNIT_T, PURE)), model, UNIT, (0,))
        # A base without a carrier, once an input reaches it.
        carrierless = dist_symbol(Base("W"), UNIT_T, UNIT_T)
        with pytest.raises(MissingInterpretation):
            eval_term(Op(carrierless), model, (0, ("L", UNIT)), (0,))

    def test_state_mutation_by_accessor_flagged(self, st1):
        theory, model = st1
        broken = forced_copy(model, theory)
        broken.interps["lookup_x"][(UNIT, (0,))] = (0, (1,))
        problems = validate_model(broken, theory)
        assert any("changed state" in p for p in problems)

    def test_missing_coverage_flagged(self, st1):
        theory, model = st1
        broken = forced_copy(model, theory)
        del broken.interps["update_x"][(0, (0,))]
        problems = validate_model(broken, theory)
        assert any("misses" in p for p in problems)


class Recording(dict):
    """A table view that notes every key looked up in it."""

    def __init__(self, name, table, seen):
        super().__init__()
        self.name, self.table, self.seen = name, table, seen

    def __getitem__(self, key):
        self.seen.add((self.name, key))
        return self.table[key]


class TestLazyTables:
    def test_tables_fill_on_first_use(self):
        theory = build_imp_theory({"x": "V"}, {"e": "V"}, {"V": 4})
        model = build_model(theory, default_carriers(theory))
        assert [len(table) for table in model.interps.values()] == [0] * len(model.interps)
        term = elaborate(parse_command(
            "try { x := x + 1; throw e(x * 3) } catch e(v) { x := v - 1 }"), theory)
        seen = set()
        fresh = build_model(theory, default_carriers(theory))
        recording = type(fresh)(
            carriers=fresh.carriers, locations=fresh.locations, exceptions=fresh.exceptions,
            interps={name: Recording(name, table, seen)
                     for name, table in fresh.interps.items()})
        eval_term(term, recording, UNIT, (2,))
        assert ("add_V", ((2, 1), (2,))) in seen
        eval_term(term, model, UNIT, (2,))
        built = {(name, key) for name, table in model.interps.items() for key in table}
        assert built == seen and sum(map(len, model.interps.values())) == len(seen)
        eval_term(term, model, UNIT, (2,))
        assert sum(map(len, model.interps.values())) == len(seen)

    def test_undeclared_arg_is_missing_interpretation(self):
        theory = states_theory({"x": "V"})
        for name in ("lookup_y", "tag_x", "add_W", "frobnicate_V", "noise"):
            bigger = extend_theory(theory, [OpSymbol(name, UNIT_T, UNIT_T, PURE)])
            with pytest.raises(MissingInterpretation) as info:
                build_model(bigger, {"V": (0, 1)})
            assert str(info.value) == (f"operation {name!r} has no construction "
                                       f"recipe and no explicit interpretation")

    def test_off_domain_keys_are_missing(self, cmb):
        _, model = cmb
        for name, key in (("lookup_x", (0, (0,))), ("update_x", (2, (0,))),
                          ("update_x", (0, (2,))), ("tag_e", (UNIT, (0,))),
                          ("untag_e", (0, (0,)))):
            with pytest.raises(KeyError):
                model.interps[name][key]

    def test_arithmetic_needs_a_carrier_from_zero(self):
        with pytest.raises(ModelError):
            build_model(build_imp_theory({"x": "V"}, {}, {"V": 2}), {"V": (1, 2)})


class TestModelConfigFiles:
    def test_round_trip(self):
        text = "type V = {0,1}\nlocation x : V\nexception e : V\n"
        config = parse_model_config(text)
        assert config.carriers == {"V": (0, 1)}
        assert config.locations == {"x": "V"}
        assert config.exceptions == {"e": "V"}
        assert print_model_config(config) == text
        assert parse_model_config(print_model_config(config)) == config

    def test_comments_and_blanks(self):
        text = "# two-value carrier\n\ntype V = { 0 , 1 }\nlocation x : V # state\n"
        config = parse_model_config(text)
        assert config.carriers["V"] == (0, 1)

    @pytest.mark.parametrize("bad", [
        "type V = {}",
        "type V = {0,0}",
        "type V = {a,b}",
        "type unit = {0}",
        "location x : V",
        "exception e : W\ntype W = {0}",
        "type V = {0}\ntype V = {1}",
        "type V = {0}\nlocation x : V\nlocation x : V",
        "widget V = {0}",
    ])
    def test_bad_configs_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_model_config(bad)

    @pytest.mark.parametrize("mark", ["\x0c", "\u2028"])
    def test_only_newlines_end_lines(self, mark):
        """Lines are numbered as the term and program scanners number them."""
        for text, line, col, message in (
                (f"type V = {{0,1}}{mark}location x : V\nlocation y W\n", 1, 10,
                 "carrier must be {v0,v1,...}"),
                (f"type V = {{0,1}}\nlocation x : V{mark}\nlocation y W\n", 3, 1,
                 "expected `location NAME : BASE`")):
            with pytest.raises(ParseError) as info:
                parse_model_config(text)
            assert info.value.message == message
            assert (info.value.line, info.value.col) == (line, col)


def _pure_tag_theory():
    """LIVE's single theory with `tag_e` declared (0,0): pure, though it
    raises."""
    text = dump_theory(LIVE["single"])
    pure = text.replace("op tag_e : V -> empty @ (0,1)", "op tag_e : V -> empty @ (0,0)")
    assert pure != text
    return parse_theory(pure)


def _foreign_lookup_model(theory, carriers):
    """A model whose `lookup_x` table, not made by `build_model`, raises
    `e` where x is odd, though `lookup_x` is declared (1,0)."""
    model = build_model(theory, carriers)
    raising = {(UNIT, s): (Exc("e", s[0]) if s[0] % 2 else s[0], s)
               for s in model.states}
    return FiniteModel(model.carriers, model.locations, model.exceptions,
                       {**model.interps, "lookup_x": raising})


def _pair(outcome):
    return outcome.value, outcome.state


WALKS = {**DIFFERENTIAL, "pure-tag": _pure_tag_theory(), "foreign-table": LIVE["single"]}


@pytest.mark.parametrize("case", list(WALKS))
def test_eval_points_agrees_with_eval_term_on_mixed_lists(case):
    """Over every point, exceptional inputs included, the list walk gives
    each point's result.  An op raising where its decoration says it is
    pure pins that the walk reads exceptions from values."""
    theory, carriers = WALKS[case], {"V": (0, 1, 2)}
    model = (_foreign_lookup_model(theory, carriers) if case == "foreign-table"
             else build_model(theory, carriers))
    rng = random.Random(f"walks:{case}")
    types = type_pool(theory)
    raised = made = 0
    while made < 300:
        try:
            term = random_term(rng, theory, model, rng.choice(types),
                               rng.choice(types), depth=rng.randrange(1, 5))
        except GenerationError:
            continue
        made += 1
        points = scan_points(term.source, model)
        want = [_pair(eval_term(term, model, v, s)) for v, s in points]
        assert eval_points(term, model, points) == want, term
        raised += any(isinstance(w[0], Exc) and not isinstance(v, Exc)
                      for (v, _), w in zip(points, want))
    assert (raised > 10) == (case != "states")


def _result_or_error(run):
    try:
        return run()
    except ModelError as err:
        return type(err)


_L1, _L2 = Comp(Const(0, V), Bang(UNIT_T)), Comp(Const(1, V), Bang(UNIT_T))


@pytest.mark.parametrize("term, value", [
    (Id(V), 7), (Proj1(V, V), (0, 1, 1)), (Proj1(V, V), 3), (Proj2(V, V), (0,)),
    (Inj1(V, V), 7), (Inj2(V, V), (1, 2)), (Bang(V), 7), (Const(1, V), 7),
    (Absurd(V), 0), (update_op(LIVE["single"], "x"), 7),
    (CaseSeq(_L1, _L2), ("X", UNIT)), (CaseSeq(_L1, _L2), 3),
    (CaseSeq(_L1, _L2), ("L", UNIT, 1)),
])
def test_both_walks_agree_off_the_carrier(term, value):
    """What an input off its carrier gives is not specified, but both
    walks give it, alone or among exceptional and ordinary points."""
    model = build_model(LIVE["single"], {"V": (0, 1)})
    for points in ([(value, (0,))],
                   [(Exc("e", 1), (1,)), (value, (0,)), (value, (1,))]):
        want = _result_or_error(lambda: [_pair(eval_term(term, model, v, s))
                                         for v, s in points])
        assert _result_or_error(lambda: eval_points(term, model, points)) == want
