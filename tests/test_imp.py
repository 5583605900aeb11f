"""Programs to terms: parsing, elaboration, and program equivalence.

Expected verdicts and outcomes were computed with the direct
interpreter in reference_imp and frozen here; the tests check the term
translation and the interpreter against the frozen values and against
each other on every initial state.
"""

import functools
import gc
import inspect
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declogic import Decoration, build_model, eval_term, infer_decoration, typecheck
from declogic.model import UNIT, Exc, ModelError, Outcome, eval_points, scan_points
from declogic.imp import (
    Add,
    And,
    Assign,
    BFalse,
    BTrue,
    Clause,
    ElaborationError,
    Eq,
    FUEL_EXCEPTION,
    If,
    Le,
    Lit,
    Loc,
    Mul,
    Not,
    Seq,
    Skip,
    Sub,
    Throw,
    TryCatch,
    UndeclaredException,
    UndeclaredLocation,
    Verdict,
    While,
    build_imp_theory,
    check_equiv,
    default_carriers,
    dist_symbol,
    elaborate,
    parse_aexp,
    parse_bexp,
    parse_command,
    print_aexp,
    print_bexp,
    print_command,
)
from declogic import syntax
from declogic.syntax import ParseError, print_term
from declogic.terms import DecoratedTerm, Op, Proj1, canonical_key, compose_chain
from declogic.types import Base, numbered_type
from declogic.theory import dump_theory, parse_theory, states_theory
from reference_imp import Machine, reference_verdict, state_of, store_of

elaborate_module = sys.modules["declogic.imp.elaborate"]

LOCATIONS = {"x": "V", "y": "V"}
EXCEPTIONS = {"e": "V", "f": "V"}
SIZES = {"V": 4}

THEORY = build_imp_theory(LOCATIONS, EXCEPTIONS, SIZES)
MODEL = build_model(THEORY, default_carriers(THEORY))
MACHINE = Machine(LOCATIONS, EXCEPTIONS, SIZES)

# (label, left, right, fuel, expected verdict)
CORPUS = [
    ("overwrite", "x := 1; x := 2", "x := 2", 8, "strong"),
    ("skip-unit", "skip; x := 1", "x := 1", 8, "strong"),
    ("raise-after-write", "x := 1; throw e(0)", "throw e(0); x := 1", 8, "weak"),
    ("catch-ignore", "try { throw e(0) } catch e(v) { skip }", "skip", 8, "strong"),
    ("countdown", "while not x == 0 do { x := x - 1 }", "x := 0", 8, "strong"),
    ("countdown-tight", "while not x == 0 do { x := x - 1 }", "x := 0", 3,
     "fuel-exhausted"),
    ("branch-flip", "if x == 0 then { y := 1 } else { y := 2 }",
     "if not x == 0 then { y := 2 } else { y := 1 }", 8, "strong"),
    ("short-circuit", "if false and x == 0 then { x := 1 } else { skip }",
     "skip", 8, "strong"),
    ("catch-binding", "try { throw e(x) } catch e(v) { y := v }", "y := x", 8,
     "strong"),
    ("uncaught-passes", "try { throw f(0) } catch e(v) { x := 1 }",
     "throw f(0)", 8, "strong"),
    ("spin", "while true do { skip }", "skip", 5, "fuel-exhausted"),
    ("raise-vs-skip", "throw e(0)", "skip", 8, "not-equal"),
    ("rethrow-chain",
     "try { try { throw e(1) } catch e(v) { throw f(v) } } catch f(w) { x := w }",
     "x := 1", 8, "strong"),
    ("wraparound", "x := x + 1; x := x + 1", "x := x + 2", 8, "strong"),
    ("self-assign", "x := x", "skip", 8, "strong"),
    ("write-only-differs", "x := 1", "x := 2", 8, "weak"),
    ("payload-differs", "throw e(0)", "throw e(1)", 8, "not-equal"),
    ("exception-differs", "throw e(0)", "throw f(0)", 8, "not-equal"),
    ("first-clause-wins",
     "try { throw e(1) } catch e(v) { x := v } catch e(w) { x := 3 }",
     "x := 1", 8, "strong"),
    ("binder-shadows", "try { throw e(2) } catch e(x) { y := x }", "y := 2", 8,
     "strong"),
]

CORPUS_IDS = [label for label, *_ in CORPUS]


def _reference_outcome(cmd, state, fuel):
    result = MACHINE.run(cmd, store_of(MODEL, state), fuel)
    if result[0] == "ok":
        return Outcome(UNIT, state_of(MODEL, result[1]))
    _, name, param, store = result
    return Outcome(Exc(name, param), state_of(MODEL, store))


@pytest.mark.parametrize("label,left,right,fuel,expected", CORPUS, ids=CORPUS_IDS)
def test_corpus_verdicts(label, left, right, fuel, expected):
    first, second = parse_command(left), parse_command(right)
    verdict = check_equiv(first, second, THEORY, MODEL, fuel=fuel)
    assert verdict.kind == expected
    assert reference_verdict(MACHINE, MODEL, first, second, fuel) == expected


@pytest.mark.parametrize("label,left,right,fuel,expected", CORPUS, ids=CORPUS_IDS)
def test_corpus_matches_reference_pointwise(label, left, right, fuel, expected):
    for source in (left, right):
        cmd = parse_command(source)
        term = elaborate(cmd, THEORY, fuel=fuel)
        for state in MODEL.states:
            got = eval_term(term, MODEL, UNIT, state)
            assert got == _reference_outcome(cmd, state, fuel), (source, state)


def _nodes(term):
    """The distinct nodes of `term`, by identity."""
    seen = {}
    stack = [term]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack += [child for child in vars(node).values()
                      if isinstance(child, DecoratedTerm)]
    return list(seen.values())


def _typechecks(term):
    """Against the signature extended with the distribution ops the
    term uses, each declared at the type its name numbers."""
    signature = dict(THEORY.signature)
    for node in _nodes(term):
        if isinstance(node, Op) and node.symbol.name.startswith("dist_"):
            ty = numbered_type(node.symbol.name[len("dist_"):])
            symbol = dist_symbol(ty.left, ty.right.left, ty.right.right)
            signature[symbol.name] = symbol
    return typecheck(term, signature).ok


@pytest.mark.parametrize("label,left,right,fuel,expected", CORPUS, ids=CORPUS_IDS)
def test_corpus_terms_typecheck(label, left, right, fuel, expected):
    for source in (left, right):
        assert _typechecks(elaborate(parse_command(source), THEORY, fuel=fuel))


@pytest.mark.parametrize("label,left,right,fuel,expected", CORPUS, ids=CORPUS_IDS)
def test_corpus_exception_transparency(label, left, right, fuel, expected):
    """Commands never react to an exceptional input, even around catches."""
    for source in (left, right):
        term = elaborate(parse_command(source), THEORY, fuel=fuel)
        for exc in MODEL.exc_values:
            for state in MODEL.states:
                assert eval_term(term, MODEL, exc, state) == Outcome(exc, state)


def test_write_persists_through_throw():
    term = elaborate(parse_command("x := 1; throw e(0)"), THEORY)
    got = eval_term(term, MODEL, UNIT, (0, 0))
    assert got == Outcome(Exc("e", 0), (1, 0))


def test_fuel_monotonicity():
    loop = parse_command("while not x == 0 do { x := x - 1 }")
    zero = parse_command("x := 0")
    for fuel in range(0, 4):
        assert check_equiv(loop, zero, THEORY, MODEL, fuel=fuel).kind == "fuel-exhausted"
    for fuel in range(4, 9):
        assert check_equiv(loop, zero, THEORY, MODEL, fuel=fuel).kind == "strong"


def test_plain_difference_beats_exhaustion():
    spin = "while true do { skip }"
    left = parse_command(f"if x == 0 then {{ {spin} }} else {{ throw e(0) }}")
    right = parse_command(f"if x == 0 then {{ {spin} }} else {{ skip }}")
    assert check_equiv(left, right, THEORY, MODEL, fuel=4).kind == "not-equal"
    assert reference_verdict(MACHINE, MODEL, left, right, 4) == "not-equal"


def test_verdict_reports_first_state():
    weak = check_equiv(parse_command("x := 1"), parse_command("x := 2"),
                       THEORY, MODEL)
    assert weak == Verdict("weak", (0, 0))
    assert "x=0,y=0" in weak.describe(MODEL)
    assert "strongly" in Verdict("strong").describe(MODEL)
    spin = check_equiv(parse_command("while true do { skip }"),
                       parse_command("skip"), THEORY, MODEL, fuel=2)
    assert "fuel" in spin.describe(MODEL)


# Elaborated against x and y, checked in a model of x alone: `y := 1` has
# no table, and only states with x != 0 reach it.
PARTIAL_THEORY = build_imp_theory({"x": "V"}, EXCEPTIONS, SIZES)
PARTIAL_MODEL = build_model(PARTIAL_THEORY, default_carriers(PARTIAL_THEORY))
REACHES_Y = "if x == 0 then {{ {} }} else {{ y := 1 }}"


def _point_walk_error(left, right):
    """The error the point walk of `check_equiv` meets first."""
    terms = [elaborate(source, THEORY) for source in (left, right)]
    for term in terms:
        with pytest.raises(ModelError):  # so the walk of all states raises
            eval_points(term, PARTIAL_MODEL, scan_points(term.source, PARTIAL_MODEL, False))
    for state in PARTIAL_MODEL.states:
        for term in terms:
            try:
                eval_term(term, PARTIAL_MODEL, UNIT, state)
            except ModelError as error:
                return error
    raise AssertionError("no state raised")


def test_an_error_in_a_later_state_is_the_point_walks_error():
    left = parse_command(REACHES_Y.format("skip"))
    right = parse_command(REACHES_Y.format("x := 0"))
    expected = _point_walk_error(left, right)
    with pytest.raises(ModelError) as raised:
        check_equiv(left, right, THEORY, PARTIAL_MODEL)
    assert type(raised.value) is type(expected)
    assert str(raised.value) == str(expected)


def test_a_difference_before_an_error_is_the_verdict():
    left = parse_command(REACHES_Y.format("throw e(0)"))
    right = parse_command(REACHES_Y.format("skip"))
    _point_walk_error(left, right)
    assert check_equiv(left, right, THEORY, PARTIAL_MODEL) == Verdict("not-equal", (0,))


# -- parsing


@pytest.mark.parametrize("label,left,right,fuel,expected", CORPUS, ids=CORPUS_IDS)
def test_print_parse_roundtrip_corpus(label, left, right, fuel, expected):
    for source in (left, right):
        cmd = parse_command(source)
        assert parse_command(print_command(cmd)) == cmd


def test_precedence():
    assert parse_aexp("x + y * 2") == Add(Loc("x"), Mul(Loc("y"), Lit(2)))
    assert parse_aexp("(x + y) * 2") == Mul(Add(Loc("x"), Loc("y")), Lit(2))
    assert parse_aexp("x - y - 1") == Sub(Sub(Loc("x"), Loc("y")), Lit(1))
    assert parse_bexp("not x == 0 and y == 0") == And(
        Not(Eq(Loc("x"), Lit(0))), Eq(Loc("y"), Lit(0))
    )
    assert parse_bexp("(x == 0) and true") == And(Eq(Loc("x"), Lit(0)), BTrue())
    assert parse_bexp("(x + 1) <= y") == Le(Add(Loc("x"), Lit(1)), Loc("y"))


def test_comments_and_layout():
    source = """
    x := 1;      # write
    if x <= y    # compare
    then { skip } else { y := 0 }
    """
    assert parse_command(source) == parse_command(
        "x := 1; if x <= y then { skip } else { y := 0 }"
    )


@pytest.mark.parametrize(
    "source",
    [
        "x :=",
        "x = 1",
        "if x == 0 then { skip }",
        "while x == 0 { skip }",
        "try { skip }",
        "throw e",
        "skip; ",
        "skip }",
        "x := 1 ?",
        "not",
        "x := ²",
        "x := ①",
    ],
)
def test_parse_errors(source):
    with pytest.raises(ParseError):
        parse_command(source)


@pytest.mark.parametrize("source,message,line,col", [
    ("skip; ", "expected a command", 1, 7),
    ("x 1", "expected ':='", 1, 3),
    ("if x == 0 then skip", "expected '{'", 1, 16),
    ("while x <= 1 { skip }", "expected 'do'", 1, 14),
    ("throw e(x", "expected ')'", 1, 10),
    ("x := (x + 1", "expected ')'", 1, 12),
    ("if x == (y == 1) then { skip } else { skip }", "expected ')'", 1, 12),
    ("if x then { skip } else { skip }", "expected '==' or '<='", 1, 6),
    ("if not x and y == 0 then { skip } else { skip }", "expected '==' or '<='", 1, 10),
    ("if (x == 0 and y) then { skip } else { skip }", "expected '==' or '<='", 1, 17),
    ("x := true", "expected an arithmetic expression", 1, 6),
    ("if x == 0 and not then { skip } else { skip }",
     "expected an arithmetic expression", 1, 19),
    ("if (x + ) == 0 then { skip } else { skip }", "expected an arithmetic expression", 1, 9),
    ("x := 1;\n  y := ", "expected an arithmetic expression", 2, 8),
    ("throw 1(0)", "expected an exception name", 1, 7),
    ("try { skip } catch 2(v) { skip }", "expected an exception name", 1, 20),
    ("try { skip } catch e(1) { skip }", "expected a binder name", 1, 22),
    ("try { skip }", "expected at least one catch clause", 1, 13),
    ("skip }", "unexpected trailing input", 1, 6),
    ("x := x == 1", "unexpected trailing input", 1, 8),
    ("if x == y == 0 then { skip } else { skip }", "expected 'then'", 1, 11),
    ("if (x == 0) + 1 == 2 then { skip } else { skip }", "expected 'then'", 1, 13),
    ("x := 1 ?", "unexpected character '?'", 1, 8),
    ("x := 1 # ?\ny := ²", "unexpected character '²'", 2, 6),
])
def test_parse_error_positions(source, message, line, col):
    with pytest.raises(ParseError) as info:
        parse_command(source)
    assert (info.value.message, info.value.line, info.value.col) == (message, line, col)


_NAMES = st.sampled_from(["x", "y", "v", "w"])
_AEXPS = st.recursive(
    st.builds(Lit, st.integers(0, 3)) | st.builds(Loc, _NAMES),
    lambda inner: (
        st.builds(Add, inner, inner)
        | st.builds(Sub, inner, inner)
        | st.builds(Mul, inner, inner)
    ),
    max_leaves=8,
)
_BEXPS = st.recursive(
    st.just(BTrue())
    | st.just(BFalse())
    | st.builds(Eq, _AEXPS, _AEXPS)
    | st.builds(Le, _AEXPS, _AEXPS),
    lambda inner: st.builds(Not, inner) | st.builds(And, inner, inner),
    max_leaves=6,
)
# Commands keep Seq nested to the right, the only shape the printer's
# paren-free ";" can reproduce.
_COMMANDS = st.deferred(lambda: _SIMPLE | st.builds(Seq, _SIMPLE, _COMMANDS))
_CLAUSES = st.builds(Clause, _NAMES, _NAMES, st.deferred(lambda: _COMMANDS))
_SIMPLE = st.deferred(
    lambda: st.just(Skip())
    | st.builds(Assign, _NAMES, _AEXPS)
    | st.builds(Throw, _NAMES, _AEXPS)
    | st.builds(If, _BEXPS, _COMMANDS, _COMMANDS)
    | st.builds(While, _BEXPS, _COMMANDS)
    | st.builds(
        TryCatch, _COMMANDS, st.lists(_CLAUSES, min_size=1, max_size=2).map(tuple)
    )
)


@settings(max_examples=60, deadline=None)
@given(_AEXPS)
def test_aexp_roundtrip(expr):
    assert parse_aexp(print_aexp(expr)) == expr


@settings(max_examples=60, deadline=None)
@given(_BEXPS)
def test_bexp_roundtrip(expr):
    assert parse_bexp(print_bexp(expr)) == expr


@settings(max_examples=60, deadline=None)
@given(_COMMANDS)
def test_command_roundtrip(cmd):
    assert parse_command(print_command(cmd)) == cmd


# -- theory construction and elaboration errors


def test_theory_records_sizes():
    assert THEORY.carriers == default_carriers(THEORY) == {"V": (0, 1, 2, 3)}
    wide = build_imp_theory({"x": "V", "w": "W"}, {}, {"V": 2, "W": 3})
    assert default_carriers(wide) == {"V": (0, 1), "W": (0, 1, 2)}
    assert default_carriers(parse_theory(dump_theory(wide))) == default_carriers(wide)
    text = dump_theory(wide)
    assert "type W = {0,1,2}" in text.splitlines()
    for extra, message, col in (("type W = {0}", "type 'W' declared twice", 1),
                                ("type U = {0,0}", "carrier values must be distinct", 10)):
        with pytest.raises(ParseError) as info:
            parse_theory(text + extra + "\n")
        assert info.value.message == message
        assert (info.value.line, info.value.col) == (len(text.splitlines()) + 1, col)
    with pytest.raises(ElaborationError, match="records no carriers"):
        default_carriers(states_theory({"x": "V"}))


def test_theory_reserves_fuel_exception():
    assert FUEL_EXCEPTION in THEORY.exceptions
    with pytest.raises(ParseError):
        parse_command(f"throw {FUEL_EXCEPTION}(0)")


def test_theory_dump_reads_back():
    theory = build_imp_theory({"x": "V"}, {"e": "V"}, {"V": 2})
    text = dump_theory(theory)
    parsed = parse_theory(text)
    assert dump_theory(parsed) == text
    model = build_model(parsed, default_carriers(parsed))
    spin = parse_command("while true do { skip }")
    assert check_equiv(spin, parse_command("skip"), parsed, model,
                       fuel=2).kind == "fuel-exhausted"


@pytest.mark.parametrize(
    "locations,exceptions,sizes",
    [
        ({}, {}, {}),
        ({"skip": "V"}, {}, {"V": 2}),
        ({"x": "V"}, {"bad name": "V"}, {"V": 2}),
        ({"x": "V"}, {FUEL_EXCEPTION: "V"}, {"V": 2}),
        ({"x": "V"}, {}, {}),
        ({"x": "V"}, {}, {"V": 0}),
        ({"x": "unit"}, {}, {"unit": 2}),
    ],
)
def test_build_theory_rejects(locations, exceptions, sizes):
    with pytest.raises(ElaborationError):
        build_imp_theory(locations, exceptions, sizes)


@pytest.mark.parametrize(
    "source,error",
    [
        ("z := 1", UndeclaredLocation),
        ("x := z", UndeclaredLocation),
        ("throw g(0)", UndeclaredException),
        ("try { skip } catch g(v) { skip }", UndeclaredException),
        ("try { throw e(0) } catch e(v) { v := 1 }", ElaborationError),
        ("x := 9", ElaborationError),
    ],
)
def test_elaboration_errors(source, error):
    with pytest.raises(error):
        elaborate(parse_command(source), THEORY)


def test_first_error_in_program_order():
    """The first error met in program order is the one raised, also
    down a long `;` chain and inside a handler."""
    with pytest.raises(ElaborationError, match="literal 9 outside"):
        elaborate(parse_command("x := 9; z := 1"), THEORY)
    with pytest.raises(UndeclaredLocation, match="'z'"):
        elaborate(parse_command("x := 1; y := z; x := 9"), THEORY)
    handler = "try { throw e(x) } catch e(v) { y := v; x := v + 9; z := 1 }"
    with pytest.raises(ElaborationError, match="literal 9 outside"):
        elaborate(parse_command(handler), THEORY)


def test_two_base_theory_errors():
    wide = build_imp_theory({"x": "V", "w": "W"}, {}, {"V": 2, "W": 3})
    with pytest.raises(ElaborationError):
        elaborate(parse_command("x := w"), wide)
    with pytest.raises(ElaborationError):
        elaborate(parse_command("if 0 == 0 then { skip } else { skip }"), wide)


def test_elaborate_needs_fuel_machinery():
    with pytest.raises(ElaborationError):
        elaborate(Skip(), states_theory({"x": "V"}))
    with pytest.raises(ElaborationError):
        elaborate(Skip(), THEORY, fuel=-1)


def test_two_base_programs_run():
    wide = build_imp_theory({"x": "V", "w": "W"}, {}, {"V": 2, "W": 3})
    model = build_model(wide, default_carriers(wide))
    machine = Machine({"x": "V", "w": "W"}, {}, {"V": 2, "W": 3})
    cmd = parse_command("w := w + 2; if x == 1 then { w := 0 } else { skip }")
    term = elaborate(cmd, wide)
    for state in model.states:
        result = machine.run(cmd, dict(zip(model.locations, state)), 8)
        expected = Outcome(UNIT, tuple(result[1][n] for n in model.locations))
        assert eval_term(term, model, UNIT, state) == expected


# -- decorations of elaborated terms


def test_elaborated_decorations():
    pure_read = elaborate(parse_command("x := x + 1"), THEORY)
    assert infer_decoration(pure_read) == Decoration(2, 0)
    raiser = elaborate(parse_command("x := 1; throw e(x)"), THEORY)
    assert infer_decoration(raiser) == Decoration(2, 1)
    catcher = elaborate(parse_command(CORPUS[3][1]), THEORY)
    assert infer_decoration(catcher).exc == 2
    loop = elaborate(parse_command("while x == 0 do { y := 1 }"), THEORY)
    decoration = infer_decoration(loop)
    assert decoration.state <= 2 and decoration.exc <= 1


# -- semantics against the direct interpreter, on random programs
#
# Programs use locations x, y and exceptions e, f.  Handlers bind v, w
# or x (shadowing the location) and read every name in scope, so inner
# handlers read outer binders.  `try` nests up to three deep.


@functools.cache
def _scoped_aexps(scope):
    """A literal or a name in scope, or one operation on two of them."""
    leaf = (st.builds(Lit, st.integers(0, 3))
            | st.builds(Loc, st.sampled_from(sorted({"x", "y"} | scope))))
    return leaf | st.builds(Add, leaf, leaf) | st.builds(Sub, leaf, leaf) \
        | st.builds(Mul, leaf, leaf)


@functools.cache
def _scoped_bexps(scope):
    aexps = _scoped_aexps(scope)
    return st.recursive(
        st.builds(Eq, aexps, aexps) | st.builds(Le, aexps, aexps) | st.just(BTrue()),
        lambda inner: st.builds(Not, inner) | st.builds(And, inner, inner),
        max_leaves=2,
    )


@functools.cache
def _scoped_commands(scope=frozenset(), tries=0, depth=3):
    targets = st.sampled_from(sorted({"x", "y"} - scope))
    exceptions = st.sampled_from(["e", "f"])
    assign = st.builds(Assign, targets, _scoped_aexps(scope))
    throw = st.builds(Throw, exceptions, _scoped_aexps(scope))
    options = [st.just(Skip()), assign, throw]
    if depth > 0:
        inner = _scoped_commands(scope, tries, depth - 1)
        options += [
            st.builds(Seq, assign | throw, inner),
            st.builds(If, _scoped_bexps(scope), inner, inner),
            st.builds(While, _scoped_bexps(scope), inner),
        ]
    if tries < 3:
        clause = st.one_of([
            st.builds(Clause, exceptions, st.just(binder),
                      _scoped_commands(scope | {binder}, tries + 1, min(depth, 1)))
            for binder in ("v", "w", "x")
        ])
        # Bodies mostly raise, and `try` is listed three times, so most
        # programs run a handler on some states.
        body = throw | st.builds(Seq, assign, throw) \
            | _scoped_commands(scope, tries + 1, min(depth, 1))
        options += [st.builds(TryCatch, body,
                              st.lists(clause, min_size=1, max_size=2).map(tuple))
                    for _ in range(3)]
    return st.one_of(options)


@settings(max_examples=120, deadline=None)
@given(_scoped_commands())
def test_random_programs_match_reference(cmd):
    term = elaborate(cmd, THEORY, fuel=3)
    assert _typechecks(term)
    for state in MODEL.states:
        assert eval_term(term, MODEL, UNIT, state) == _reference_outcome(cmd, state, 3)
        for exc in MODEL.exc_values:
            assert eval_term(term, MODEL, exc, state) == Outcome(exc, state)


@pytest.mark.parametrize("handler", [
    "if v == 0 then { y := 1 } else { skip }",
    "while not v <= y do { y := y + 1 }",
    "try { throw f(1) } catch f(w) { if w <= v then { y := 2 } else { skip } }",
])
def test_handler_guards_read_the_binder(handler):
    """A guard in a handler reads the binder through the environment,
    and its branches get the environment back from the distribution op."""
    cmd = parse_command(f"try {{ throw e(x) }} catch e(v) {{ {handler} }}")
    term = elaborate(cmd, THEORY, fuel=4)
    assert _typechecks(term) and not typecheck(term, THEORY.signature).ok
    for state in MODEL.states:
        assert eval_term(term, MODEL, UNIT, state) == _reference_outcome(cmd, state, 4)


# -- elaborated size


def _distinct_nodes(term):
    return len(_nodes(term))


@pytest.mark.parametrize("binder", ["v{level}", "v"], ids=["distinct", "shadowing"])
def test_nested_try_size_is_linear_in_depth(binder):
    """Each handler reads only its own binder, and is built once."""
    theory = build_imp_theory({"x": "V", "y": "V"}, {"e": "V"}, {"V": 8})
    sizes = []
    for depth in range(1, 7):
        source = "skip"
        for level in reversed(range(depth)):
            name = binder.format(level=level)
            source = f"try {{ throw e(x) }} catch e({name}) {{ y := {name}; {source} }}"
        sizes.append(_distinct_nodes(elaborate(parse_command(source), theory)))
    steps = {after - before for before, after in zip(sizes, sizes[1:])}
    assert len(steps) == 1, sizes
    assert sizes[-1] <= 2000, sizes


def test_handler_size_ignores_carrier_size():
    source = parse_command("try { throw e(x) } catch e(v) { y := v }")
    sizes = {_distinct_nodes(elaborate(source, build_imp_theory(
        {"x": "V", "y": "V"}, {"e": "V"}, {"V": size}))) for size in (2, 16, 1500)}
    assert len(sizes) == 1, sizes


def test_nested_handlers_reading_every_binder_grow_linearly():
    """Every handler reads its own binder, and the innermost one reads
    them all, so each level reads every binder around it; adding a level
    adds one handler and one more read."""
    theory = build_imp_theory({"x": "V", "y": "V"}, {"e": "V"}, {"V": 3})
    sizes = []
    for depth in range(1, 7):
        source = "x := " + " + ".join(f"v{level}" for level in range(depth))
        for level in reversed(range(depth)):
            source = f"try {{ throw e(x) }} catch e(v{level}) {{ y := v{level}; {source} }}"
        sizes.append(_distinct_nodes(elaborate(parse_command(source), theory)))
    # Steps count from depth 2: one level deep, the environment is the
    # bare payload, not a pair.
    steps = {after - before for before, after in zip(sizes[1:], sizes[2:])}
    assert len(steps) == 1, sizes


class _EagerScope(elaborate_module._Scope):
    """A scope that builds the projection chain to every enclosing
    layer when it opens, whether a read uses it or not."""

    def __init__(self, *args):
        super().__init__(*args)
        inner = self
        while inner.parent is not None and inner.parent.parent is not None:
            outer = inner.parent
            up = Proj1(outer.env, inner.slot)
            self.down[outer] = [compose_chain(self.down[inner] + [up], self.env)]
            inner = outer
        self.reach = inner


def _nested_handlers(depth):
    """`depth` nested handlers, each reading its own binder, the outermost
    one and the one halfway out, and the innermost reading every binder."""
    source = "x := " + " + ".join(f"v{level}" for level in range(depth))
    for level in reversed(range(depth)):
        source = (f"try {{ throw e(x) }} catch e(v{level}) "
                  f"{{ y := v{level} + v0 * v{level // 2}; {source} }}")
    return source


def test_projection_chains_built_on_first_read_give_the_same_terms(monkeypatch):
    """Scopes build a chain only when a read needs it, and the terms are
    those of scopes that build every chain at once, by printed form and
    by canonical id; a handler that reads only its own binder builds no
    chain."""
    programs = [source for _, left, right, *_ in CORPUS for source in (left, right)]
    programs += [_nested_handlers(depth) for depth in (1, 2, 5, 12)]
    lazy = [elaborate(parse_command(source), THEORY, fuel=4) for source in programs]
    monkeypatch.setattr(elaborate_module, "_Scope", _EagerScope)
    for source, term in zip(programs, lazy):
        eager = elaborate(parse_command(source), THEORY, fuel=4)
        assert print_term(term) == print_term(eager), source
        assert canonical_key(term) == canonical_key(eager), source


def _handlers_binding_each_level(depth):
    """`depth` nested handlers, each binding its own name and writing it."""
    source = "skip"
    for level in reversed(range(depth)):
        source = f"try {{ throw e(x) }} catch e(v{level}) {{ x := v{level}; {source} }}"
    return parse_command(source)


def test_nested_handlers_build_chains_in_linear_time(monkeypatch):
    """400 nested handlers that each read their own binder build a
    bounded number of chains per handler; `dist` op names grow by a
    number's digits per level, not by the environment's size; and
    doubling the nesting at most doubles the time, give or take noise."""
    calls = []
    original = elaborate_module.compose_chain
    monkeypatch.setattr(elaborate_module, "compose_chain",
                        lambda *args: calls.append(1) or original(*args))
    source = "skip"
    for _ in range(400):
        source = f"try {{ throw e(x) }} catch e(v) {{ y := v; {source} }}"
    elaborate(parse_command(source), THEORY)
    assert len(calls) <= 5 * 400
    monkeypatch.undo()

    def dist_names(depth):
        return {node.symbol.name for node in _nodes(elaborate(_handlers_binding_each_level(depth),
                                                            THEORY))
                if isinstance(node, Op) and node.symbol.name.startswith("dist_")}

    names = {depth: dist_names(depth) for depth in (100, 101, 200, 201)}
    widest = len("dist_") + len(str(Base("numbered_after_the_handlers").number))
    for depth in (100, 200):
        added = len(names[depth + 1]) - len(names[depth])
        assert 0 < added <= 2, added
        grown = sum(map(len, names[depth + 1])) - sum(map(len, names[depth]))
        assert grown <= added * widest, grown

    # Best of 3 at each size, taken in turns so that a busy spell of the
    # host slows both sizes alike.
    programs = {depth: _handlers_binding_each_level(depth) for depth in (800, 1600)}
    best = {depth: float("inf") for depth in programs}
    for _ in range(3):
        for depth, cmd in programs.items():
            gc.collect()
            start = time.perf_counter()
            elaborate(cmd, THEORY)
            best[depth] = min(best[depth], time.perf_counter() - start)
    assert best[1600] / best[800] <= 2.6, best


def _dist_check_visits(depth):
    """How many value nodes `_inhabits` visits while `depth` nested
    handlers are checked against `skip`: the runs of its `todo.pop()`
    line, counted by a tracer on its frames alone."""
    from declogic import model as model_module

    code = model_module._inhabits.__code__
    lines, first = inspect.getsourcelines(code)
    pop = first + next(i for i, line in enumerate(lines) if "todo.pop()" in line)
    visits = 0

    def count(frame, event, arg):
        nonlocal visits
        visits += event == "line" and frame.f_lineno == pop
        return count

    program = _handlers_binding_each_level(depth)
    model = build_model(THEORY, default_carriers(THEORY))
    saved = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code is code else None)
    try:
        check_equiv(program, Skip(), THEORY, model)
    finally:
        sys.settrace(saved)
    return visits


def test_dist_checks_visit_each_environment_once():
    """A `dist` table checks its input's environment only where no table
    has checked it before, so doubling the nesting about doubles the
    nodes visited rather than quadrupling them."""
    small, large = _dist_check_visits(100), _dist_check_visits(200)
    assert 0 < large <= 2.2 * small, (small, large)


def test_elaboration_and_checks_print_and_parse_no_type(monkeypatch):
    """Three nested handlers elaborate and get their verdict without
    printing or parsing a type, to the same term as when they may."""
    left = parse_command("try { throw e(x) } catch e(v) { try { throw f(v + 1) } "
                         "catch f(w) { try { throw e(w * 3) } catch e(u) { y := u } } }")
    right = parse_command("y := (x + 1) * 3")
    term = elaborate(left, THEORY)
    assert reference_verdict(MACHINE, MODEL, left, right, 64) == "strong"

    def refuse(*args):
        raise AssertionError("a type was printed or parsed")

    monkeypatch.setattr(syntax, "print_type", refuse)
    monkeypatch.setattr(syntax, "parse_type", refuse)
    assert canonical_key(elaborate(left, THEORY)) == canonical_key(term)
    model = build_model(THEORY, default_carriers(THEORY))
    assert check_equiv(left, right, THEORY, model).kind == "strong"
