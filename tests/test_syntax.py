"""Printer/parser round-trips for types, terms and literals."""

import pytest
from hypothesis import given, strategies as st

from declogic.model import UNIT
from declogic.syntax import (
    ParseError,
    parse_term,
    parse_type,
    print_term,
    print_type,
    print_value,
)
from declogic.terms import (
    Absurd,
    Bang,
    CaseSeq,
    Comp,
    Const,
    Decoration,
    Id,
    Inj1,
    Inj2,
    Op,
    OpSymbol,
    PairSeq,
    Proj1,
    Proj2,
)
from declogic.types import EMPTY_T, UNIT_T, Base, Prod, Sum

V = Base("V")
W = Base("W")
SIGNATURE = {s.name: s for s in (
    OpSymbol("lookup_x", UNIT_T, V, Decoration(1, 0)),
    OpSymbol("update_x", V, UNIT_T, Decoration(2, 0)),
    OpSymbol("tag_e", V, EMPTY_T, Decoration(0, 1)),
    OpSymbol("untag_e", EMPTY_T, V, Decoration(0, 2)),
)}


def types(max_depth=3):
    leaves = st.sampled_from([UNIT_T, EMPTY_T, V, W, Base("Long_name2"), Base("a__b_")])
    return st.recursive(
        leaves,
        lambda sub: st.tuples(sub, sub).map(lambda p: Prod(*p))
        | st.tuples(sub, sub).map(lambda p: Sum(*p)),
        max_leaves=8)


class TestTypeSyntax:
    @given(types())
    def test_round_trip(self, ty):
        printed = print_type(ty)
        assert parse_type(printed) == ty
        assert print_type(parse_type(printed)) == printed

    def test_fixed_forms(self):
        assert print_type(Prod(UNIT_T, Sum(V, EMPTY_T))) == "prod(unit, sum(V, empty))"
        assert parse_type("prod(unit, sum(V, empty))") == Prod(UNIT_T, Sum(V, EMPTY_T))

    def test_whitespace_and_comments_allowed(self):
        assert parse_type("prod( V ,\n  W ) # trailing note") == Prod(V, W)

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as info:
            parse_type("prod(V W)")
        assert "line 1" in str(info.value)


TERMS = [
    Id(UNIT_T),
    Id(Prod(V, Sum(UNIT_T, W))),
    Op(SIGNATURE["lookup_x"]),
    Comp(Op(SIGNATURE["update_x"]), Op(SIGNATURE["lookup_x"])),
    Comp(Comp(Op(SIGNATURE["tag_e"]), Id(V)), Op(SIGNATURE["lookup_x"])),
    PairSeq(Op(SIGNATURE["lookup_x"]), Op(SIGNATURE["lookup_x"])),
    CaseSeq(Id(UNIT_T), Comp(Op(SIGNATURE["update_x"]), Op(SIGNATURE["untag_e"]))),
    Proj1(V, W),
    Proj2(UNIT_T, Prod(V, V)),
    Inj1(V, W),
    Inj2(EMPTY_T, UNIT_T),
    Bang(Sum(V, W)),
    Absurd(Prod(V, V)),
    Const(2, V),
    Const(UNIT, UNIT_T),
    Const(("L", UNIT), Sum(UNIT_T, V)),
    Const((1, ("R", 0)), Prod(V, Sum(W, V))),
]


class TestTermSyntax:
    @pytest.mark.parametrize("term", TERMS, ids=range(len(TERMS)))
    def test_round_trip_is_bit_exact(self, term):
        printed = print_term(term)
        reparsed = parse_term(printed, SIGNATURE)
        assert reparsed == term
        assert print_term(reparsed) == printed

    def test_fixed_form(self):
        t = Comp(Op(SIGNATURE["update_x"]), Op(SIGNATURE["lookup_x"]))
        assert print_term(t) == "comp(op(update_x), op(lookup_x))"

    def test_comp_applies_right_side_first(self):
        t = parse_term("comp(op(update_x), op(lookup_x))", SIGNATURE)
        assert t.outer.symbol.name == "update_x"
        assert t.inner.symbol.name == "lookup_x"

    def test_unknown_op_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_term("op(missing)", SIGNATURE)
        assert "missing" in str(info.value)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_term("id(unit) id(unit)", SIGNATURE)

    def test_literal_must_fit_type(self):
        with pytest.raises(ParseError):
            parse_term("const((), V)", SIGNATURE)
        with pytest.raises(ParseError):
            parse_term("const(l(0), prod(V, V))", SIGNATURE)

    def test_non_decimal_digits_are_located_errors(self):
        # `str.isdigit` holds for these, but `int` cannot read them.
        for digit in ("²", "①"):
            with pytest.raises(ParseError) as info:
                parse_term(f"const({digit}, V)", SIGNATURE)
            assert str(info.value) == (f"unexpected character {digit!r} "
                                       f"(line 1, column 7)")

    def test_comments_in_term_files(self):
        text = "comp( # outer runs second\n  op(update_x),\n  op(lookup_x))"
        t = parse_term(text, SIGNATURE)
        assert print_term(t) == "comp(op(update_x), op(lookup_x))"


# Malformed inputs and the exact message each gives, place included.
ERRORS = [
    (parse_type, "prod(V W)", "expected ',' (line 1, column 8)"),
    (parse_type, "", "expected a type (line 1, column 1)"),
    (parse_term, "const((0, l(1)), prod(V, sum(unit, V)))",
     "literal does not fit type unit (line 1, column 7)"),
    (parse_term, "const(l(r((1, ()))), sum(sum(V, prod(V, V)), V))",
     "literal does not fit type V (line 1, column 7)"),
    (parse_term, "const(l(1), prod(V,V))",
     "literal does not fit type prod(V, V) (line 1, column 7)"),
    (parse_term, "const((1, 2), sum(V,V))",
     "literal does not fit type sum(V, V) (line 1, column 7)"),
    (parse_term, "const(1, empty)", "literal does not fit type empty (line 1, column 7)"),
    (parse_term, "const((), V", "literal does not fit type V (line 1, column 7)"),
    (parse_term, "op(missing)", "operation 'missing' is not declared (line 1, column 1)"),
    (parse_term, "op(3)", "expected a name (line 1, column 4)"),
    (parse_term, "op lookup_x", "expected '(' (line 1, column 4)"),
    (parse_term, "foo(x)", "unknown term form 'foo' (line 1, column 1)"),
    (parse_term, "unit(V)", "unknown term form 'unit' (line 1, column 1)"),
    (parse_term, "id(prod(V, ))", "expected a type (line 1, column 12)"),
    (parse_term, "id(prod V)", "expected '(' (line 1, column 9)"),
    (parse_term, "id(unit(", "expected ')' (line 1, column 8)"),
    (parse_term, "const(, V)", "expected a literal (line 1, column 7)"),
    (parse_term, "const(r(), sum(V, unit))", "expected a literal (line 1, column 9)"),
    (parse_term, "const(l 1, sum(V, V))", "expected '(' (line 1, column 9)"),
    (parse_term, "bang(V", "expected ')' (line 1, column 7)"),
    (parse_term, "const((0, 1, 2), prod(V, V))", "expected ')' (line 1, column 12)"),
    (parse_term, "id(3)", "expected a type (line 1, column 4)"),
    (parse_term, "proj1(V W)", "expected ',' (line 1, column 9)"),
    (parse_term, "comp(op(lookup_x) op(lookup_x))", "expected ',' (line 1, column 19)"),
    (parse_term, "comp(op(lookup_x), )", "expected a term (line 1, column 20)"),
    (parse_term, "pair(id(V), id(V)) x", "unexpected trailing input (line 1, column 20)"),
    (parse_term, "# note\n", "expected a term (line 2, column 1)"),
    (parse_term, "case(op(lookup_x), id(@))", "unexpected character '@' (line 1, column 23)"),
]


@pytest.mark.parametrize("parse, text, message", ERRORS, ids=range(len(ERRORS)))
def test_error_messages(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text, SIGNATURE) if parse is parse_term else parse(text)
    assert str(info.value) == message


class TestValueLiterals:
    def test_value_forms(self):
        assert print_value(UNIT, UNIT_T) == "()"
        assert print_value(3, V) == "3"
        assert print_value((0, 1), Prod(V, V)) == "(0, 1)"
        assert print_value(("L", UNIT), Sum(UNIT_T, V)) == "l(())"
        assert print_value(("R", 2), Sum(UNIT_T, V)) == "r(2)"

    def test_type_directed_printing_disambiguates(self):
        # A pair and a tagged sum can share Python shape; the type picks.
        sum_v = print_value(("R", 1), Sum(V, V))
        assert sum_v == "r(1)"

    def test_unprintable_values_rejected(self):
        with pytest.raises(ValueError):
            print_value("not-an-int", V)
        with pytest.raises(ValueError):
            print_value((1, 2, 3), Prod(V, V))

    def test_unprintable_value_names_its_innermost_part(self):
        with pytest.raises(ValueError) as info:
            print_value((1, "x"), Prod(V, V))
        assert str(info.value) == "no literal form for 'x' at V"
