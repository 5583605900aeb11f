"""States/exceptions/combined theory construction and duality."""

import pytest

from declogic.cli import main
from declogic.model import UNIT, Exc, Outcome, build_model, check_weak_eq, eval_term
from declogic.syntax import ParseError, print_term
from declogic.terms import Comp, Const, Decoration, Mode, Op
from declogic.theory import (
    DuplicateLocation,
    NameClash,
    TheoryError,
    WrongFlavor,
    combine,
    dual_symbol_map,
    dualize,
    dualize_equation,
    dualize_term,
    dump_theory,
    extend_theory,
    lookup_op,
    parse_theory,
    seven_laws,
    states_theory,
    tag_op,
    theory_from_config,
    untag_op,
    update_op,
)
from declogic.model import parse_model_config, validate_model
from declogic.terms import OpSymbol, PURE
from declogic.types import EMPTY_T, UNIT_T, Base


def forced_tables(theory, carriers):
    """Every table of `theory`'s model, filled by `validate_model`."""
    model = build_model(theory, carriers)
    assert validate_model(model, theory) == []
    return {name: dict(table) for name, table in model.interps.items()}


class TestStatesTheory:
    def test_signature_shape(self):
        theory = states_theory({"x": "V"})
        lk = theory.signature["lookup_x"]
        up = theory.signature["update_x"]
        assert lk.source == UNIT_T and lk.target == Base("V")
        assert lk.decoration == Decoration(1, 0)
        assert up.source == Base("V") and up.target == UNIT_T
        assert up.decoration == Decoration(2, 0)

    def test_axiom_labels(self):
        theory = states_theory({"x": "V", "y": "W"})
        assert set(theory.axioms) == {
            "st_ax1_x", "st_ax1_y", "st_ax2_x_y", "st_ax2_y_x"}
        assert all(eq.mode is Mode.WEAK for eq in theory.axioms.values())

    def test_axioms_hold_in_models(self):
        theory = states_theory({"x": "V", "y": "V"})
        model = build_model(theory, {"V": (0, 1, 2)})
        for label, eq in theory.axioms.items():
            assert check_weak_eq(eq.lhs, eq.rhs, model) is None, label

    def test_observational_rule(self):
        theory = states_theory({"x": "V", "y": "V"})
        (rule,) = theory.obs_rules
        assert rule.direction == "states"
        assert [print_term(o) for o in rule.observers] == \
            ["op(lookup_x)", "op(lookup_y)"]

    def test_needs_a_location(self):
        with pytest.raises(TheoryError):
            states_theory({})

    def test_duplicate_location(self):
        with pytest.raises(DuplicateLocation):
            states_theory([("x", "V"), ("x", "W")])


class TestSevenLaws:
    def test_two_location_count_and_modes(self):
        theory = states_theory({"x": "V", "y": "V"})
        laws = seven_laws(theory)
        assert len(laws) == 7
        assert [law.mode for law in laws] == [
            Mode.STRONG, Mode.STRONG, Mode.STRONG, Mode.WEAK,
            Mode.STRONG, Mode.STRONG, Mode.STRONG]

    def test_single_location_drops_commutation(self):
        theory = states_theory({"x": "V"})
        assert len(seven_laws(theory)) == 4

    def test_laws_typecheck(self):
        from declogic.terms import typecheck
        theory = states_theory({"x": "V", "y": "W"})
        for law in seven_laws(theory, "x", "y"):
            assert typecheck(law.lhs, theory.signature).ok
            assert typecheck(law.rhs, theory.signature).ok
            assert law.lhs.source == law.rhs.source
            assert law.lhs.target == law.rhs.target

    def test_wrong_flavor(self):
        ex = dualize(states_theory({"e": "P"}))
        with pytest.raises(WrongFlavor):
            seven_laws(ex)

    def test_same_location_pair_rejected(self):
        theory = states_theory({"x": "V", "y": "V"})
        with pytest.raises(TheoryError):
            seven_laws(theory, "x", "x")


class TestDualize:
    def test_dual_signature(self):
        ex = dualize(states_theory({"e": "P"}))
        assert ex.flavor == "exceptions"
        tag = ex.signature["tag_e"]
        untag = ex.signature["untag_e"]
        assert tag.source == Base("P") and tag.target == EMPTY_T
        assert tag.decoration == Decoration(0, 1)
        assert untag.source == EMPTY_T and untag.target == Base("P")
        assert untag.decoration == Decoration(0, 2)
        assert ex.exceptions == {"e": "P"} and ex.locations == {}

    def test_axiom_labels_mirrored(self):
        ex = dualize(states_theory({"e": "P", "f": "P"}))
        assert set(ex.axioms) == {
            "ex_ax1_e", "ex_ax1_f", "ex_ax2_e_f", "ex_ax2_f_e"}

    def test_involution_is_exact(self):
        st = states_theory({"x": "V", "y": "W"})
        back = dualize(dualize(st))
        assert back.flavor == st.flavor
        assert back.signature == st.signature
        assert back.axioms == st.axioms
        assert back.obs_rules == st.obs_rules
        assert back.locations == st.locations
        carriers = {"V": (0, 1), "W": (0, 1, 2)}
        assert forced_tables(back, carriers) == forced_tables(st, carriers)

    def test_dual_term_swaps_structure(self):
        st = states_theory({"x": "V"})
        symbol_map = dual_symbol_map(st)
        law1_lhs = Comp(update_op(st, "x"), lookup_op(st, "x"))
        dual = dualize_term(law1_lhs, symbol_map)
        assert print_term(dual) == "comp(op(tag_x), op(untag_x))"

    def test_const_has_no_dual(self):
        st = states_theory({"x": "V"})
        with pytest.raises(TheoryError):
            dualize_term(Const(0, Base("V")), dual_symbol_map(st))

    def test_combined_cannot_dualize(self):
        both = combine(states_theory({"x": "V"}),
                       dualize(states_theory({"e": "P"})))
        with pytest.raises(WrongFlavor):
            dualize(both)

    def test_dual_axioms_hold(self):
        ex = dualize(states_theory({"e": "P", "f": "P"}))
        model = build_model(ex, {"P": (0, 1)})
        for label, eq in ex.axioms.items():
            assert check_weak_eq(eq.lhs, eq.rhs, model) is None, label


class TestCombine:
    def test_union_of_parts(self):
        st = states_theory({"x": "V"})
        ex = dualize(states_theory({"e": "P"}))
        both = combine(st, ex)
        assert both.flavor == "combined"
        assert set(both.signature) == {
            "lookup_x", "update_x", "tag_e", "untag_e"}
        assert set(both.axioms) == {"st_ax1_x", "ex_ax1_e"}
        assert [r.direction for r in both.obs_rules] == ["states", "exceptions"]
        assert both.locations == {"x": "V"} and both.exceptions == {"e": "P"}

    def test_flavor_checks(self):
        st = states_theory({"x": "V"})
        with pytest.raises(WrongFlavor):
            combine(st, st)

    def test_name_clash(self):
        st = states_theory({"tag": "V"})  # lookup_tag clashes? no: full names
        ex = dualize(states_theory({"e": "P"}))
        combine(st, ex)  # fine: lookup_tag vs tag_e
        clash_ex = dualize(states_theory({"x": "P"}))
        renamed = extend_theory(
            states_theory({"y": "V"}), [clash_ex.signature["tag_x"]])
        with pytest.raises(NameClash):
            combine(renamed, clash_ex)

    def test_write_persists_through_throw(self):
        st = states_theory({"x": "V"})
        ex = dualize(states_theory({"e": "P"}))
        both = combine(st, ex)
        model = build_model(both, {"V": (0, 1), "P": (0, 1)})
        for c in (0, 1):
            for v in (0, 1):
                t = Comp(Comp(tag_op(both, "e"), Const(c, Base("P"))),
                         Comp(update_op(both, "x"), Const(v, Base("V"))))
                out = eval_term(t, model, UNIT, (0,))
                assert out == Outcome(Exc("e", c), (v,))

    def test_conservativity_over_states(self):
        st = states_theory({"x": "V", "y": "V"})
        both = combine(st, dualize(states_theory({"e": "P"})))
        st_model = build_model(st, {"V": (0, 1)})
        both_model = build_model(both, {"V": (0, 1), "P": (0, 1)})
        terms = [
            Comp(update_op(st, "x"), lookup_op(st, "y")),
            Comp(lookup_op(st, "x"), update_op(st, "x")),
        ]
        inputs = [UNIT, 0]
        for t, v in zip(terms, inputs):
            for s in st_model.states:
                assert eval_term(t, st_model, v, s) == eval_term(t, both_model, v, s)


class TestExtend:
    def test_extension_adds_symbols(self):
        st = states_theory({"x": "V"})
        extra = OpSymbol("noise", UNIT_T, UNIT_T, PURE)
        bigger = extend_theory(st, [extra])
        assert "noise" in bigger.signature
        assert bigger.axioms == st.axioms

    def test_extension_rejects_clash(self):
        st = states_theory({"x": "V"})
        with pytest.raises(NameClash):
            extend_theory(st, [st.signature["lookup_x"]])


class TestTheoryDump:
    def test_round_trip(self):
        st = states_theory({"x": "V", "y": "W"})
        text = dump_theory(st)
        parsed = parse_theory(text)
        assert parsed.flavor == st.flavor
        assert parsed.signature == st.signature
        assert parsed.axioms == st.axioms
        assert parsed.obs_rules == st.obs_rules
        assert parsed.locations == st.locations
        carriers = {"V": (0, 1), "W": (0, 1, 2)}
        assert forced_tables(parsed, carriers) == forced_tables(st, carriers)
        assert dump_theory(parsed) == text

    def test_combined_round_trip(self):
        both = combine(states_theory({"x": "V"}),
                       dualize(states_theory({"e": "P"})))
        text = dump_theory(both)
        parsed = parse_theory(text)
        assert parsed.signature == both.signature
        assert parsed.axioms == both.axioms
        assert dump_theory(parsed) == text

    def test_repeated_side_text_is_one_term(self):
        # Equal side texts share one term across a dump's lines, as in a
        # proof script.
        text = dump_theory(states_theory({"x": "V"})) + (
            "axiom swapped : weak id(V) = comp(op(lookup_x), op(update_x))\n")
        axioms = parse_theory(text).axioms
        assert axioms["swapped"].lhs is axioms["st_ax1_x"].rhs
        assert axioms["swapped"].rhs is axioms["st_ax1_x"].lhs

    def test_observers_share_nodes_with_axioms(self):
        # A dump's terms, in axioms and `obs` lines alike, are built
        # through one table, so equal subterms are one node.
        parsed = parse_theory(dump_theory(states_theory({"x": "V", "y": "V"})))
        axioms = parsed.axioms
        lookup_x, lookup_y = parsed.obs_rules[0].observers
        assert lookup_x is axioms["st_ax1_x"].lhs.outer
        assert lookup_x is axioms["st_ax2_y_x"].lhs.outer
        assert lookup_y is axioms["st_ax1_y"].lhs.outer
        assert lookup_y is axioms["st_ax2_x_y"].rhs.outer

    def test_dual_dump_round_trip(self):
        ex = dualize(states_theory({"e": "P"}))
        assert dump_theory(parse_theory(dump_theory(ex))) == dump_theory(ex)

    @pytest.mark.parametrize("head", [
        "location x ", "exception e ", "op lookup_x ", "axiom st_ax1_x "])
    def test_repeated_declaration_is_refused(self, head):
        """A second declaration of a name, even at another type, is an
        error on its line rather than overriding the first."""
        both = combine(states_theory({"x": "V"}),
                       dualize(states_theory({"e": "V"})))
        lines = dump_theory(both).splitlines()
        number = next(i for i, line in enumerate(lines, start=1)
                      if line.startswith(head))
        lines.insert(number, lines[number - 1].replace("V", "W"))
        with pytest.raises(ParseError) as info:
            parse_theory("\n".join(lines) + "\n")
        kind, name = head.split()
        assert info.value.message == f"{kind} {name!r} declared twice"
        assert (info.value.line, info.value.col) == (number + 1, 1)

    @pytest.mark.parametrize("extra, message", [
        ("theory exceptions", "second `theory` header"),
        ("obs states : op(lookup_x)", "obs line repeated"),
    ])
    def test_repeated_header_or_obs_line_is_refused(self, extra, message,
                                                    tmp_path, capsys):
        text = dump_theory(states_theory({"x": "V"}))
        assert extra.startswith("theory") or extra in text.splitlines()
        bad = tmp_path / "bad.theory"
        bad.write_text(text + extra + "\n")
        with pytest.raises(ParseError) as info:
            parse_theory(bad.read_text())
        assert info.value.message == message
        assert (info.value.line, info.value.col) == (len(text.splitlines()) + 1, 1)
        term = tmp_path / "t.term"
        term.write_text("op(lookup_x)")
        assert main(["check", str(term), "--theory", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"

    @pytest.mark.parametrize("keyword", ["unit", "empty", "prod", "sum"])
    @pytest.mark.parametrize("head", ["location x", "exception e"])
    def test_keyword_base_name_is_refused(self, head, keyword, tmp_path,
                                          capsys):
        """The op lines of a dump print a base named like a type keyword
        as that keyword, so they would read back as another type."""
        both = combine(states_theory({"x": "V"}),
                       dualize(states_theory({"e": "V"})))
        lines = dump_theory(both).splitlines()
        number = lines.index(f"{head} : V") + 1
        lines[number - 1] = f"{head} : {keyword}"
        text = "\n".join(lines) + "\n"
        with pytest.raises(ParseError) as info:
            parse_theory(text)
        assert info.value.message == f"bad base type name {keyword!r}"
        assert (info.value.line, info.value.col) == (number, len(head) + 4)
        bad = tmp_path / "bad.theory"
        bad.write_text(text)
        term = tmp_path / "t.term"
        term.write_text("op(lookup_x)")
        assert main(["check", str(term), "--theory", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"

    @pytest.mark.parametrize("head, old, new, at, message", [
        ("axiom st_ax2_x_y ", "= comp(op(lookup_y)", "= comp(op((lookup_y)",
         "(lookup_y)", "expected a name"),
        ("obs ", ", op(lookup_y)", ", op(lookup_z)", "op(lookup_z)",
         "operation 'lookup_z' is not declared"),
        ("op update_y ", "V -> unit", "V -> prod(unit", " @", "expected ','"),
        ("op lookup_x ", "@ (1,0)", "@ (7,-1)", "(7,-1)",
         "decoration levels must be 0, 1 or 2"),
        ("op update_x ", "@ (2,0)", "@ (2,3)", "(2,3)",
         "decoration levels must be 0, 1 or 2"),
        ("location y ", ": V", ": prod", "prod", "bad base type name 'prod'"),
    ])
    def test_parse_errors_give_file_line_and_column(self, head, old, new, at,
                                                    message):
        """A term or type error in a declaration on a later, indented and
        commented line is reported at its column on that line."""
        lines = dump_theory(states_theory({"x": "V", "y": "V"})).splitlines()
        number = next(i for i, line in enumerate(lines, start=1)
                      if line.startswith(head))
        assert number > 1
        line = "  " + lines[number - 1].replace(old, new) + "  # edited"
        lines[number - 1] = line
        with pytest.raises(ParseError) as info:
            parse_theory("\n".join(lines) + "\n")
        assert info.value.message == message
        col = line.index(at, line.index(new)) + 1
        assert (info.value.line, info.value.col) == (number, col)


class TestTheoryFromConfig:
    def test_states_only(self):
        config = parse_model_config("type V = {0,1}\nlocation x : V\n")
        assert theory_from_config(config).flavor == "states"

    def test_exceptions_only(self):
        config = parse_model_config("type P = {0,1}\nexception e : P\n")
        theory = theory_from_config(config)
        assert theory.flavor == "exceptions"
        assert "tag_e" in theory.signature

    def test_both(self):
        config = parse_model_config(
            "type V = {0,1}\nlocation x : V\nexception e : V\n")
        assert theory_from_config(config).flavor == "combined"

    def test_neither(self):
        config = parse_model_config("type V = {0,1}\n")
        with pytest.raises(TheoryError):
            theory_from_config(config)
