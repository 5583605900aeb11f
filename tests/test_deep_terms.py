"""Deep terms and programs under the interpreter's default recursion limit.

A 100k-node chain `comp(id(V), comp(id(V), ... op(lookup_x)))` must
parse, print back to the same text, get a canonical id, dualize, and
go through the `check` and `prove` subcommands with their normal exit
codes, and copies of a 50k-deep nested pair get comparable ids.  A
100k-deep product type must parse, print, dualize and go through a
theory dump and `check`, and a constant whose literal and type are both
that deep must parse, print back and get one id for separately parsed
copies, and a goal that holds it on both sides must parse and `prove`.
A 100k-statement program must parse, print, elaborate and get a
verdict.  So must programs nested 100k deep: `if` in then-branches,
`while`, `try` through its body, `not`, an `and` chain, and boolean and
arithmetic parentheses, each printing back to its own text; `imp-equiv`
gives 30k-deep programs their verdicts.  A 100k-term sum must
elaborate, get a verdict and print back, and a handler over a
1500-value carrier must elaborate and get a verdict.

Handlers nested inside handlers are left out.  Each one widens the
environment Γ, the product of the caught values a handler can read, so
a check passes values that grow with the nesting.  That cost comes from
the size of the data, not from recursion; `test_imp` bounds the time to
elaborate such nesting instead.
"""

import random
import sys
import time

import pytest

from declogic.cli import main
from declogic.imp import (
    Assign,
    Seq,
    build_imp_theory,
    check_equiv,
    default_carriers,
    elaborate,
    parse_command,
    print_command,
)
from declogic import probes
from declogic.model import build_model, check_eq
from declogic.probes import ProbeContext
from declogic.proofs import parse_script
from declogic.syntax import parse_term, parse_type, print_term, print_type
from declogic.terms import (Bang, Comp, Const, Equation, Id, Mode, canonical_key,
                            typecheck)
from declogic.theory import (dual_type, dualize, dump_theory, lookup_op,
                             parse_theory, states_theory)
from declogic.types import UNIT_T, Base

DEPTH = 50_000  # compositions; with their identities and the op, 100,001 nodes
CHAIN = "comp(id(V), " * DEPTH + "op(lookup_x)" + ")" * DEPTH
NESTED_PAIRS = "pair(" * DEPTH + "id(V)" + ", op(lookup_x))" * DEPTH
SIGNATURE = states_theory({"x": "V"}).signature
MODEL = "type V = {0,1}\nlocation x : V\n"


@pytest.fixture(autouse=True)
def default_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


def test_chain_parses_prints_and_keys():
    term = parse_term(CHAIN, SIGNATURE)
    assert print_term(term) == CHAIN
    assert canonical_key(term) == canonical_key(parse_term("op(lookup_x)", SIGNATURE))
    assert typecheck(term, SIGNATURE).ok


def test_nested_pairs_parse_print_and_key():
    term = parse_term(NESTED_PAIRS, SIGNATURE)
    assert print_term(term) == NESTED_PAIRS
    # Ids are ints, so comparing those of deep pairs never recurses.
    assert canonical_key(term) == canonical_key(parse_term(NESTED_PAIRS, SIGNATURE))
    changed = parse_term(NESTED_PAIRS.replace("id(V)", "id(unit)"), SIGNATURE)
    assert canonical_key(changed) != canonical_key(term)


DEEP_TYPE = "prod(" * 100_000 + "V" + ", V)" * 100_000


def test_deep_type_parses_prints_and_dualizes():
    ty = parse_type(DEEP_TYPE)
    assert print_type(ty) == DEEP_TYPE
    assert repr(ty) == DEEP_TYPE
    assert parse_type(print_type(ty)) is ty
    dual = dual_type(ty)
    assert print_type(dual) == DEEP_TYPE.replace("prod", "sum")
    assert dual_type(dual) is ty


def test_deep_literal_round_trips():
    literal = "(" * 100_000 + "1" + ", 0)" * 100_000
    text = f"const({literal}, {DEEP_TYPE})"
    term = parse_term(text)
    assert print_term(term) == text
    assert print_term(parse_term(print_term(term))) == text
    # No `==` on the value: comparing deep tuples recurses.
    assert term.value[1] == 0 and term.at.right is Base("V")


def test_deep_constants_share_one_id():
    # A constant is keyed by its literal, so two separately parsed copies
    # get one id without comparing their values.
    literal = "(" * 100_000 + "1" + ", 0)" * 100_000
    text = f"const({literal}, {DEEP_TYPE})"
    key = canonical_key(parse_term(text))
    assert canonical_key(parse_term(text)) == key
    assert canonical_key(parse_term(text.replace("(1, 0)", "(0, 0)"))) != key


def test_deep_type_in_a_theory_dump():
    line = f"op deep : unit -> {DEEP_TYPE} @ (0,0)"
    dump = dump_theory(parse_theory(dump_theory(states_theory({"x": "V"}))
                                    + line + "\n"))
    assert line in dump.splitlines()
    assert dump_theory(parse_theory(dump)) == dump


def test_check_deep_identity(tmp_path, capsys):
    term = tmp_path / "deep.term"
    term.write_text(f"id({DEEP_TYPE})")
    assert main(["check", str(term)]) == 0
    assert capsys.readouterr().out == f"ok: {DEEP_TYPE} -> {DEEP_TYPE} @ (0,0)\n"


def test_dualize_deep_axiom():
    theory = parse_theory(dump_theory(states_theory({"x": "V"}))
                          + f"axiom deep : strong {CHAIN} = op(lookup_x)\n")
    dual = dump_theory(dualize(theory))
    # comp(id, t) dualizes to comp(dual of t, id), and lookup_x to tag_x
    mirrored = "comp(" * DEPTH + "op(tag_x)" + ", id(V))" * DEPTH
    assert f"axiom deep : strong {mirrored} = op(tag_x)" in dual.splitlines()
    assert dump_theory(dualize(parse_theory(dual))) == dump_theory(theory)


def test_check_and_prove_exit_normally(tmp_path, capsys):
    model = tmp_path / "x.model"
    model.write_text(MODEL)
    term = tmp_path / "deep.term"
    term.write_text(CHAIN)
    assert main(["check", str(term), "--theory", str(model)]) == 0
    assert capsys.readouterr().out == "ok: unit -> V @ (1,0)\n"

    script = tmp_path / "deep.proof"
    script.write_text(f"goal strong {CHAIN} = op(lookup_x)\n"
                      f"step 1: refl [] |- strong {CHAIN} = op(lookup_x)\n")
    assert main(["prove", str(script), "--theory", str(model)]) == 0
    assert capsys.readouterr().out == "accepted\n"

    script.write_text(f"goal strong {CHAIN} = op(lookup_x)\n"
                      f"step 1: refl [] |- strong {CHAIN} = id(unit)\n")
    assert main(["prove", str(script), "--theory", str(model)]) == 1
    assert capsys.readouterr().out.startswith("rejected at step 1: ")


def test_prove_cites_an_axiom_with_a_deep_constant(tmp_path, capsys):
    literal = "(" * 3_000 + "1" + ", 0)" * 3_000
    deep = "prod(" * 3_000 + "V" + ", V)" * 3_000
    const = f"const({literal}, {deep})"
    theory = tmp_path / "deep.theory"
    theory.write_text(dump_theory(states_theory({"x": "V"}))
                      + f"axiom deep : strong {const} = {const}\n")
    script = tmp_path / "deep.proof"
    script.write_text(f"goal strong {const} = {const}\n"
                      f"step 1: axiom [deep] |- strong {const} = {const}\n")
    assert main(["prove", str(script), "--theory", str(theory)]) == 0
    assert capsys.readouterr().out == "accepted\n"


def test_a_deep_constant_on_both_sides_of_a_goal(tmp_path, capsys):
    # The sides' texts differ, so the parser meets the constant twice in
    # one script and finds its node by its literal, comparing no deep values.
    literal = "(" * 100_000 + "1" + ", 0)" * 100_000
    const = f"const({literal}, {DEEP_TYPE})"
    text = (f"goal strong comp(id({DEEP_TYPE}), {const}) = {const}\n"
            f"step 1: refl [] |- strong {const} = {const}\n")
    goal = parse_script(text, SIGNATURE).goal
    assert goal.lhs.inner is goal.rhs
    model = tmp_path / "x.model"
    model.write_text(MODEL)
    script = tmp_path / "deep.proof"
    script.write_text(text)
    assert main(["prove", str(script), "--theory", str(model)]) == 0
    assert capsys.readouterr().out == "accepted\n"


def test_a_probe_check_composes_a_deep_chain(monkeypatch):
    # A 100k-deep chain of identities after a lookup, against the lookup
    # it flattens to and against a constant it differs from.
    theory = states_theory({"x": "V"})
    model = build_model(theory, {"V": (0, 1)})
    ctx = ProbeContext(theory, model, random.Random(0))
    look, v = lookup_op(theory, "x"), Base("V")
    chain = look
    for _ in range(100_000):
        chain = Comp(Id(v), chain)
    zero = Comp(Const(0, v), Bang(UNIT_T))
    wanted = [check_eq(mode, chain, rhs, model)
              for rhs in (look, zero) for mode in Mode]
    monkeypatch.setattr(probes, "check_eq", None)  # no scan
    assert [ctx.check(Equation(mode, chain, rhs))
            for rhs in (look, zero) for mode in Mode] == wanted
    assert wanted[:2] == [None, None] and None not in wanted[2:]


STATEMENTS = 100_000  # an even number of flips of x, so the same as skip
PROGRAM = "; ".join(["x := 1 - x", "skip"] * (STATEMENTS // 2))


def test_long_program_gets_a_verdict():
    cmd = parse_command(PROGRAM)
    firsts = []
    node = cmd
    while isinstance(node, Seq):  # no `==`: comparing deep ASTs recurses
        firsts.append(node.first)
        node = node.second
    assert len(firsts) + 1 == STATEMENTS
    assert isinstance(firsts[0], Assign) and isinstance(firsts[-1], Assign)
    assert print_command(cmd) == PROGRAM
    theory = build_imp_theory({"x": "V"}, {}, {"V": 2})
    model = build_model(theory, default_carriers(theory))
    assert check_equiv(cmd, parse_command("skip"), theory, model).kind == "strong"


def test_imp_equiv_cli_on_long_and_deep_programs(tmp_path, capsys):
    model = tmp_path / "x.model"
    model.write_text(MODEL)
    long, skip = tmp_path / "long.imp", tmp_path / "skip.imp"
    long.write_text(PROGRAM)
    skip.write_text("skip")
    assert main(["imp-equiv", str(long), str(skip), "--model", str(model)]) == 0
    assert capsys.readouterr().out == "strongly equivalent\n"

    nest = 30_000
    deep = tmp_path / "deep.imp"
    for text in ("if true then { " * nest + "skip" + " } else { skip }" * nest,
                 "x := " + "(" * nest + "x" + ")" * nest,
                 "if " + "not " * nest + "x == 0 then { skip } else { skip }"):
        deep.write_text(text)
        assert main(["imp-equiv", str(deep), str(skip), "--model", str(model)]) == 0
        assert capsys.readouterr().out == "strongly equivalent\n"

    # A sum parses as a left-nested tree, which elaboration walks in a loop;
    # adding 1 an even number of times over V = {0,1} leaves x as it is.
    deep.write_text("x := x" + " + 1" * nest)
    assert main(["imp-equiv", str(deep), str(skip), "--model", str(model)]) == 0
    assert capsys.readouterr().out == "strongly equivalent\n"


NEST = 100_000  # even, so that an even number of `not`s or `1 - `s cancel
THEN_X1 = " then { x := 1 } else { skip }"
# (program, the program it is compared with, fuel, verdict)
DEEP_PROGRAMS = {
    "if": ("if x == 0 then { " * NEST + "x := 1" + " } else { skip }" * NEST,
           "x := 1", 64, "strong"),
    # With one round of fuel, a loop whose body runs exhausts it.
    "while": ("while x == 0 do { " * NEST + "x := 1" + " }" * NEST,
              "x := 1", 1, "fuel-exhausted"),
    "try": ("try { " * NEST + "throw e(x)" + " } catch e(v) { x := v }" * NEST,
            "skip", 64, "strong"),
    "not": ("if " + "not (" * (NEST - 1) + "not x == 0" + ")" * (NEST - 1) + THEN_X1,
            "x := 1", 64, "strong"),
    "and": ("if " + " and ".join(["x == 0"] * NEST) + THEN_X1, "x := 1", 64, "strong"),
    "boolean-parentheses": (
        "if " + "(" * (NEST - 1) + "x == 0 and x == 0" + ") and x == 0" * (NEST - 1) + THEN_X1,
        "x := 1", 64, "strong"),
    "arithmetic-parentheses": ("x := " + "1 - (" * (NEST - 1) + "1 - x" + ")" * (NEST - 1),
                               "skip", 64, "strong"),
}


@pytest.mark.parametrize("name", sorted(DEEP_PROGRAMS))
def test_deeply_nested_program_gets_a_verdict(name):
    text, other, fuel, verdict = DEEP_PROGRAMS[name]
    start = time.perf_counter()
    cmd = parse_command(text)
    if name == "boolean-parentheses":  # each `(` is read once, not retried
        assert time.perf_counter() - start < 5.0
    assert print_command(cmd) == text
    theory = build_imp_theory({"x": "V"}, {"e": "V"}, {"V": 2})
    model = build_model(theory, default_carriers(theory))
    assert check_equiv(cmd, parse_command(other), theory, model, fuel).kind == verdict


TERMS = 100_000  # 1 added TERMS times is 1 added once in 0..2
SUM = "x := x" + " + 1" * TERMS


def test_long_sum_gets_a_verdict():
    theory = build_imp_theory({"x": "V"}, {}, {"V": 3})
    model = build_model(theory, default_carriers(theory))
    cmd = parse_command(SUM)
    assert print_command(cmd) == SUM
    assert check_equiv(cmd, parse_command("x := x + 1"), theory, model).kind == "strong"
    # A guard's sums take the same path; 30k, a multiple of 3, makes it hold.
    guard = "if x == x" + " + 1" * 30_000 + " then { x := 1 } else { x := 2 }"
    cmd = parse_command(guard)
    assert print_command(cmd) == guard
    assert check_equiv(cmd, parse_command("x := 1"), theory, model).kind == "strong"


def test_large_carrier_elaborates():
    theory = build_imp_theory({"x": "V"}, {"e": "V"}, {"V": 1500})
    catch = parse_command("try { throw e(x) } catch e(v) { x := v }")
    term = elaborate(catch, theory)
    assert term.source == term.target == UNIT_T
    model = build_model(theory, default_carriers(theory))
    assert check_equiv(catch, parse_command("skip"), theory, model).kind == "strong"
