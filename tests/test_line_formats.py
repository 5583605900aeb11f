"""The line formats: model files, theory dumps and proof scripts.

Every line form is described once, in `syntax.LINE_FORMS`; one reader
and one printer serve the three formats.  These tests pin every error
the reader raises, in each format whose lines can hold it, check that a
line reads alike in every format that accepts its form, and check the
README's table of line forms against `LINE_FORMS`.
"""

import re
from pathlib import Path

import pytest

from declogic.cli import main
from declogic.model import parse_model_config
from declogic.proofs import parse_script
from declogic.syntax import LINE_FORMS, ParseError
from declogic.theory import dump_theory, parse_theory, states_theory

ST = states_theory({"x": "V"})
ST_DUMP = dump_theory(ST)
FALSE_OBS = ("strong comp(op(update_x), const(0, V)) = "
             "comp(op(update_x), const(1, V))")

# What each format reads first: a model file and a theory dump declare V,
# and a script names its goal.
PREFIX = {
    "model": "type V = {0,1}\n",
    "theory": "theory states\ntype V = {0,1}\nop lookup_x : unit -> V @ (1,0)\n",
    "script": "goal weak id(V) = id(V)\n",
}
MODEL_FORMS = ("model", "theory")

# (formats, text after the format's prefix, message, line in that text,
# column).  Each error reads the same in every format listed.  Column 1
# stands for the whole line, however far it is indented.
ERRORS = [
    # the head, and the template of each form with more than one hole
    (("model", "theory", "script"), "widget V = {0}",
     "unknown declaration 'widget'", 1, 1),
    (("model",), "theory states", "unknown declaration 'theory'", 1, 1),
    (("model",), "op f : V -> V @ (0,0)", "unknown declaration 'op'", 1, 1),
    (("theory",), "step 1: refl [] |- weak id(V) = id(V)",
     "unknown declaration 'step'", 1, 1),
    (("script",), "type W = {0}", "unknown declaration 'type'", 1, 1),
    (MODEL_FORMS, "type W {0,1}", "expected `type BASE = {..}`", 1, 1),
    (MODEL_FORMS, "location x V", "expected `location NAME : BASE`", 1, 1),
    (MODEL_FORMS, "exception e", "expected `exception NAME : BASE`", 1, 1),
    (("theory",), "op f : V -> V", "expected `op NAME : SRC -> TGT @ (s,e)`",
     1, 1),
    (("theory",), "axiom a weak id(V) = id(V)",
     "expected `axiom LABEL : MODE LHS = RHS`", 1, 1),
    (("theory",), "obs states op(lookup_x)", "expected `obs DIRECTION : TERMS`",
     1, 1),
    (("script",), "step 1: refl [] weak id(V) = id(V)",
     "expected `step N: RULE [PREMISES] |- MODE LHS = RHS`", 1, 1),
    # names and keywords
    (MODEL_FORMS, "type unit = {0}", "bad base type name 'unit'", 1, 6),
    (MODEL_FORMS, "location x : unit", "bad base type name 'unit'", 1, 14),
    (MODEL_FORMS, "exception e : prod", "bad base type name 'prod'", 1, 15),
    (MODEL_FORMS, "location x y : V", "bad name 'x y'", 1, 10),
    (MODEL_FORMS, "exception : V", "bad name ''", 1, 11),
    (("theory",), "op 2f : V -> V @ (0,0)", "bad name '2f'", 1, 4),
    (("script",), "step 1: [] |- weak id(V) = id(V)", "expected a name", 1, 9),
    (("script",), "step ²: refl [] |- weak id(V) = id(V)", "bad number '²'", 1, 6),
    (("theory",), "theory sideways", "unknown flavor 'sideways'", 1, 8),
    (("theory",), "obs sideways : op(lookup_x)",
     "unknown obs direction 'sideways'", 1, 5),
    # carriers, decorations and types
    (MODEL_FORMS, "type W = 0,1", "carrier must be {v0,v1,...}", 1, 10),
    (MODEL_FORMS, "type W = { }", "carrier must be non-empty", 1, 10),
    (MODEL_FORMS, "type W = {0,,1}", "empty list item", 1, 13),
    (MODEL_FORMS, "type W = {0, 1,}", "empty list item", 1, 16),
    (MODEL_FORMS, "type W = {0, a}", "carrier values must be integers", 1, 10),
    (MODEL_FORMS, "type W = {0,1,0}", "carrier values must be distinct", 1, 10),
    (("theory",), "op f : V -> V @ 0,0", "decoration must look like (1,0)", 1, 17),
    (("theory",), "op f : V -> V @ (0,3)",
     "decoration levels must be 0, 1 or 2", 1, 17),
    (("theory",), "op f : V -> prod(V) @ (0,0)", "expected ','", 1, 19),
    # term lists, premises and equations
    (("theory",), "obs states :", "expected a term", 1, 13),
    (("theory",), "obs states : op(lookup_x),", "empty list item", 1, 27),
    (("theory",), "obs states : op(lookup_x), , op(lookup_x)",
     "empty list item", 1, 28),
    (("theory",), "obs states : op(lookup_x), op(nope)",
     "operation 'nope' is not declared", 1, 28),
    (("script",), "step 1: trans [1,,2] |- weak id(V) = id(V)",
     "empty list item", 1, 18),
    (("theory",), "axiom a : loose id(V) = id(V)",
     "expected 'weak' or 'strong', got 'loose'", 1, 11),
    (("script",), "step 1: refl [] |- loose id(V) = id(V)",
     "expected 'weak' or 'strong', got 'loose'", 1, 20),
    (("theory",), "axiom a : weak id(V)", "expected '<lhs> = <rhs>'", 1, 11),
    (("script",), "step 1: refl [] |- weak id(V)", "expected '<lhs> = <rhs>'",
     1, 20),
    (("theory",), "axiom a : weak id(V) = op(nope)",
     "operation 'nope' is not declared", 1, 24),
    (("script",), "step 1: refl [] |- weak op(nope) = id(V)",
     "operation 'nope' is not declared", 1, 25),
    (("script",), "step 1: refl [] |- weak id(V) = comp(id(V)",
     "expected ','", 1, 43),
    # a tab may follow the mode word, and columns count it as one
    (("theory",), "axiom a : strong\t\top(nope) = id(V)",
     "operation 'nope' is not declared", 1, 19),
    (("script",), "step 1: refl [] |- weak\top(nope) = id(V)",
     "operation 'nope' is not declared", 1, 25),
    # whole-file rules
    (MODEL_FORMS, "type W = {0}\ntype W = {1}", "type 'W' declared twice", 2, 1),
    (MODEL_FORMS, "location x : V\nlocation x : V",
     "location 'x' declared twice", 2, 1),
    (MODEL_FORMS, "exception e : V\nexception e : V",
     "exception 'e' declared twice", 2, 1),
    (("model",), "location x : W", "type 'W' not declared", 1, 1),
    (("model",), "exception e : W\ntype W = {0}", "type 'W' not declared", 1, 1),
    (("theory",), "op lookup_x : unit -> V @ (1,0)",
     "op 'lookup_x' declared twice", 1, 1),
    (("theory",), "axiom a : weak id(V) = id(V)\naxiom a : weak id(V) = id(V)",
     "axiom 'a' declared twice", 2, 1),
    (("theory",), "theory states", "second `theory` header", 1, 1),
    (("theory",), "obs states : op(lookup_x)\nobs states :  op( lookup_x )",
     "obs line repeated", 2, 1),
    (("script",), "goal weak id(V) = id(V)", "expected a step line", 1, 1),
    (("script",), "step 2: refl [] |- weak id(V) = id(V)",
     "steps must be numbered in order, expected 1", 1, 1),
]


def _read(fmt, text):
    if fmt == "model":
        return parse_model_config(text)
    if fmt == "theory":
        return parse_theory(text)
    return parse_script(text, ST.signature)


@pytest.mark.parametrize("fmt, text, message, line, col", [
    pytest.param(fmt, text, message, line, col, id=f"{fmt}: {text!r}")
    for formats, text, message, line, col in ERRORS for fmt in formats])
def test_every_reader_error_is_pinned(fmt, text, message, line, col):
    prefix = PREFIX[fmt]
    with pytest.raises(ParseError) as info:
        _read(fmt, prefix + "  " + text.replace("\n", "  # note\n  ") + "\n")
    assert info.value.message == message
    assert (info.value.line, info.value.col) == (prefix.count("\n") + line,
                                                 col + 2 if col > 1 else 1)


@pytest.mark.parametrize("fmt, text, message", [
    ("theory", "location x : V\n", "missing `theory` header"),
    ("script", "step 1: refl [] |- weak id(V) = id(V)\n",
     "expected a goal line first"),
    ("script", "# nothing but a comment\n", "script has no goal line"),
])
def test_file_errors_without_a_line(fmt, text, message):
    with pytest.raises(ParseError) as info:
        _read(fmt, text)
    assert info.value.message == message
    assert (info.value.line, info.value.col) == (1, 1)


@pytest.mark.parametrize("fmt", MODEL_FORMS)
def test_model_lines_read_alike_in_both_formats(fmt):
    """A tab may follow the head, and blanks around `:` and `=` are optional."""
    text = PREFIX[fmt] + "location\tx:V\nexception\te :V\ntype\tW={ 0 , 2 }\n"
    read = _read(fmt, text)
    assert read.locations == {"x": "V"}
    assert read.exceptions == {"e": "V"}
    assert read.carriers == {"V": (0, 1), "W": (0, 2)}


def test_a_tab_may_follow_the_mode_word(write_files, capsys):
    goal = "goal strong\top(lookup_x) = op(lookup_x)\n"
    script = parse_script(goal + "step 1: refl []\t|-\tweak\top(lookup_x) = op(lookup_x)\n",
                          ST.signature)
    assert script.goal.lhs is script.goal.rhs
    assert script.steps[0].conclusion.lhs is script.goal.lhs
    theory, proof = write_files(
        ("x.theory", ST_DUMP + "axiom a : strong\top(lookup_x) = op(lookup_x)\n"),
        ("x.proof", goal + "step 1: axiom [a] |- strong op(lookup_x) = op(lookup_x)\n"))
    assert main(["prove", proof, "--theory", theory]) == 0
    assert capsys.readouterr().out == "accepted\n"


@pytest.fixture
def write_files(tmp_path):
    def write(*files):
        for name, text in files:
            (tmp_path / name).write_text(text)
        return [str(tmp_path / name) for name, _ in files]
    return write


def test_a_theory_line_anywhere_makes_a_dump(write_files, capsys):
    """`--theory` reads a file as a dump exactly when it has a `theory` line."""
    theory, term = write_files(("late.theory", "type V = {0,1}\n" + ST_DUMP),
                               ("t.term", "op(lookup_x)"))
    assert parse_theory(Path(theory).read_text()).carriers == {"V": (0, 1)}
    assert main(["check", term, "--theory", theory]) == 0
    assert capsys.readouterr().out == "ok: unit -> V @ (1,0)\n"
    model, = write_files(("m.model", "type V = {0,1}\nlocation x : V\n"))
    assert main(["check", term, "--theory", model]) == 0
    assert capsys.readouterr().out == "ok: unit -> V @ (1,0)\n"
    half, = write_files(("half.theory", ST_DUMP.replace("theory states\n", "")))
    assert main(["check", term, "--theory", half]) == 2
    assert capsys.readouterr().err == "error: missing `theory` header (line 1, column 1)\n"


def test_an_empty_observer_family_is_refused(write_files, capsys):
    """With no observers, `obs []` would prove any two terms into unit
    strongly equal, this false one among them."""
    script = f"goal {FALSE_OBS}\nstep 1: obs [] |- {FALSE_OBS}\n"
    empty = ST_DUMP.replace("obs states : op(lookup_x)", "obs states :")
    proof, bad, good = write_files(("false.proof", script),
                                   ("empty.theory", empty),
                                   ("st.theory", ST_DUMP))
    assert main(["prove", proof, "--theory", bad]) == 2
    assert capsys.readouterr().err == "error: expected a term (line 6, column 13)\n"
    assert main(["prove", proof, "--theory", good]) == 1
    assert capsys.readouterr().out.startswith("rejected at step 1: ")


def test_an_empty_list_item_is_refused_and_dumps_read_back(write_files, capsys):
    """A blank item is an error: a trailing comma must not repeat an obs
    rule into a dump that does not read back, nor `{0,,1}` read as `{0,1}`."""
    with pytest.raises(ParseError) as info:
        parse_theory(ST_DUMP + "obs states : op(lookup_x),\n")
    assert (info.value.message, info.value.line, info.value.col) == (
        "empty list item", 7, 27)
    with pytest.raises(ParseError) as info:
        parse_model_config("type V = {0,,1}\n")
    assert (info.value.message, info.value.line, info.value.col) == (
        "empty list item", 1, 13)
    # Observers are compared parsed, whatever their layout.
    with pytest.raises(ParseError) as info:
        parse_theory(ST_DUMP + "obs states :  op( lookup_x )\n")
    assert (info.value.message, info.value.line, info.value.col) == (
        "obs line repeated", 7, 1)
    two = parse_theory(ST_DUMP + "obs exceptions : op(lookup_x)\n")
    assert dump_theory(parse_theory(dump_theory(two))) == dump_theory(two)
    theory, term = write_files(("trail.theory", ST_DUMP + "obs states : op(lookup_x),\n"),
                               ("t.term", "op(lookup_x)"))
    assert main(["check", term, "--theory", theory]) == 2
    assert capsys.readouterr().err == "error: empty list item (line 7, column 27)\n"


def _readme_table() -> dict:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## Line formats\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for row in re.findall(r"^\| *`([a-z]+)` *\|(.*)\|$", section, re.MULTILINE):
        head, rest = row
        template, *marks = (cell.strip() for cell in re.split(r"(?<!\\)\|", rest))
        rows[head] = (template.strip("`").replace("\\|", "|"),
                      tuple(fmt for fmt, mark in zip(("model", "theory", "script"), marks)
                            if mark))
    return rows


def test_readme_lists_every_line_form():
    assert _readme_table() == {head: (template, formats) for head, (template, formats)
                               in LINE_FORMS.items()}


def test_an_axiom_label_is_any_text():
    """A label may be empty or hold blanks, and such a dump reads back."""
    text = ST_DUMP + "axiom  : weak id(V) = id(V)\naxiom a b : weak id(V) = id(V)\n"
    theory = parse_theory(text)
    assert list(theory.axioms)[-2:] == ["", "a b"]
    assert dump_theory(parse_theory(dump_theory(theory))) == dump_theory(theory)
