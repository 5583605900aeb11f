"""Mutated input files of all five formats through `cli.main`.

Each example takes a small valid model, theory dump, term, proof script
or program, edits one to four characters, and runs the subcommand that
reads that format over |V|=2.  Whatever the edit, the command exits 0,
1 or 2, and an exit 2 prints one `error:` line; no exception escapes.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declogic.cli import main
from declogic.derivations import law_script
from declogic.imp import parse_command, print_command
from declogic.model import ModelConfig, print_model_config
from declogic.proofs import print_script
from declogic.syntax import parse_term, print_term
from declogic.theory import combine, dualize, dump_theory, states_theory

STATES = states_theory({"x": "V", "y": "V"})
COMBINED = combine(STATES, dualize(states_theory({"e": "V"})))
MODEL = print_model_config(ModelConfig(
    {"V": (0, 1)}, {"x": "V", "y": "V"}, {"e": "V"}))
STATES_MODEL = print_model_config(ModelConfig(
    {"V": (0, 1)}, {"x": "V", "y": "V"}, {}))

SEEDS = {
    "model": [MODEL, STATES_MODEL],
    "theory": [dump_theory(STATES), dump_theory(dualize(STATES))],
    "term": [print_term(parse_term(text, COMBINED.signature)) for text in (
        "comp(op(update_x), pair(op(lookup_y), const(1, V)))",
        "case(comp(op(tag_e), proj1(V, unit)), inj2(V, unit))",
    )],
    "proof": [print_script(law_script(STATES, number, "x", "y"))
              for number in (1, 5)],
    "program": [print_command(parse_command(text)) for text in (
        "x := 1; while not x == 0 do { x := x - 1 }",
        "try { throw e(x + 1) } catch e(v) { y := v * 2 }",
    )],
}

# Layout, comment and line characters, a superscript digit, an arrow,
# NUL, and pieces of every format's syntax.
ALPHABET = "#\n\r\t ²→\x00(),:=@{};-01xyeV"

EDITS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace"]),
              st.integers(0, 2000), st.sampled_from(ALPHABET)),
    min_size=1, max_size=4)


def _edit(text, edits):
    for kind, at, char in edits:
        at %= len(text) + (kind == "insert")
        if kind == "insert":
            text = text[:at] + char + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + char + text[at + 1:]
    return text


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "model").write_text(MODEL)
    (path / "theory").write_text(dump_theory(COMBINED))
    (path / "other").write_text(SEEDS["program"][0])
    return path


def _argv(fmt, path, folder):
    return {
        "model": ["laws", "--model", path],
        "theory": ["dualize", "--theory", path],
        "term": ["check", path, "--theory", str(folder / "theory")],
        "proof": ["prove", path, "--theory", str(folder / "model")],
        "program": ["imp-equiv", path, str(folder / "other"),
                    "--model", str(folder / "model"), "--fuel", "4"],
    }[fmt]


@pytest.mark.parametrize("fmt", sorted(SEEDS))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 1), edits=EDITS)
def test_mutated_input_exits_cleanly(folder, fmt, seed, edits):
    path = folder / f"input.{fmt}"
    path.write_text(_edit(SEEDS[fmt][seed], edits), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_argv(fmt, str(path), folder))
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
