"""Deep terms under the interpreter's default recursion limit.

A 100k-node chain `comp(id(V), comp(id(V), ... op(lookup_x)))` must
parse, print back to the same text, get a canonical key, and go through
the `check` and `prove` subcommands with their normal exit codes.
"""

import sys

import pytest

from declogic.cli import main
from declogic.syntax import parse_term, print_term
from declogic.terms import canonical_key, typecheck
from declogic.theory import states_theory

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
    assert canonical_key(term) == ("op", "lookup_x")
    assert typecheck(term, SIGNATURE).ok


def test_nested_pairs_parse_print_and_key():
    term = parse_term(NESTED_PAIRS, SIGNATURE)
    assert print_term(term) == NESTED_PAIRS
    key = canonical_key(term)
    assert key[0] == "pair" and key[2] == ("op", "lookup_x")


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
