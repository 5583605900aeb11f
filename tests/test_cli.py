"""Exit codes and report lines of the command-line interface."""

import sys

import pytest

from declogic.cli import main

ST_MODEL = """\
type V = {0,1}
location x : V
"""

COMBINED_MODEL = """\
type V = {0,1}
location x : V
location y : V
exception e : V
"""

EXC_MODEL = """\
type V = {0,1}
exception e : V
"""


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def test_laws_single_location(write, capsys):
    assert main(["laws", "--model", write("m.model", ST_MODEL)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "LAW 4 @ x WEAK ok STRONG counterexample: x=0,v=1 [ok]" in out
    assert out[-1] == "all law instantiations passed"
    assert sum(line.startswith("LAW") for line in out) == 4


def test_laws_combined_model_includes_duals(write, capsys):
    assert main(["laws", "--model", write("m.model", COMBINED_MODEL)]) == 0
    out = capsys.readouterr().out
    assert "LAW 5 @ x,y" in out
    assert "DUAL LAW 4 @ e WEAK ok STRONG counterexample:" in out


def test_laws_deterministic(write, capsys):
    path = write("m.model", COMBINED_MODEL)
    main(["laws", "--model", path])
    first = capsys.readouterr().out
    main(["laws", "--model", path])
    assert capsys.readouterr().out == first


def test_check_reports_decoration(write, capsys):
    model = write("m.model", ST_MODEL)
    term = write("t.term", "comp(op(update_x), op(lookup_x))")
    assert main(["check", term, "--theory", model]) == 0
    assert capsys.readouterr().out.strip() == "ok: unit -> unit @ (2,0)"


def test_check_pure_term_needs_no_theory(write, capsys):
    term = write("t.term", "pair(id(unit), bang(unit))")
    assert main(["check", term]) == 0
    assert "@ (0,0)" in capsys.readouterr().out


def test_check_rejects_ill_typed(write, capsys):
    model = write("m.model", ST_MODEL)
    term = write("t.term", "comp(op(lookup_x), op(lookup_x))")
    assert main(["check", term, "--theory", model]) == 1
    assert "ill-typed" in capsys.readouterr().out


def test_check_unknown_op_is_input_error(write, capsys):
    term = write("t.term", "op(lookup_x)")
    assert main(["check", term]) == 2
    assert "error:" in capsys.readouterr().err


def test_prove_accepts_law_scripts(write, capsys):
    from declogic.derivations import law_script
    from declogic.proofs import print_script
    from declogic.theory import states_theory

    model = write("m.model", ST_MODEL)
    script = write("law3.proof",
                   print_script(law_script(states_theory({"x": "V"}), 3)))
    assert main(["prove", script, "--theory", model]) == 0
    assert capsys.readouterr().out.strip() == "accepted"
    assert main(["-v", "prove", script, "--theory", model]) == 0
    assert "steps toward" in capsys.readouterr().out


def test_prove_reports_failing_step(write, capsys):
    model = write("m.model", ST_MODEL)
    script = write(
        "bad.proof",
        "goal strong comp(op(lookup_x), op(update_x)) = id(V)\n"
        "step 1: axiom [st_ax1_x] |- "
        "weak comp(op(lookup_x), op(update_x)) = id(V)\n"
        "step 2: strong-to-weak [1] |- "
        "strong comp(op(lookup_x), op(update_x)) = id(V)\n",
    )
    assert main(["prove", script, "--theory", model]) == 1
    assert "rejected at step 2" in capsys.readouterr().out


def test_dualize_round_trips(write, capsys, tmp_path):
    model = write("m.model", ST_MODEL)
    assert main(["dualize", "--theory", model]) == 0
    dumped = capsys.readouterr().out
    assert dumped.startswith("theory exceptions")
    assert "op tag_x" in dumped
    dual_path = tmp_path / "dual.theory"
    dual_path.write_text(dumped)
    assert main(["dualize", "--theory", str(dual_path)]) == 0
    back = capsys.readouterr().out
    assert back.startswith("theory states")
    assert "op lookup_x" in back and "op update_x" in back


def test_imp_equiv_verdicts_and_exits(write, capsys):
    model = write("m.model", COMBINED_MODEL)
    strong = [write("a.imp", "x := 1; y := x"), write("b.imp", "x := 1; y := 1")]
    assert main(["imp-equiv", *strong, "--model", model]) == 0
    assert "strongly equivalent" in capsys.readouterr().out

    weak = [write("c.imp", "x := 1"), write("d.imp", "x := 0")]
    assert main(["imp-equiv", *weak, "--model", model]) == 0
    assert "weakly equivalent" in capsys.readouterr().out

    differ = [write("e.imp", "throw e(0)"), write("f.imp", "skip")]
    assert main(["imp-equiv", *differ, "--model", model]) == 1
    assert "not equivalent" in capsys.readouterr().out

    spin = [write("g.imp", "while true do { skip }"), write("h.imp", "skip")]
    assert main(["imp-equiv", *spin, "--model", model, "--fuel", "3"]) == 1
    assert "fuel" in capsys.readouterr().out


def test_main_leaves_the_recursion_limit(write, capsys):
    model = write("m.model", COMBINED_MODEL)
    programs = [write("a.imp", "x := 1"), write("b.imp", "x := 1")]
    limit = sys.getrecursionlimit()
    try:
        assert main(["imp-equiv", *programs, "--model", model]) == 0
        assert main(["laws", "--model", model]) == 0
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(limit)


def test_imp_equiv_rejects_bad_models(write, capsys):
    skewed = write("m.model", "type V = {1,2}\nlocation x : V\n")
    a, b = write("a.imp", "skip"), write("b.imp", "skip")
    assert main(["imp-equiv", a, b, "--model", skewed]) == 2
    assert "carrier 0..1" in capsys.readouterr().err
    no_locs = write("n.model", EXC_MODEL)
    assert main(["imp-equiv", a, b, "--model", no_locs]) == 2


def test_missing_files_exit_2(write, capsys):
    assert main(["check", "/nonexistent.term"]) == 2
    assert "cannot read" in capsys.readouterr().err
    assert main(["laws", "--model", "/nonexistent.model"]) == 2


def test_usage_errors_exit_2(write):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["imp-equiv", "a", "b", "--model", "m", "--fuel", "0"])
    assert exc.value.code == 2


def test_non_decimal_digits_exit_2(write, capsys):
    model = write("m.model", ST_MODEL)
    skip = write("skip.imp", "skip")
    program = write("sq.imp", "x := ²")
    assert main(["imp-equiv", program, skip, "--model", model]) == 2
    assert capsys.readouterr().err == \
        "error: unexpected character '²' (line 1, column 6)\n"
    term = write("sq.term", "const(², V)")
    assert main(["check", term, "--theory", model]) == 2
    assert capsys.readouterr().err == \
        "error: unexpected character '²' (line 1, column 7)\n"
    script = write("sq.proof", "goal strong const(², V) = const(0, V)\n")
    assert main(["prove", script, "--theory", model]) == 2
    assert capsys.readouterr().err == \
        "error: unexpected character '²' (line 1, column 19)\n"


def test_decoration_out_of_range_exits_2(write, capsys):
    theory = write("bad.theory", "theory states\nlocation x : V\n"
                   "op lookup_x : unit -> V @ (7,-1)\n")
    term = write("t.term", "op(lookup_x)")
    assert main(["check", term, "--theory", theory]) == 2
    assert capsys.readouterr().err == ("error: decoration levels must be 0, "
                                       "1 or 2 (line 3, column 27)\n")


def test_keyword_base_name_exits_2(write, capsys):
    theory = write("bad.theory", "theory states\nlocation x : unit\n"
                   "op lookup_x : unit -> unit @ (1,0)\n")
    term = write("t.term", "op(lookup_x)")
    assert main(["check", term, "--theory", theory]) == 2
    assert capsys.readouterr().err == ("error: bad base type name 'unit' "
                                       "(line 2, column 14)\n")


def test_empty_theory_file_is_input_error(write, capsys):
    empty = write("empty.model", "# nothing here\n")
    assert main(["dualize", "--theory", empty]) == 2
    assert capsys.readouterr().err == (
        "error: the model declares neither locations nor exceptions\n")
