"""What `import declogic` and each CLI subcommand load.

`import declogic` loads the checker core; the imperative frontend
`declogic.imp` and the law derivations load on first use.  Every check
runs in a fresh interpreter, so no earlier import hides a load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# The public names of `declogic`, by the module that defines them.
PUBLIC = {
    "declogic.types": ["Base", "EMPTY_T", "Empty", "ObjType", "Prod", "Sum",
                       "UNIT_T", "Unit"],
    "declogic.terms": ["Absurd", "Bang", "CaseSeq", "Comp", "Const",
                       "DecoratedTerm", "Decoration", "Equation", "Id", "Inj1",
                       "Inj2", "Mode", "Op", "OpSymbol", "PairSeq", "Proj1",
                       "Proj2", "TypedReport", "copy_term", "infer_decoration",
                       "seq_then", "shield", "swap_term", "typecheck"],
    "declogic.theory": ["ObsRule", "Theory", "combine", "dualize",
                        "dualize_equation", "dualize_term", "dump_theory",
                        "parse_theory", "seven_laws", "states_theory",
                        "theory_from_config"],
    "declogic.model": ["Counterexample", "Exc", "FiniteModel", "ModelConfig",
                       "Outcome", "UNIT", "build_model", "check_both_eq",
                       "check_strong_eq", "check_weak_eq", "enumerate_points",
                       "eval_term", "parse_model_config", "print_model_config",
                       "validate_model"],
    "declogic.rules": ["DUAL_RULE", "PremiseShapeMismatch", "RULES",
                       "RuleError", "SideConditionViolated", "UnknownRule",
                       "check_rule"],
    "declogic.proofs": ["ProofScript", "ProofStep", "ScriptReport",
                        "check_script", "check_step", "dualize_script",
                        "parse_script", "print_script"],
    "declogic.generate": ["GenerationError", "random_term", "type_pool"],
    "declogic.probes": ["ProbeContext", "ProbeReport", "ProbeViolation",
                        "UNSOUND_VARIANTS", "probe_all", "probe_variant",
                        "soundness_probe"],
    "declogic.derivations": ["ScriptBuilder", "all_law_scripts", "law_script"],
}
PUBLIC_MODULES = ["derivations", "generate", "imp", "model", "probes", "proofs",
                  "rules", "syntax", "terms", "theory", "types"]

# Modules whose functions perfbench wraps by binding.  `Tracer.install`
# (perfbench/spans.py) wraps a function only where a module still binds
# the original (`owner.__dict__.get(attr) is original`), so a
# module first imported after the wrap would bind the wrapper and its
# calls would not be traced ("binding gone").  `import declogic` must
# therefore load all of them before any wrap.
TRACED_CORE = ["generate", "model", "probes", "proofs", "rules", "syntax",
               "terms", "theory"]


def _python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _loaded(code: str) -> set[str]:
    """The `declogic` modules loaded after running `code`."""
    done = _python("-c", code + "\nimport sys, json\n"
                   "print(json.dumps(sorted(m for m in sys.modules "
                   "if m.startswith('declogic'))))")
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _deferred(modules: set[str]) -> set[str]:
    return {m for m in modules
            if m == "declogic.derivations" or m.startswith("declogic.imp")}


def test_import_loads_only_the_core():
    loaded = _loaded("import declogic")
    assert _deferred(loaded) == set()
    assert {f"declogic.{name}" for name in TRACED_CORE} <= loaded


MODEL = "type V = {0,1}\nlocation x : V\n"
FILES = {
    "t.term": "comp(op(update_x), op(lookup_x))",
    "m.model": MODEL,
    "law.proof": "goal weak op(lookup_x) = op(lookup_x)\n"
                 "step 1: refl [] |- weak op(lookup_x) = op(lookup_x)\n",
}
SUBCOMMANDS = {
    "check": ["check", "t.term", "--theory", "m.model"],
    "laws": ["laws", "--model", "m.model"],
    "prove": ["prove", "law.proof", "--theory", "m.model"],
    "dualize": ["dualize", "--theory", "m.model"],
}


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_core_subcommands_load_neither_imp_nor_derivations(subcommand, tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    # `-X importtime` names on standard error every module the run imports.
    done = _python("-X", "importtime", "-m", "declogic",
                   *SUBCOMMANDS[subcommand], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    loaded = {line.rpartition("|")[2].strip()
              for line in done.stderr.splitlines()
              if line.startswith("import time:")}
    assert "declogic.cli" in loaded
    assert _deferred(loaded) == set()


def test_public_names_are_pinned_and_keep_their_objects():
    done = _python("-c", f"""
import importlib, json
import declogic
homes = {PUBLIC!r}
same = all(getattr(declogic, name) is getattr(importlib.import_module(home), name)
           for home, names in homes.items() for name in names)
same = same and all(getattr(declogic, name) is
                    importlib.import_module('declogic.' + name)
                    for name in {PUBLIC_MODULES!r})
print(json.dumps([sorted(declogic.__all__), same]))
""")
    assert done.returncode == 0, done.stderr
    names, same = json.loads(done.stdout)
    pinned = sorted(sum(PUBLIC.values(), PUBLIC_MODULES))
    assert len(pinned) == 97
    assert names == pinned
    assert same


def test_star_import_and_first_use_of_deferred_names():
    done = _python("-c", """
import declogic
law_script = declogic.law_script
from declogic.derivations import law_script as defined
assert law_script is defined
from declogic import *
import declogic.imp.ast
assert imp is declogic.imp and ScriptBuilder is declogic.ScriptBuilder
print(imp.parse_command('x := 1'))
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "Assign(target='x', expr=Lit(value=1))\n"
    done = _python("-c", "import declogic; print(declogic.imp.print_command("
                         "declogic.imp.parse_command('skip; x := 2')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "skip; x := 2\n"
    done = _python("-c", "import declogic; declogic.nothing_by_this_name")
    assert "has no attribute 'nothing_by_this_name'" in done.stderr


def test_records_equal_only_records_of_their_class():
    done = _python("-c", """
from declogic.model import Exc, Outcome
from declogic.imp import Add, Sub, Lit, Eq, Le
a, b = Lit(1), Lit(2)
print(Exc("e", 0) != ("e", 0), ("e", 0) != Exc("e", 0),
      Exc("e", 0) == Exc("e", 0), Add(a, b) != Sub(a, b),
      Eq(a, b) != Le(a, b), Add(a, b) == Add(Lit(1), Lit(2)),
      Outcome(1, ()) != (1, ()), len({Exc("e", 0), ("e", 0)}))
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"] * 7 + ["2"]
