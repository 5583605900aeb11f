"""The scripts under scripts/ run and produce what the CLI accepts."""

import os
import pathlib
import subprocess
import sys

import pytest

from declogic.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name, last", [
    ("run_laws.py", "all law instantiations passed"),
    ("run_imp_demo.py", None),
])
def test_script_exits_zero(name, last):
    result = run_script(name)
    assert result.returncode == 0, result.stderr
    if last is not None:
        assert result.stdout.splitlines()[-1] == last


# The whole output of scripts/run_imp_demo.py: two locations, so each
# verdict's first state is also pinned.
IMP_DEMO = """\
dead store          strongly equivalent
loop closed form    strongly equivalent
catch and rebind    strongly equivalent
raise keeps writes  weakly equivalent (final states first differ from x=0,y=0)
handler choice      not equivalent (results first differ from x=0,y=0)
spin                undecided (fuel ran out from x=0,y=0)

fuel 1: undecided (fuel ran out from x=1,y=0)
fuel 2: undecided (fuel ran out from x=2,y=0)
fuel 3: undecided (fuel ran out from x=3,y=0)
fuel 4: strongly equivalent
fuel 5: strongly equivalent
"""


def test_imp_demo_output_is_pinned():
    result = run_script("run_imp_demo.py")
    assert (result.returncode, result.stdout) == (0, IMP_DEMO), result.stderr


def test_exported_derivations_replay(tmp_path, capsys):
    result = run_script("export_derivations.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    proofs = sorted(tmp_path.glob("*.proof"))
    assert proofs
    assert f"wrote {len(proofs)} verified proof scripts" in result.stdout
    for proof in proofs:
        theory = "exceptions" if proof.name.startswith("dual_") else "states"
        code = main(["prove", str(proof),
                     "--theory", str(tmp_path / f"{theory}.theory")])
        assert (code, capsys.readouterr().out) == (0, "accepted\n"), proof.name
