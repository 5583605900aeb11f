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
