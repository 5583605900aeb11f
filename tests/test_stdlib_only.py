"""The runtime stays standard-library only: every module under
src/declogic imports nothing but the standard library and declogic."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "declogic"


def _imported_top_names(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    foreign = {(path.relative_to(PACKAGE).as_posix(), name)
               for path in modules for name in _imported_top_names(path)
               if name != "declogic" and name not in sys.stdlib_module_names}
    assert foreign == set()


def test_every_file_parses_as_python_3_10():
    # pyproject.toml says requires-python >= 3.10; ast checks the grammar
    # of that version even when a newer interpreter runs the tests.
    root = PACKAGE.parent.parent
    files = sorted(path for top in ("src/declogic", "tests", "scripts", "perfbench")
                   for path in (root / top).rglob("*.py"))
    assert len(files) > 30
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
