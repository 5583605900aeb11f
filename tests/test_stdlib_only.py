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
