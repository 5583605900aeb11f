"""Which functions of the runtime recurse.  Deep input must never raise
`RecursionError`, so a function that calls itself is either bounded in
depth or listed here as known work: a new one fails this test, not a
deep input found later."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "declogic"

# `random_term` recurses at most `depth` times.
ALLOWED = {"generate.random_term"}


def _calls_itself(func, method: bool) -> bool:
    """Whether `func` calls itself by name, or as a method on its first
    parameter."""
    params = func.args.posonlyargs + func.args.args
    me = params[0].arg if method and params else None
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if method:
            if (isinstance(callee, ast.Attribute) and callee.attr == func.name
                    and isinstance(callee.value, ast.Name) and callee.value.id == me):
                return True
        elif isinstance(callee, ast.Name) and callee.id == func.name:
            return True
    return False


def _recursive(node, prefix: str, in_class: bool):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _recursive(child, f"{prefix}{child.name}.", True)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _calls_itself(child, in_class):
                yield prefix + child.name
            yield from _recursive(child, f"{prefix}{child.name}.", False)
        else:
            yield from _recursive(child, prefix, in_class)


def test_only_the_known_functions_call_themselves():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {f"{module}.{name}" for name in _recursive(tree, "", False)}
    assert found == ALLOWED
