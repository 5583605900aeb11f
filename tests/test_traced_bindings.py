"""perfbench traces each layer by wrapping a function at the module
bindings that `perfbench/worker.py`'s `layer_targets` lists.  A binding
that a refactor removes or renames is not counted, so every binding must
still hold its function, even where the module itself no longer calls it."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_binding_holds_its_function(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    from spans import _resolve_owner

    targets = worker.layer_targets()
    assert targets
    for _, home, attr, bindings, *_ in targets:
        original = getattr(_resolve_owner(home), attr)
        assert callable(original) and original.__name__ == attr, (home, attr)
        for where in bindings:
            assert _resolve_owner(where).__dict__.get(attr) is original, f"{where}.{attr}"
