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


def test_composed_checks_and_probe_tables_evaluate_through_eval_term(monkeypatch):
    """Tables evaluate each op with `declogic.model.eval_term`, the binding
    that perfbench counts as `model.eval_calls`, so laws-sweep and
    probe-sweep read more than 0 evaluations."""
    import random

    from declogic import model
    from declogic.probes import ProbeContext
    from declogic.theory import seven_laws, states_theory

    theory = states_theory({"x": "V", "y": "V"})
    m = model.build_model(theory, {"V": (0, 1)})
    calls = []
    original = model.eval_term

    def counting(*args):
        calls.append(args)
        return original(*args)

    def no_scan(*args):
        raise AssertionError("a law check scanned")

    monkeypatch.setattr(model, "eval_term", counting)
    monkeypatch.setattr(model, "_scan", no_scan)
    for law in seven_laws(theory, "x", "y"):
        assert model.check_both_eq(law.lhs, law.rhs, m)[0] is None
    assert calls
    calls.clear()
    context = ProbeContext(theory, m, random.Random(0))
    assert context.pool(law.lhs.source, law.lhs.target) and calls
