"""Seeded inputs and known answers for the four benchmark workloads.

Everything here runs before timing starts, in the benchmark's parent
process.  `build(workload, seed, size)` returns a JSON-ready fixture:
the texts the timed process loads during set-up (model descriptions,
theory dumps), one entry per item with its input and its expected
verdict, and one small case for the CLI cross-check.

Expected verdicts never come from the code under test:

- laws: the hand-written law sides and `LAW_MODES` in
  `tests/semantic_reference.py`, scanned state-major like the model;
- proofs: "accepted" for exported derivations, and "rejected at step k"
  for copies tampered at step k in a way the rule table must reject;
- programs: `tests/reference_imp.py::reference_verdict`;
- probes: no violation for a real rule.
"""
from __future__ import annotations

import itertools
import random
import re
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("laws-sweep", "proof-replay", "imp-equiv", "probe-sweep")
SIZES = ("full", "tiny")

# Identifiers that are neither keywords of either language nor binders.
_LOCATION_NAMES = ("x", "y", "z", "p", "q", "r", "s", "t")
_EXCEPTION_NAMES = ("e", "f", "g", "h")


def _package():
    """Import the package and the reference helpers from this checkout."""
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import declogic
    import reference_imp
    import semantic_reference

    return declogic, reference_imp, semantic_reference


def build(workload: str, seed: int, size: str = "full") -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{seed}")
    make = {
        "laws-sweep": _laws,
        "proof-replay": _proofs,
        "imp-equiv": _imp,
        "probe-sweep": _probes,
    }[workload]
    fixture = make(rng, size == "tiny")
    fixture.update(workload=workload, seed=seed, size=size)
    return fixture


def _model_text(carrier, locations, exceptions) -> str:
    lines = [f"type V = {{{','.join(str(v) for v in carrier)}}}"]
    lines += [f"location {name} : V" for name in locations]
    lines += [f"exception {name} : V" for name in exceptions]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# laws-sweep


def _law_inputs(number: int, carrier) -> list:
    """Ordinary inputs of law `number`'s sides, in enumeration order."""
    if number in (1, 2, 5):
        return [None]
    if number in (3, 6):
        return [(u, w) for u in carrier for w in carrier]
    return list(carrier)


def _law_pairs(names) -> list:
    """The (i, j) instantiations `declogic laws` prints, in its order."""
    pairs = [(i, j) for i in names for j in names if i != j]
    return pairs or [(names[0], None)]


def _state_law_answer(reference, number, ix, jx, carrier, locations):
    """Weak verdict and rendered first strong counterexample, by hand.

    State operations pass exceptional inputs through untouched, so only
    ordinary inputs can separate the two sides.
    """
    sides = (reference.single_location_laws(ix) if jx is None
             else reference.two_location_laws(ix, jx))
    lhs, rhs = sides[number]
    inputs = _law_inputs(number, carrier)
    weak = True
    first = None
    for state in itertools.product(carrier, repeat=len(locations)):
        for v in inputs:
            left, right = lhs(v, state), rhs(v, state)
            if left[0] != right[0]:
                weak = False
            if first is None and left != right:
                first = (v, state)
    strong = None
    if first is not None:
        v, state = first
        parts = [f"{name}={value}" for name, value in zip(locations, state)]
        if v is not None:
            parts.append(f"v={v}")
        strong = ",".join(parts)
    return {"weak": weak, "strong": strong}


def _law_items(reference, carrier, locations, exceptions) -> list:
    items = []
    for family, names in (("states", locations), ("exceptions", exceptions)):
        if not names:
            continue
        for i, j in _law_pairs(names):
            count = 4 if j is None else 7
            for number in range(1, count + 1):
                where = i if j is None else f"{i},{j}"
                prefix = "DUAL " if family == "exceptions" else ""
                if family == "states":
                    index = locations.index
                    expected = _state_law_answer(
                        reference, number, index(i),
                        None if j is None else index(j), carrier, locations)
                else:
                    strong = reference.LAW_MODES[number] == "strong"
                    expected = {"weak": True, "strong": None if strong else "*"}
                items.append({"id": f"{prefix}LAW {number} @ {where}",
                              "family": family, "i": i, "j": j,
                              "number": number, "expected": expected})
    return items


def _laws(rng: random.Random, tiny: bool) -> dict:
    _, _, reference = _package()
    n_loc, n_exc, n_val = (2, 1, 2) if tiny else (4, 2, 4)
    carrier = rng.sample(range(10), n_val)
    locations = rng.sample(_LOCATION_NAMES, n_loc)
    exceptions = rng.sample(_EXCEPTION_NAMES, n_exc)
    items = _law_items(reference, carrier, locations, exceptions)
    rng.shuffle(items)
    small = (carrier[:2], locations[:2], exceptions[:1])
    return {
        "setup": {"model": _model_text(carrier, locations, exceptions)},
        "items": items,
        "cli": {"model": _model_text(*small),
                "items": _law_items(reference, *small)},
    }


# ---------------------------------------------------------------------------
# proof-replay

_STEP = re.compile(r"^step (\d+): (\S+) \[([^\]]*)\] \|- (weak|strong) (.*)$")
# Rules whose premise count is fixed, and rules whose conclusion mode is
# fixed by the rule or by its premises' mode.
_ARITY = {"refl": 0, "sym": 1, "trans": 2}
_MODE_BOUND = {"axiom", "sym", "trans", "subs", "repl", "strong-to-weak",
               "effect", "obs"}
TAMPER_KINDS = ("rule", "premise", "conclusion")


def _tamper(text: str, kind: str, rng: random.Random):
    """Change one step so that the checker must reject exactly there.

    rule: swap to a rule whose premise count differs, or cite a label
    from a non-axiom rule.  premise: cite the step itself, or an axiom
    label the theory lacks.  conclusion: flip the mode of a step whose
    rule fixes it.  Returns (text, step number).
    """
    lines = text.splitlines()
    steps = [(n, _STEP.match(line)) for n, line in enumerate(lines)]
    steps = [(n, m) for n, m in steps if m]
    if kind == "conclusion":
        steps = [(n, m) for n, m in steps if m.group(2) in _MODE_BOUND]
    n, m = rng.choice(steps)
    number, rule, premises, mode, body = m.groups()
    if kind == "rule":
        if rule == "axiom":
            rule = "refl"
        else:
            count = len([p for p in premises.split(",") if p.strip()])
            rule = rng.choice([r for r, a in _ARITY.items()
                               if a != count and r != rule])
    elif kind == "premise":
        if rule == "axiom":
            premises = premises.strip() + "_missing"
        else:
            cited = [p.strip() for p in premises.split(",") if p.strip()]
            slot = rng.randrange(len(cited) + 1)
            cited[slot:slot + 1] = [number]
            premises = ", ".join(cited)
    else:
        mode = "weak" if mode == "strong" else "strong"
    lines[n] = f"step {number}: {rule} [{premises}] |- {mode} {body}"
    return "\n".join(lines) + "\n", int(number)


def _proofs(rng: random.Random, tiny: bool) -> dict:
    declogic, _, _ = _package()
    locations = {name: "V" for name in rng.sample(_LOCATION_NAMES, 2 if tiny else 4)}
    states = declogic.states_theory(locations)
    theories = {"states": declogic.dump_theory(states),
                "exceptions": declogic.dump_theory(declogic.dualize(states))}
    scripts = []
    for name, script in declogic.all_law_scripts(states).items():
        scripts.append((name, "states", declogic.print_script(script)))
        dual = declogic.dualize_script(script, states)
        scripts.append((f"dual {name}", "exceptions", declogic.print_script(dual)))
    items = [{"id": name, "theory": theory, "text": text, "expected": "accepted"}
             for name, theory, text in scripts]
    # Tampered copies come from the longest derivations (law 6 and its
    # dual), so the rejected step ranges over a long replay and the
    # copies join the slowest items instead of blurring p50.
    longest = [s for s in scripts if "law6@" in s[0]]
    tampered = []
    per_kind = 2 if tiny else 6
    for kind in TAMPER_KINDS:
        for _ in range(per_kind):
            name, theory, text = rng.choice(longest)
            text, step = _tamper(text, kind, rng)
            tampered.append({"id": f"{name} ({kind} at step {step})",
                             "kind": kind, "theory": theory, "text": text,
                             "expected": step})
    items += tampered
    rng.shuffle(items)
    accepted = next(i for i in items if i["expected"] == "accepted")
    return {
        "setup": {"theories": theories},
        "items": items,
        "cli": {"theories": theories, "items": [dict(accepted), dict(tampered[0])]},
    }


# ---------------------------------------------------------------------------
# imp-equiv

# (category, left, right, intended verdict).  The reference
# interpreter decides the verdict; the stated kind documents the intent
# and the fixture refuses a template that drifts from it.
_TEMPLATES = (
    ("commute", "L := M + a", "L := a + M", "strong"),
    ("inverse", "L := L + a; L := L - a", "skip", "strong"),
    ("distribute", "L := (M + a) * b", "L := M * b + a * b", "strong"),
    ("overwrite", "L := a; L := b", "L := b", "strong"),
    ("countdown", "while not L == 0 do { L := L - 1 }", "L := 0", "strong"),
    ("count-to", "while not L == a do { L := L + 1 }", "L := a", "strong"),
    ("catch-1", "try { throw E(L + a) } catch E(v) { M := v }", "M := L + a",
     "strong"),
    ("catch-2", "try { throw E(L) } catch E(v) { try { throw F(v + a) } "
     "catch F(w) { M := w } }", "M := L + a", "strong"),
    ("catch-2-off", "try { throw E(L) } catch E(v) { try { throw F(v + a) } "
     "catch F(w) { M := w } }", "M := L + b", "weak"),
    ("catch-3", "try { throw E(L) } catch E(v) { try { throw F(v + a) } "
     "catch F(w) { try { throw E(w * b) } catch E(u) { M := u } } }",
     "M := (L + a) * b", "strong"),
    ("write-throw", "L := a; throw E(b)", "throw E(b); L := a", "weak"),
    ("handler-write", "try { L := a; throw E(b) } catch E(v) { skip }", "skip",
     "weak"),
    ("payload-off", "throw E(L + a)", "throw E(L + b)", "not-equal"),
    ("rethrow-off", "try { throw E(L) } catch E(v) { throw F(v + a) }",
     "throw F(L + b)", "not-equal"),
    ("handler-choice", "throw E(a)", "throw F(a)", "not-equal"),
    ("parity", "while not L == 0 do { L := L + 2 }", "L := 0", "fuel-exhausted"),
    ("spin", "while true do { L := L + a }", "skip", "fuel-exhausted"),
)
# Pairs per template in one pass.  Cheap pairs take under 10 ms, the
# loops and depth-2 handlers 15-25 ms and the depth-3 handlers about
# 100 ms, so this mix puts p50 inside the middle group and p90 inside the
# depth-3 group, away from the gaps between groups.
_MIX = {"countdown": 6, "count-to": 6, "parity": 6, "spin": 6,
        "catch-2": 12, "catch-2-off": 12, "catch-3": 24}
_MIX_DEFAULT = 4


def _instantiate(template: str, names: dict, values: dict) -> str:
    out = template
    for key, value in {**names, **values}.items():
        out = re.sub(rf"\b{key}\b", str(value), out)
    return out


def _imp(rng: random.Random, tiny: bool) -> dict:
    declogic, reference, _ = _package()
    size, fuel = (4, 8) if tiny else (16, 16)
    locations = rng.sample(_LOCATION_NAMES, 2)
    exceptions = rng.sample(_EXCEPTION_NAMES, 2)
    items = []
    for category, left, right, intent in _TEMPLATES:
        if tiny and category == "catch-3":
            continue
        count = 1 if tiny else _MIX.get(category, _MIX_DEFAULT)
        for k in range(count):
            items.append(_program_pair(rng, f"{category}-{k}", left, right,
                                       intent, locations, exceptions, size))
    _imp_answers(declogic, reference, items, locations, exceptions, size, fuel)
    rng.shuffle(items)
    cli_size, cli_fuel = 4, 8
    _, left, right, intent = next(t for t in _TEMPLATES if t[0] == "catch-2")
    small = [_program_pair(rng, "cli catch-2", left, right, intent, locations,
                           exceptions, cli_size)]
    _imp_answers(declogic, reference, small, locations, exceptions, cli_size,
                 cli_fuel)
    return {
        "setup": {"model": _model_text(range(size), locations, exceptions),
                  "fuel": fuel},
        "items": items,
        "cli": {"model": _model_text(range(cli_size), locations, exceptions),
                "fuel": cli_fuel, "items": small},
    }


def _program_pair(rng, item_id, left, right, intent, locations, exceptions,
                  size) -> dict:
    loc = rng.sample(locations, 2)
    exc = rng.sample(exceptions, 2)
    a, b = rng.sample(range(1, size), 2)
    names = {"L": loc[0], "M": loc[1], "E": exc[0], "F": exc[1]}
    values = {"a": a, "b": b}
    return {"id": item_id, "left": _instantiate(left, names, values),
            "right": _instantiate(right, names, values), "intent": intent}


def _imp_answers(declogic, reference, items, locations, exceptions, size, fuel):
    machine = reference.Machine({n: "V" for n in locations},
                                {n: "V" for n in exceptions}, {"V": size})
    # reference_verdict reads only the state order and location names.
    shape = SimpleNamespace(
        states=list(itertools.product(range(size), repeat=len(locations))),
        locations={n: "V" for n in locations})
    for item in items:
        first = declogic.imp.parse_command(item["left"])
        second = declogic.imp.parse_command(item["right"])
        item["expected"] = reference.reference_verdict(machine, shape, first,
                                                       second, fuel)
        if item["expected"] != item["intent"]:
            raise ValueError(f"{item['id']}: reference says "
                             f"{item['expected']}, template intends "
                             f"{item['intent']}")


# ---------------------------------------------------------------------------
# probe-sweep

FLAVORS = ("states", "exceptions", "combined")


def _probes(rng: random.Random, tiny: bool) -> dict:
    declogic, _, reference = _package()
    carrier = sorted(rng.sample(range(10), 2))
    location = rng.choice(_LOCATION_NAMES)
    exception = rng.choice(_EXCEPTION_NAMES)
    models = {
        "states": _model_text(carrier, [location], []),
        "exceptions": _model_text(carrier, [], [exception]),
        "combined": _model_text(carrier, [location], [exception]),
    }
    probe_seeds = [rng.randrange(10**6) for _ in range(1 if tiny else 2)]
    items = []
    for flavor in FLAVORS:
        for probe_seed in probe_seeds:
            for rule in declogic.RULES:
                items.append({"id": f"{flavor}/{probe_seed}/{rule}",
                              "kind": "rule", "flavor": flavor,
                              "probe_seed": probe_seed, "rule": rule,
                              "expected": 0})
    for name, variant in declogic.UNSOUND_VARIANTS.items():
        for flavor in variant.flavors:
            for probe_seed in probe_seeds:
                items.append({"id": f"{flavor}/{probe_seed}/variant {name}",
                              "kind": "variant", "flavor": flavor,
                              "probe_seed": probe_seed, "variant": name,
                              "expected": "any"})
    return {
        "setup": {"models": models, "samples": 20 if tiny else 200},
        "items": items,
        "cli": {"model": models["combined"],
                "items": _law_items(reference, carrier, [location], [exception])},
    }
