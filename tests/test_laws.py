"""The seven state laws and their duals, against two oracles.

Every instantiation is checked twice: the equality oracle decides the
expected strong/weak verdict, and the hand-written state transformers
in semantic_reference confirm the evaluator's pointwise outcomes for
both sides.
"""

import collections
import itertools
import random

import pytest

from reference_eval import live_states, ops_of
from semantic_reference import LAW_MODES, single_location_laws, two_location_laws

from declogic import cli
from declogic import model as model_module
from declogic.cli import main
from declogic.generate import GenerationError, random_term, type_pool
from declogic.model import (
    Outcome,
    build_model,
    check_both_eq,
    check_strong_eq,
    check_weak_eq,
    enumerate_points,
    eval_term,
)
from declogic.terms import Mode
from declogic.theory import (
    combine,
    dual_symbol_map,
    dualize,
    dualize_equation,
    seven_laws,
    states_theory,
)


def model_family():
    """1-2 locations, carrier sizes 2-3 in every combination."""
    names = ["x", "y"]
    for count in (1, 2):
        for sizes in itertools.product((2, 3), repeat=count):
            locations = {}
            carriers = {}
            for name, size in zip(names, sizes):
                base = f"V{size}"
                locations[name] = base
                carriers[base] = tuple(range(size))
            yield locations, carriers


def law_instantiations(locations):
    pairs = [(i, j) for i in locations for j in locations if i != j]
    if not pairs:
        pairs = [(next(iter(locations)), None)]
    return pairs


FAMILY = list(model_family())


class TestStateLaws:
    @pytest.mark.parametrize("locations,carriers", FAMILY,
                             ids=[",".join(f"{k}:{v}" for k, v in locs.items())
                                  for locs, _ in FAMILY])
    def test_verdicts_match_modes(self, locations, carriers):
        theory = states_theory(locations)
        model = build_model(theory, carriers)
        for i, j in law_instantiations(locations):
            laws = seven_laws(theory, i, j)
            for number, law in zip(range(1, len(laws) + 1), laws):
                label = f"law {number} @ {i},{j}"
                assert check_weak_eq(law.lhs, law.rhs, model) is None, label
                strong = check_strong_eq(law.lhs, law.rhs, model)
                if law.mode is Mode.STRONG:
                    assert strong is None, label
                else:
                    assert strong is not None, label

    def test_law4_counterexample_is_the_documented_one(self):
        theory = states_theory({"x": "V"})
        model = build_model(theory, {"V": (0, 1)})
        law4 = seven_laws(theory)[3]
        cex = check_strong_eq(law4.lhs, law4.rhs, model)
        assert cex.value == 1
        assert cex.state == (0,)
        assert cex.left == Outcome(1, (1,))
        assert cex.right == Outcome(1, (0,))

    @pytest.mark.parametrize("locations,carriers", FAMILY,
                             ids=[",".join(f"{k}:{v}" for k, v in locs.items())
                                  for locs, _ in FAMILY])
    def test_sides_match_hand_written_semantics(self, locations, carriers):
        theory = states_theory(locations)
        model = build_model(theory, carriers)
        names = list(locations)
        for i, j in law_instantiations(locations):
            ix = names.index(i)
            if j is None:
                reference = single_location_laws(ix)
            else:
                reference = two_location_laws(ix, names.index(j))
            laws = seven_laws(theory, i, j)
            for number, law in zip(range(1, len(laws) + 1), laws):
                ref_lhs, ref_rhs = reference[number]
                for side, ref in ((law.lhs, ref_lhs), (law.rhs, ref_rhs)):
                    for state in model.states:
                        for value in enumerate_points(side.source, model):
                            expected_value, expected_state = ref(value, state)
                            assert eval_term(side, model, value, state) == \
                                Outcome(expected_value, expected_state), \
                                f"law {number} @ {i},{j}"

    def test_modes_table_matches_theory(self):
        theory = states_theory({"x": "V", "y": "V"})
        for number, law in enumerate(seven_laws(theory, "x", "y"), start=1):
            assert law.mode.value == LAW_MODES[number]


class TestDualLaws:
    @pytest.mark.parametrize("locations,carriers", FAMILY,
                             ids=[",".join(f"{k}:{v}" for k, v in locs.items())
                                  for locs, _ in FAMILY])
    def test_dual_verdicts(self, locations, carriers):
        mirror = states_theory(locations)
        symbol_map = dual_symbol_map(mirror)
        ex_theory = dualize(mirror)
        model = build_model(ex_theory, carriers)
        for i, j in law_instantiations(locations):
            laws = seven_laws(mirror, i, j)
            for number, law in zip(range(1, len(laws) + 1), laws):
                dual = dualize_equation(law, symbol_map)
                label = f"dual law {number} @ {i},{j}"
                assert check_weak_eq(dual.lhs, dual.rhs, model) is None, label
                strong = check_strong_eq(dual.lhs, dual.rhs, model)
                if law.mode is Mode.STRONG:
                    assert strong is None, label
                else:
                    assert strong is not None, label

    def test_dual_law4_counterexample_is_exceptional(self):
        mirror = states_theory({"e": "P"})
        dual4 = dualize_equation(seven_laws(mirror)[3], dual_symbol_map(mirror))
        model = build_model(dualize(mirror), {"P": (0, 1)})
        cex = check_strong_eq(dual4.lhs, dual4.rhs, model)
        from declogic.model import Exc
        assert cex.value == Exc("e", 0)
        assert cex.left.value == 0          # caught and unwrapped
        assert cex.right.value == Exc("e", 0)  # identity re-raises


class TestCombinedModel:
    def test_all_fourteen_laws_hold_combined(self):
        st = states_theory({"x": "V", "y": "V"})
        ex_mirror = states_theory({"e": "P", "f": "P"})
        both = combine(st, dualize(ex_mirror))
        model = build_model(both, {"V": (0, 1), "P": (0, 1)})
        for i, j in law_instantiations(st.locations):
            for number, law in zip(range(1, 8), seven_laws(st, i, j)):
                assert check_weak_eq(law.lhs, law.rhs, model) is None
                strong = check_strong_eq(law.lhs, law.rhs, model)
                assert (strong is None) == (law.mode is Mode.STRONG), \
                    f"law {number} @ {i},{j} in combined model"
        symbol_map = dual_symbol_map(ex_mirror)
        for i, j in law_instantiations(ex_mirror.locations):
            for number, law in zip(range(1, 8), seven_laws(ex_mirror, i, j)):
                dual = dualize_equation(law, symbol_map)
                assert check_weak_eq(dual.lhs, dual.rhs, model) is None
                strong = check_strong_eq(dual.lhs, dual.rhs, model)
                assert (strong is None) == (law.mode is Mode.STRONG), \
                    f"dual law {number} @ {i},{j} in combined model"


class TestOneScan:
    def test_both_verdicts_are_the_single_checks(self):
        """On random pairs of terms, which mostly differ, and on each
        term against itself."""
        st = states_theory({"x": "V", "y": "V"})
        ex = dualize(states_theory({"e": "V"}))
        outcomes = collections.Counter()
        rng = random.Random(4)
        for theory in (st, ex, combine(st, ex)):
            model = build_model(theory, {"V": (0, 1)})
            types = type_pool(theory)
            for _ in range(150):
                src, tgt = rng.choice(types), rng.choice(types)
                try:
                    f, g = (random_term(rng, theory, model, src, tgt, 3)
                            for _ in range(2))
                except GenerationError:
                    continue
                for lhs, rhs in ((f, g), (f, f)):
                    both = check_both_eq(lhs, rhs, model)
                    assert both == (check_weak_eq(lhs, rhs, model),
                                    check_strong_eq(lhs, rhs, model))
                    outcomes[tuple(cex is None for cex in both)] += 1
        assert min(outcomes.values()) >= 20 and len(outcomes) == 3

    def test_laws_evaluates_each_ordinary_point_once_per_side(
            self, tmp_path, monkeypatch, capsys):
        """Every law holds weakly, and each is answered from tables of its
        sides over their live states: each op of a side is evaluated at
        each ordinary point of its source there, exactly once per check,
        and at no point outside them but a catcher's exceptional ones.
        A law at one location never varies the other."""
        path = tmp_path / "m.model"
        path.write_text("type V = {0,1}\nlocation x : V\nlocation y : V\n"
                        "exception e : V\n")
        calls = collections.Counter()
        checks = []
        original = model_module.eval_term
        check = cli.check_both_eq

        def counting(term, model, value, state):
            calls[term, value, state] += 1
            return original(term, model, value, state)

        def pairing(lhs, rhs, model):
            calls.clear()
            both = check(lhs, rhs, model)
            checks.append((lhs, rhs, model, dict(calls)))
            return both

        monkeypatch.setattr(model_module, "eval_term", counting)
        monkeypatch.setattr(cli, "check_both_eq", pairing)
        assert main(["laws", "--model", str(path)]) == 0
        assert "all law instantiations passed" in capsys.readouterr().out
        # 7 laws at x,y and at y,x, and 4 dual ones at e.
        assert len(checks) == 7 + 7 + 4
        sizes, evaluated = set(), 0
        for lhs, rhs, model, counts in checks:
            assert set(counts.values()) <= {1}
            evaluated += len(counts)
            states = live_states(model, lhs, rhs)
            sizes.add(len(states))
            ops = ops_of(lhs, rhs)
            ordinary = {(op, v, s) for op in ops for s in states
                        for v in enumerate_points(op.source, model)}
            assert ordinary <= counts.keys()
            assert counts.keys() <= ordinary | {
                (op, v, s) for op in ops if op.decoration.exc == 2
                for s in states for v in model.exc_values}
        assert evaluated > 0
        # Dual laws name no location, and some laws name only one.
        assert sizes == {1, 2, 4}
