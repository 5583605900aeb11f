"""Hand-written state transformers for the seven laws.

Each entry gives both sides of a law as direct Python functions over
(input value, state tuple), written from the informal reading of the
law and not through the term evaluator.  The test suite compares the
evaluator's outcomes against these on every point of every test model,
so a routing bug in the evaluator cannot hide behind an identical bug
in the encodings.
"""

from declogic.model import UNIT


def _put(state, index, value):
    return state[:index] + (value,) + state[index + 1:]


def law1_sides(ix):
    def lhs(v, s):  # update after lookup: rewrite what is already there
        return (UNIT, _put(s, ix, s[ix]))

    def rhs(v, s):
        return (UNIT, s)

    return lhs, rhs


def law2_sides(ix):
    def lhs(v, s):  # two lookups in sequence
        return ((s[ix], s[ix]), s)

    def rhs(v, s):  # one lookup, duplicated
        return ((s[ix], s[ix]), s)

    return lhs, rhs


def law3_sides(ix):
    def lhs(v, s):  # write first component, then overwrite with second
        u, w = v
        return (UNIT, _put(_put(s, ix, u), ix, w))

    def rhs(v, s):
        u, w = v
        return (UNIT, _put(s, ix, w))

    return lhs, rhs


def law4_sides(ix):
    def lhs(v, s):  # write v, then read it back
        return (v, _put(s, ix, v))

    def rhs(v, s):
        return (v, s)

    return lhs, rhs


def law5_sides(ix, jx):
    def lhs(v, s):
        return ((s[ix], s[jx]), s)

    def rhs(v, s):  # read in the other order, then swap
        pair = (s[jx], s[ix])
        return ((pair[1], pair[0]), s)

    return lhs, rhs


def law6_sides(ix, jx):
    def lhs(v, s):
        u, w = v
        return (UNIT, _put(_put(s, ix, u), jx, w))

    def rhs(v, s):
        u, w = v
        return (UNIT, _put(_put(s, jx, w), ix, u))

    return lhs, rhs


def law7_sides(ix, jx):
    # Stated for distinct locations only: writing i never changes j.
    def lhs(v, s):  # write location i, then read location j
        return (s[jx], _put(s, ix, v))

    def rhs(v, s):  # read j first (i not yet written), then write i
        return (s[jx], _put(s, ix, v))

    return lhs, rhs


def single_location_laws(ix):
    return {1: law1_sides(ix), 2: law2_sides(ix), 3: law3_sides(ix),
            4: law4_sides(ix)}


def two_location_laws(ix, jx):
    laws = single_location_laws(ix)
    laws.update({5: law5_sides(ix, jx), 6: law6_sides(ix, jx),
                 7: law7_sides(ix, jx)})
    return laws


# Expected verdicts: mode "strong" means both checks pass; mode "weak"
# means the weak check passes and the strong check must find a
# counterexample in some model.
LAW_MODES = {1: "strong", 2: "strong", 3: "strong", 4: "weak",
             5: "strong", 6: "strong", 7: "strong"}


# ---------------------------------------------------------------------------
# The state comonad, pointwise.  The evaluator realizes the same content
# through its threading rules; the structural tests check its identities.


def comonad_phi(f):
    """Functor action: apply `f` to the value, carry the state along."""
    def mapped(pair):
        x, s = pair
        return (f(x), s)
    return mapped


def comonad_delta(pair):
    """Copy the state into the value so later maps can read it."""
    x, s = pair
    return ((x, s), s)


def comonad_epsilon(pair):
    """Discard the state."""
    x, s = pair
    return x
