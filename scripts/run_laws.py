"""Check the seven state laws and their duals over a family of models.

Runs every law instantiation over models with one or two locations and
carrier sizes two and three, then the dual laws over the matching
exception models, printing one verdict line per instantiation.
"""

import itertools
import sys

from declogic.cli import report_laws
from declogic.model import build_model
from declogic.theory import dualize, states_theory


def model_family():
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


def family_runs(dual: bool):
    """`(locations, model, dual)` for each model of the family."""
    for locations, carriers in model_family():
        theory = states_theory(locations)
        yield locations, build_model(dualize(theory) if dual else theory, carriers), dual


def main() -> int:
    return report_laws(itertools.chain(family_runs(dual=False),
                                       family_runs(dual=True)))


if __name__ == "__main__":
    sys.exit(main())
