"""Check the seven state laws and their duals over a family of models.

Runs every law instantiation over models with one or two locations and
carrier sizes two and three, then the dual laws over the matching
exception models, printing one verdict line per instantiation.
"""

import itertools
import sys

from declogic.cli import _law_lines
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


def check_family(dual: bool) -> int:
    failures = 0
    for locations, carriers in model_family():
        theory = states_theory(locations)
        model = build_model(dualize(theory) if dual else theory, carriers)
        lines, failed = _law_lines(locations, model, dual)
        failures += failed
        for line in lines:
            print(line)
    return failures


def main() -> int:
    failures = check_family(dual=False)
    failures += check_family(dual=True)
    if failures:
        print(f"{failures} law instantiations FAILED")
        return 1
    print("all law instantiations passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
