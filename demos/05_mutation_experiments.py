"""Walkthrough: validating completeness claims with random mutants.

A completeness experiment mutates a specification inside the fault
domain its W suite targets, runs the suite on every mutant, and checks
each survivor against an exact equivalence oracle. Completeness says no
in-domain survivor may be inequivalent; the experiments below confirm
it for all three machine families, and the boundary fixtures show why
the domain restriction is necessary.
"""

from pathlib import Path

from wmethod import MutationSpec, completeness_experiment, parse_machine

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    return parse_machine((FIXTURES / name).read_text(), name)


# the family of the mutants is the specification's own
for name, k in (
    ("coffee.aut", 0),
    ("coffee.aut", 1),
    ("binary_value.wa", 1),
    ("same_twice.rna", 0),
):
    spec = load(name)
    ms = MutationSpec(max_extra_states=k, n_mutants=40, seed=2024)
    report = completeness_experiment(spec, k, ms)
    print(f"== {name} (k={k}) ==")
    lines = report.render().splitlines()
    print(lines[0])
    for line in lines[1:6]:
        print(line)
    print("   ...")
    print(lines[-1])
    assert report.ok
    print()

print("Identical seeds reproduce byte-identical reports:")
spec = load("coffee.aut")
ms = MutationSpec(0, 10, seed=7)
assert completeness_experiment(spec, 0, ms).render() == \
    completeness_experiment(spec, 0, ms).render()
print("  confirmed for 10 mutants with seed 7")
