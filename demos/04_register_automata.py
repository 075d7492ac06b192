"""Walkthrough: data words, register automata, and orbit suites.

The alphabet is now an infinite set of atoms compared only by equality;
the machine accepts exactly the words "some atom, then the same atom
again". Tests cannot enumerate an infinite alphabet, but acceptance is
invariant under permuting atoms, so one representative per equality
pattern suffices: a suite is a finite list of patterns like `1 2 1`
(first and third letters equal, second different).
"""

from pathlib import Path

from wmethod import (
    agree_on,
    char_set_rna,
    equiv_rna,
    lang_value,
    parse_machine,
    patterns_upto,
    rna_run,
    state_cover_rna,
    verify_weak_cover_rna,
    w_suite_rna,
    weak_cover_map_rna,
)
from wmethod.nominal import Rna

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

spec = parse_machine((FIXTURES / "same_twice.rna").read_text(), "same_twice.rna")

print("concrete runs:")
for word in ((5, 5), (5, 7), (3, 3, 3)):
    loc, regs = rna_run(spec, word)
    print(f"  {word} -> {spec.loc_name(loc)} accepted={loc in spec.accepting}")

print("\nall patterns of length <= 3 and their verdicts:")
for s in patterns_upto(3):
    mark = "ACCEPT" if lang_value(spec, s) else "      "
    print(f"  {mark} {s.render():8} (canonical instance {s.pattern})")

# A state cover: one access pattern per reachable location, plus a map
# sending every one-letter extension back into the cover.
p = state_cover_rna(spec)
print("\nstate cover patterns:", [s.render() for s in p])
dp = weak_cover_map_rna(spec, p)
assert verify_weak_cover_rna(spec, p, dp)

w = char_set_rna(spec)
print("characterization patterns:", [s.render() for s in w])

suite = w_suite_rna(p, 0, w)
print(f"W0(P,W) is a finite list of {len(suite)} patterns "
      f"(longest has {max(len(s) for s in suite)} letters), standing for "
      "infinitely many data words")

flipped = Rna(spec.locations, spec.initial, frozenset(), spec.rules)
rules = [list(g) for g in spec.rules]
rules[1][1] = (2, ())  # a fresh second letter now also accepts
retarget = Rna(spec.locations, spec.initial, spec.accepting, tuple(map(tuple, rules)))

for name, mut in (("flipped-accepting", flipped), ("retargeted-fresh", retarget)):
    fails = [v.word.render() for v in agree_on(spec, mut, suite) if not v.passed]
    res = equiv_rna(spec, mut)
    print(f"{name}: killed by {fails[:3]}{'...' if len(fails) > 3 else ''}; "
          f"oracle counterexample {res.counterexample.render()}")
