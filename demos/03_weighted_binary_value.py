"""Walkthrough: conformance testing for weighted automata.

A two-state weighted automaton over the rationals computes the numeric
value of a binary string (a = 0, b = 1). State covers become spanning
sets of reachable vectors, characterization sets become spanning sets
of observation rows, and the same W-suite shape is complete for every
implementation whose state space the extended cover spans. All
arithmetic is exact.
"""

from pathlib import Path

from wmethod import (
    Suite,
    agree_on,
    backward_basis,
    equiv_wa,
    forward_basis,
    in_fault_domain_wa,
    is_minimal_wa,
    minimize_wa,
    parse_machine,
    w_suite,
    wa_lang,
    words_upto,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    return parse_machine((FIXTURES / name).read_text(), name)


spec = load("binary_value.wa")
ab = spec.alphabet

print("value of every word of length <= 3:")
for w in words_upto(ab, 3):
    bits = "".join("01"[s] for s in w.syms)
    print(f"  {w.render(ab):7} -> {wa_lang(spec, w)}  (binary {bits or '-'})")

fb = forward_basis(spec)
bb = backward_basis(spec)
print("reachable-space witnesses:", [w.render(ab) for w in fb.witnesses])
print("observation-space witnesses:", [w.render(ab) for w in bb.witnesses])
assert is_minimal_wa(spec)

p = Suite(ab, fb.witnesses)
w = Suite(ab, bb.witnesses)
suite = w_suite(p, ab, 1, w)
print(f"W1(P,W) has {len(suite)} words")

impl = load("binary_value_faulty.wa")
print(f"faulty build: dimension {impl.dim}, "
      f"in the order-1 fault domain: {in_fault_domain_wa(impl, p, 1)}")
fails = [v for v in agree_on(spec, impl, suite) if not v.passed]
for v in fails:
    print(f"  FAIL {v.word.render(ab)}: expected {v.spec_out}, got {v.impl_out}")
res = equiv_wa(spec, impl)
print("oracle counterexample:", res.counterexample.render(ab))

# The big build happens to be minimal already; reducing a padded copy
# of the spec recovers dimension 2 exactly.
print("minimized faulty build dimension:", minimize_wa(impl).dim)

big = load("binary_value_boundary.wa")
print(f"boundary build: dimension {big.dim}, "
      f"in domain: {in_fault_domain_wa(big, p, 1)}, "
      f"passes suite: {all(v.passed for v in agree_on(spec, big, suite))}, "
      f"equivalent: {bool(equiv_wa(spec, big))}")
