"""The completeness theorem, checked exhaustively in a small universe.

Every minimal, reachable 2-state DFA over {a, b} with initial state 0 is
a specification; every DFA over {a, b} with at most 3 states and initial
state 0 is an implementation. The W suite of order k (P·Σ^{≤k+1}·W) is
complete for implementations with at most n + k states: at k = 1 it must
pass exactly the implementations equivalent to the specification, and at
k = 0 the bound must be tight, letting some inequivalent 3-state
implementation through.
"""

from itertools import product

from wmethod import Alphabet, Fsm, char_set, minimize, state_cover
from wmethod.fsm import suite_values
from wmethod.words import w_suite

AB = Alphabet(("a", "b"))


def dfas(n: int):
    """Every DFA over {a, b} with n states and initial state 0."""
    for delta in product(range(n), repeat=2 * n):
        rows = [delta[2 * q : 2 * q + 2] for q in range(n)]
        for acc in product((0, 1), repeat=n):
            yield Fsm("dfa", AB, n, 0, rows, acc)


IMPLS = [m for n in (1, 2, 3) for m in dfas(n)]
# minimization numbers states breadth-first from the initial state, so a
# machine is minimal and reachable exactly when it is its own minimization
SPECS = [m for m in dfas(2) if minimize(m) == m]


def test_the_universe_has_the_expected_size():
    assert (len(SPECS), len(IMPLS)) == (24, 5898)


def test_w_suites_are_complete_and_the_bound_is_tight():
    classes: dict[Fsm, set[int]] = {}  # minimal machine -> implementations equivalent to it
    for i, impl in enumerate(IMPLS):
        classes.setdefault(minimize(impl), set()).add(i)
    for spec in SPECS:
        p, w = state_cover(spec), char_set(spec)
        complete, order0 = w_suite(p, AB, 1, w), w_suite(p, AB, 0, w)
        expected = list(suite_values(spec, complete))
        passed = {
            i for i, impl in enumerate(IMPLS) if list(suite_values(impl, complete)) == expected
        }
        assert passed == classes[spec]
        expected = list(suite_values(spec, order0))
        leaks = [
            i
            for i, impl in enumerate(IMPLS)
            if impl.n_states == 3
            and i not in classes[spec]
            and list(suite_values(impl, order0)) == expected
        ]
        assert leaks, f"order 0 caught every 3-state implementation of {spec}"
