import random

import pytest

from helpers import brute_force_equiv_rna, random_rna
from wmethod import (
    EPS_PATTERN,
    NotMinimalError,
    OrbitSuite,
    Rna,
    SymbolicWord,
    agree_on_rna,
    char_set_rna,
    concat_orbit,
    equiv_rna,
    instantiate,
    is_char_set_rna,
    is_minimal_rna,
    patterns_upto,
    rna_accepts,
    rna_run,
    state_cover_rna,
    symbolic_run,
    verify_weak_cover_rna,
    w_suite_rna,
    weak_cover_map_rna,
)
from wmethod.nominal import extension_choices, extend

P_ = SymbolicWord


@pytest.fixture
def spec_p(same_twice):
    return OrbitSuite((P_(()), P_((1,)), P_((1, 1)), P_((1, 1, 2))))


@pytest.fixture
def spec_delta_p():
    dp = {
        (P_(()), None): P_((1,)),
        (P_((1,)), 1): P_((1, 1)),
        (P_((1,)), None): P_((1, 1, 2)),
    }
    for c in (1, None):
        dp[(P_((1, 1)), c)] = P_((1, 1, 2))
    for c in (1, 2, None):
        dp[(P_((1, 1, 2)), c)] = P_((1, 1, 2))
    return dp


@pytest.fixture
def spec_w():
    return OrbitSuite((P_(()), P_((1,)), P_((1, 1))))


def flipped_mutant(m: Rna) -> Rna:
    return Rna(m.locations, m.initial, frozenset(), m.rules)


def retarget_mutant(m: Rna) -> Rna:
    # the fresh rule of the register location goes to the accepting sink
    rules = [list(g) for g in m.rules]
    rules[1][1] = (2, ())
    return Rna(m.locations, m.initial, m.accepting, tuple(map(tuple, rules)))


def test_rna_run_examples(same_twice):
    loc, regs = rna_run(same_twice, (5, 5))
    assert same_twice.loc_name(loc) == "q2" and loc in same_twice.accepting
    loc, _ = rna_run(same_twice, (5, 7))
    assert same_twice.loc_name(loc) == "q3"
    loc, _ = rna_run(same_twice, ())
    assert same_twice.loc_name(loc) == "q0" and loc not in same_twice.accepting


def test_symbolic_run_examples(same_twice):
    assert symbolic_run(same_twice, P_((1, 1)))[1]
    assert not symbolic_run(same_twice, P_((1, 2)))[1]
    assert not symbolic_run(same_twice, P_((1, 1, 2)))[1]


def test_symbolic_run_matches_all_short_patterns(same_twice):
    accepted = [s.pattern for s in patterns_upto(3) if symbolic_run(same_twice, s)[1]]
    assert accepted == [(1, 1)]


def test_orbit_soundness_random_instantiation(same_twice):
    # acceptance is constant on orbits: any injective relabelling of the
    # canonical instance gives the same verdict
    rng = random.Random(3)
    for s in patterns_upto(4):
        want = symbolic_run(same_twice, s)[1]
        for _ in range(5):
            atoms = rng.sample(range(100), s.num_classes)
            word = tuple(atoms[c - 1] for c in s.pattern)
            assert rna_accepts(same_twice, word) == want


def test_instantiate():
    assert instantiate(P_((1, 1))) == (1, 1)
    assert instantiate(P_((1, 2, 1))) == (1, 2, 1)
    assert instantiate(EPS_PATTERN) == ()


def test_pattern_canonicalization():
    assert SymbolicWord.from_atoms((7, 7, 5)).pattern == (1, 1, 2)
    with pytest.raises(ValueError):
        SymbolicWord((2, 1))
    with pytest.raises(ValueError):
        SymbolicWord((1, 3))


def test_concat_orbit_examples():
    one = OrbitSuite((P_((1,)),))
    assert [s.pattern for s in concat_orbit(one, one)] == [(1, 1), (1, 2)]
    eps = OrbitSuite((EPS_PATTERN,))
    some = OrbitSuite((P_((1, 2)), P_((1, 1))))
    assert concat_orbit(eps, some) == some
    assert concat_orbit(some, eps) == some
    dbl = OrbitSuite((P_((1, 1)),))
    assert [s.pattern for s in concat_orbit(dbl, one)] == [(1, 1, 1), (1, 1, 2)]


def test_concat_orbit_is_exact_orbit_decomposition():
    # every concatenation of instances lands in an output orbit, and
    # every output orbit is realized by some pair of instances
    rng = random.Random(8)
    a = OrbitSuite((P_((1, 2)), P_((1, 1))))
    b = OrbitSuite((P_((1,)), P_((1, 2))))
    out = concat_orbit(a, b)
    realized = set()
    for _ in range(800):
        u = rng.choice(a.patterns)
        v = rng.choice(b.patterns)
        # a small atom pool makes every overlap between the two halves likely
        iu = rng.sample(range(4), u.num_classes)
        iv = rng.sample(range(4), v.num_classes)
        word = tuple(iu[c - 1] for c in u.pattern) + tuple(iv[c - 1] for c in v.pattern)
        pat = SymbolicWord.from_atoms(word)
        assert pat in out
        realized.add(pat)
    assert realized == set(out.patterns)


def test_patterns_upto_counts():
    # Bell numbers: 1, 1, 2, 5, 15
    assert len(patterns_upto(0)) == 1
    assert len(patterns_upto(1)) == 2
    assert len(patterns_upto(2)) == 4
    assert len(patterns_upto(3)) == 9
    assert len(patterns_upto(4)) == 24


def test_verify_weak_cover_spec_table(same_twice, spec_p, spec_delta_p):
    assert verify_weak_cover_rna(same_twice, spec_p, spec_delta_p)


def test_verify_weak_cover_trivial_false(same_twice):
    p = OrbitSuite((EPS_PATTERN,))
    assert not verify_weak_cover_rna(same_twice, p, {(EPS_PATTERN, None): EPS_PATTERN})


def test_verify_weak_cover_errors(same_twice, spec_p, spec_delta_p):
    incomplete = dict(spec_delta_p)
    del incomplete[(P_((1,)), 1)]
    with pytest.raises(ValueError, match="not total"):
        verify_weak_cover_rna(same_twice, spec_p, incomplete)
    outside = dict(spec_delta_p)
    outside[(P_((1,)), 1)] = P_((1, 2))
    with pytest.raises(ValueError, match="outside"):
        verify_weak_cover_rna(same_twice, spec_p, outside)


def test_weak_cover_map_and_bfs_cover(same_twice, spec_p):
    assert verify_weak_cover_rna(same_twice, spec_p, weak_cover_map_rna(same_twice, spec_p))
    p = state_cover_rna(same_twice)
    assert [s.pattern for s in p] == [(), (1,), (1, 1), (1, 2)]
    assert verify_weak_cover_rna(same_twice, p, weak_cover_map_rna(same_twice, p))


def test_char_set_rna(same_twice, spec_w):
    assert is_char_set_rna(same_twice, spec_w)
    got = char_set_rna(same_twice)
    assert EPS_PATTERN in got
    assert is_char_set_rna(same_twice, got)
    assert [s.pattern for s in got] == [(), (1,), (1, 1)]


def test_char_set_trivial_machine():
    m = Rna((("only", 0),), 0, frozenset({0}), (((0, ()),),))
    assert [s.pattern for s in char_set_rna(m)] == [()]


def test_char_set_requires_minimal(same_twice):
    # two interchangeable sinks make the machine non-minimal
    locs = same_twice.locations + (("q4", 0),)
    rules = tuple(list(same_twice.rules)) + (((4, ()),),)
    m = Rna(locs, same_twice.initial, same_twice.accepting, rules)
    assert not is_minimal_rna(m)
    with pytest.raises(NotMinimalError):
        char_set_rna(m)


def test_epsilon_distinguishes_accepting(same_twice):
    # q2 accepting vs q3 rejecting is witnessed by the empty pattern
    with pytest.raises(ValueError):
        is_char_set_rna(same_twice, OrbitSuite((P_((1,)),)))
    assert not is_char_set_rna(same_twice, OrbitSuite((EPS_PATTERN,)))


def test_w_suite_rna(spec_p, spec_w):
    suite = w_suite_rna(spec_p, 0, spec_w)
    assert len(suite) > 0 and len(suite) < 200
    assert max(len(s) for s in suite) <= 6
    small = w_suite_rna(OrbitSuite((EPS_PATTERN,)), 0, OrbitSuite((EPS_PATTERN,)))
    assert [s.pattern for s in small] == [(), (1,)]
    with pytest.raises(ValueError):
        w_suite_rna(OrbitSuite((P_((1,)),)), 0, spec_w)


def test_agree_on_rna(same_twice, spec_p, spec_w):
    suite = w_suite_rna(spec_p, 0, spec_w)
    assert all(v.passed for v in agree_on_rna(same_twice, same_twice, suite))
    flip = flipped_mutant(same_twice)
    fails = [v.word.pattern for v in agree_on_rna(same_twice, flip, suite) if not v.passed]
    assert (1, 1) in fails
    retg = retarget_mutant(same_twice)
    fails = [v.word.pattern for v in agree_on_rna(same_twice, retg, suite) if not v.passed]
    assert any(f[:2] == (1, 2) for f in fails)


def test_equiv_rna(same_twice):
    assert equiv_rna(same_twice, same_twice).equivalent
    r = equiv_rna(same_twice, flipped_mutant(same_twice))
    assert not r.equivalent and r.counterexample.pattern == (1, 1)
    # register-renamed isomorphic copy
    renamed = Rna(
        tuple((f"m{i}", a) for i, (_, a) in enumerate(same_twice.locations)),
        same_twice.initial,
        same_twice.accepting,
        same_twice.rules,
    )
    assert equiv_rna(same_twice, renamed).equivalent


def test_theorem_instance_mutants(same_twice, spec_p, spec_delta_p, spec_w):
    # weak cover + suite agreement forces equivalence; inequivalent
    # mutants with a weak cover must be killed by the suite
    suite = w_suite_rna(spec_p, 0, spec_w)
    for mut in (flipped_mutant(same_twice), retarget_mutant(same_twice)):
        try:
            dp = weak_cover_map_rna(mut, spec_p)
        except ValueError:
            continue
        assert verify_weak_cover_rna(mut, spec_p, dp)
        passed = all(v.passed for v in agree_on_rna(same_twice, mut, suite))
        if passed:
            assert equiv_rna(same_twice, mut).equivalent
        else:
            assert not equiv_rna(same_twice, mut).equivalent


def test_determinism_exactly_one_rule(same_twice):
    # guard resolution always selects exactly one rule: registers are
    # pairwise distinct in every reachable state
    rng = random.Random(9)
    for _ in range(50):
        word = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 6)))
        loc, regs = rna_run(same_twice, word)
        assert len(set(regs)) == len(regs)
        matches = [i for i, v in enumerate(regs) if v == word[-1]] if word else []
        assert len(matches) <= 1


def test_extension_choices():
    assert extension_choices(P_((1, 2))) == [1, 2, None]
    assert extend(P_((1, 2)), 1).pattern == (1, 2, 1)
    assert extend(P_((1, 2)), None).pattern == (1, 2, 3)


def test_equiv_agrees_with_brute_force_random():
    rng = random.Random(10)
    for _ in range(60):
        a = random_rna(rng)
        b = random_rna(rng)
        res = equiv_rna(a, b)
        bound = 2 * max(len(a.locations), len(b.locations))
        brute = brute_force_equiv_rna(a, b, bound)
        assert res.equivalent == brute.equivalent
        if not res.equivalent:
            assert symbolic_run(a, res.counterexample)[1] != symbolic_run(b, res.counterexample)[1]
            assert len(res.counterexample) <= len(brute.counterexample)


def test_rna_validation():
    with pytest.raises(ValueError, match="arity 0|no registers"):
        Rna((("q0", 1),), 0, frozenset(), (((0, (1,)), (0, (0,))),))
    with pytest.raises(ValueError, match="duplicate an atom"):
        Rna(
            (("q0", 0), ("q1", 2)),
            0,
            frozenset(),
            (((1, (0, 0)),), ((0, ()), (0, ()), (0, ()))),
        )
    # an arity-2 target is fillable only when two distinct atoms exist:
    # from an arity-1 location that means the fresh rule
    m = Rna(
        (("q0", 0), ("q1", 1), ("q2", 2)),
        0,
        frozenset({2}),
        (
            ((1, (0,)),),
            ((1, (1,)), (2, (1, 0))),
            ((2, (1, 2)), (2, (1, 2)), (0, ())),
        ),
    )
    loc, regs = rna_run(m, (4, 9))
    assert m.loc_name(loc) == "q2" and regs == (4, 9)


def test_minimality_same_location_register_junk():
    # a location that ignores its register: states differing only in the
    # register are equivalent, so the machine is not minimal
    m = Rna(
        (("q0", 0), ("junk", 1)),
        0,
        frozenset({1}),
        (((1, (0,)),), ((1, (1,)), (1, (0,)))),
    )
    assert not is_minimal_rna(m)


def test_equiv_result_is_shared(same_twice):
    from wmethod import EquivResult, RnaEquivResult

    assert RnaEquivResult is EquivResult
    assert equiv_rna(same_twice, same_twice) == EquivResult(True, None)
