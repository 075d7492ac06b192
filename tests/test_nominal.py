import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_equiv_rna,
    load,
    random_rna,
    reference_concat_orbit,
    reference_pair_configs,
)
from wmethod import (
    EPSILON,
    EPS_PATTERN,
    Alphabet,
    NotMinimalError,
    OracleLimitError,
    OrbitSuite,
    Rna,
    Suite,
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
    w_suite,
    w_suite_rna,
    weak_cover_map_rna,
)
from wmethod import formats as formats_module
from wmethod import nominal as nominal_module
from wmethod import words as words_module
from wmethod.formats import parse_patterns, serialize_suite
from wmethod.nominal import (
    X_SOURCE,
    _pair_configs,
    _step,
    extend,
    extension_choices,
    suite_values_rna,
)

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
    with pytest.raises(ValueError, match="not canonical"):
        SymbolicWord((1, 2, 4, 3))


def test_concat_orbit_examples():
    one = OrbitSuite((P_((1,)),))
    assert [s.pattern for s in concat_orbit(one, one)] == [(1, 1), (1, 2)]
    eps = OrbitSuite((EPS_PATTERN,))
    some = OrbitSuite((P_((1, 2)), P_((1, 1))))
    assert concat_orbit(eps, some) == some
    assert concat_orbit(some, eps) == some
    dbl = OrbitSuite((P_((1, 1)),))
    assert [s.pattern for s in concat_orbit(dbl, one)] == [(1, 1, 1), (1, 1, 2)]


patterns_st = st.lists(st.integers(0, 4), max_size=5).map(SymbolicWord.from_atoms)
orbit_suites_st = st.lists(patterns_st, max_size=5).map(lambda ps: OrbitSuite(tuple(ps)))


@given(orbit_suites_st, orbit_suites_st)
@settings(max_examples=80)
def test_concat_orbit_matches_from_atoms_reference(a, b):
    got = concat_orbit(a, b)
    assert got == reference_concat_orbit(a, b)
    for s in got:  # every pattern passes the check it was built without
        assert SymbolicWord(s.pattern) == s


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


# same_twice against itself has C = 4 configurations: (q0, q0), then
# (q1, q1) with the register matched, then (q2, q2) on the repeated atom
# and (q3, q3) on a fresh one. Against same_twice_boundary the 9th
# configuration found, (q3, c6), is the first whose acceptance differs.
@pytest.mark.parametrize(
    "other, n, verdict",
    [("same_twice.rna", 4, None), ("same_twice_boundary.rna", 9, (1, 2, 3, 4, 5, 6, 7))],
)
def test_equiv_rna_limit_counts_examined_configurations(same_twice, other, n, verdict):
    b = load(other)
    res = equiv_rna(same_twice, b, max_configs=n)
    assert res == equiv_rna(same_twice, b)
    assert (res.counterexample.pattern if verdict else None) == verdict
    with pytest.raises(OracleLimitError, match=f"exceeded {n - 1} configurations"):
        equiv_rna(same_twice, b, max_configs=n - 1)


def test_equiv_rna_limit_is_the_number_of_configurations_examined():
    # the least limit that gives a verdict gives the unlimited one, and one less raises
    rng = random.Random(13)
    for _ in range(60):
        a, b = random_rna(rng, max_locs=4, max_arity=2), random_rna(rng, max_locs=4, max_arity=2)
        n = 1
        while True:
            try:
                res = equiv_rna(a, b, max_configs=n)
                break
            except OracleLimitError:
                n += 1
        assert res == equiv_rna(a, b)
        assert all(equiv_rna(a, b, max_configs=m) == res for m in (n + 1, n + 5))


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


def test_pair_configs_match_the_reference():
    rng = random.Random(12)
    for _ in range(150):
        a = random_rna(rng, max_locs=4, max_arity=3)
        assert list(_pair_configs(a)) == list(reference_pair_configs(a))


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


def test_orbit_suite_is_a_suite_with_its_own_items():
    assert issubclass(OrbitSuite, Suite)
    for name in ("__len__", "__iter__", "_member_set", "__contains__", "contains_epsilon", "plan"):
        assert name not in vars(OrbitSuite)
    assert not OrbitSuite(()).contains_epsilon()
    assert OrbitSuite((EPS_PATTERN,)).contains_epsilon()
    assert not OrbitSuite((P_((1,)), P_((1, 1)))).contains_epsilon()


def test_orbit_suite_equality_and_lines_with_and_without_texts():
    pats = (EPS_PATTERN, P_((1,)), P_((1, 2)))
    plain = OrbitSuite(pats)
    kept = OrbitSuite(pats, ("-eps-", "1", "1 2"))
    assert kept.texts is not None and plain.texts is None
    assert kept == plain and hash(kept) == hash(plain)
    assert list(kept.lines()) == list(plain.lines()) == ["-eps-", "1", "1 2"]
    assert kept.patterns == plain.patterns == pats
    # texts in any other order are dropped, and the lines rendered again
    shuffled = OrbitSuite(pats[::-1], ("1 2", "1", "-eps-"))
    assert shuffled.texts is None and shuffled == plain
    assert list(shuffled.lines()) == ["-eps-", "1", "1 2"]
    assert OrbitSuite(pats) != Suite(Alphabet(("a",)), ())
    assert OrbitSuite(()) != OrbitSuite((EPS_PATTERN,))


def test_w_suite_inputs_are_checked_alike_for_both_kinds():
    ab = Alphabet(("a",))
    kinds = [
        (
            lambda p, k, w: w_suite(p, ab, k, w),
            Suite(ab, (EPSILON,)),
            Suite(ab, (ab.word("a"),)),
            Suite(ab, ()),
        ),
        (w_suite_rna, OrbitSuite((EPS_PATTERN,)), OrbitSuite((P_((1,)),)), OrbitSuite(())),
    ]
    for build, eps, no_eps, empty in kinds:
        with pytest.raises(ValueError, match="k must be nonnegative"):
            build(eps, -1, eps)
        for p in (no_eps, empty):
            with pytest.raises(ValueError, match="P must contain the empty word"):
                build(p, 0, eps)
            with pytest.raises(ValueError, match="W must contain the empty word"):
                build(eps, 0, p)


def test_tracer_names_stay_distinct_functions():
    # the benchmark's tracer wraps each of these by name; one function
    # bound to two names would put one family's time in the other's layer
    names = [
        (words_module, "w_suite"),
        (words_module, "concat_suites"),
        (words_module, "words_upto"),
        (words_module, "prefix_close"),
        (nominal_module, "w_suite_rna"),
        (nominal_module, "concat_orbit"),
        (nominal_module, "patterns_upto"),
        (formats_module, "parse_suite"),
        (formats_module, "parse_patterns"),
        (formats_module, "serialize_suite"),
    ]
    fns = [getattr(module, name) for module, name in names]
    assert all(callable(fn) for fn in fns)
    assert len({id(fn) for fn in fns}) == len(fns)


REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"


def _bench_reference():
    """The benchmark's own register automaton, written apart from wmethod."""
    path = REPO / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _bench_reference()


@st.composite
def rnas_st(draw):
    """A register automaton of up to 4 locations, each of arity 0 to 3 (the initial 0)."""
    arities = [0, *draw(st.lists(st.integers(0, 3), max_size=3))]
    rules = []
    for r in arities:
        group = []
        for g in range(r + 1):
            sources = [X_SOURCE, *range(1, r + 1)]
            if g < r:
                sources.remove(g + 1)  # the input aliases that register
            fits = [t for t, n in enumerate(arities) if n <= len(sources)]
            target = draw(st.sampled_from(fits))
            group.append((target, tuple(draw(st.permutations(sources))[: arities[target]])))
        rules.append(tuple(group))
    accepting = draw(st.frozensets(st.integers(0, len(arities) - 1)))
    return Rna(tuple((f"l{i}", r) for i, r in enumerate(arities)), 0, accepting, tuple(rules))


@st.composite
def pattern_suites_st(draw):
    """patterns_upto(k), maybe a random subset of it, maybe read back from
    its file with the lines in either order, so the plan is the reader's."""
    t = patterns_upto(draw(st.integers(0, 5)))
    if draw(st.booleans()):
        t = OrbitSuite(tuple(p for p in t if draw(st.booleans())))
    if draw(st.booleans()):
        lines = serialize_suite(t).splitlines(keepends=True)
        t = parse_patterns("".join(lines[:: draw(st.sampled_from([1, -1]))]))
    return t


# l1 holds the last atom read while each is fresh, and moves on at a repeat:
# the patterns meet l1 holding 1, 2, 3, ..., so its registers matter
KEEPS_LAST = Rna(
    (("l0", 0), ("l1", 1), ("l2", 0)),
    0,
    {2},
    (((1, (X_SOURCE,)),), ((2, ()), (1, (X_SOURCE,))), ((2, ()),)),
)


@given(rnas_st(), pattern_suites_st())
@example(KEEPS_LAST, patterns_upto(3))
@settings(max_examples=150, deadline=None)
def test_rna_execution_matches_the_benchmark_reference(a, t):
    ref = reference.Rna(a.locations, a.accepting, a.rules, a.initial)
    for s in (t, patterns_upto(5)):  # and every run of up to 5 atoms
        want = [ref.location(p.pattern) in ref.accepting for p in s]
        assert list(suite_values_rna(a, s)) == want
    for p in t:
        state = (ref.initial, ())
        for x in p.pattern:
            state = ref.step(*state, x)
        assert rna_run(a, p.pattern) == state
    for loc, (_, arity) in enumerate(a.locations):
        regs = tuple(range(2 * arity, arity, -1))  # distinct atoms, none of them 1
        for x in (*regs, 1):  # each register's guard, then fresh
            assert _step(a, loc, regs, x) == ref.step(loc, regs, x)


def test_suite_values_step_each_edge_and_read_each_class_once(monkeypatch, same_twice):
    text = (GOLDEN / "gen-k1.same_twice.rna.suite").read_text()
    read = []
    real_class = formats_module._class
    monkeypatch.setattr(formats_module, "_class", lambda tok: read.append(tok) or real_class(tok))
    t = parse_patterns(text)
    assert sorted(read) == sorted(set(text.split()) - {"-eps-"})
    want = [symbolic_run(same_twice, p)[1] for p in t]
    steps = []
    monkeypatch.setattr(nominal_module, "_step", lambda *args: steps.append(args) or _step(*args))
    assert list(suite_values_rna(same_twice, t)) == want
    assert sum(len(tail) for _, tail in t.plan) == 127  # one step per planned symbol
    assert len(steps) == len(set(steps)) == 10  # one per distinct (state, atom) edge
