import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_equiv, random_fsm, random_minimal_fsm, reference_char_set, twin
from wmethod import (
    EPSILON,
    Alphabet,
    Fsm,
    NotMinimalError,
    Suite,
    Word,
    agree_on,
    char_set,
    concat_suites,
    equiv,
    is_char_set,
    is_minimal,
    lambda_star,
    lang_value,
    minimize,
    prefix_close,
    run,
    state_cover,
    verify_weak_cover,
    w_suite,
    weak_cover_map,
    words_upto,
)


def brute_distinguishable(m, p, q, max_len):
    """Oracle: is there a word of length <= max_len separating p and q?"""
    ref = twin(m)
    for w in words_upto(m.alphabet, max_len):
        if m.signature(ref.state(w.syms, p)) != m.signature(ref.state(w.syms, q)):
            return True
    return False


def test_run_examples(coffee):
    ab = coffee.alphabet
    assert run(coffee, EPSILON) == 0
    assert run(coffee, ab.word("1", "1")) == 2
    assert run(coffee, ab.word("c")) == 3


def test_lang_value_examples(coffee, coffee_i1, coffee_moore):
    ab = coffee.alphabet
    w = ab.word("1", "1", "c", "1")
    assert lang_value(coffee, w) == 1
    assert lang_value(coffee_i1, w) == 0
    assert lang_value(coffee_moore, ab.word("1", "1")) == "2"
    assert lang_value(coffee, EPSILON) == coffee.output[0]


def test_state_cover_coffee(coffee):
    got = [w.render(coffee.alphabet) for w in state_cover(coffee)]
    assert got == ["-eps-", "c", "1", "1 1"]


def test_state_cover_one_state():
    ab = Alphabet(("a",))
    m = Fsm("dfa", ab, 1, 0, ((0,),), (1,))
    assert list(state_cover(m)) == [EPSILON]


def test_state_cover_chain():
    ab = Alphabet(("a",))
    m = Fsm("dfa", ab, 3, 0, ((1,), (2,), (2,)), (0, 0, 1))
    assert [w.render(ab) for w in state_cover(m)] == ["-eps-", "a", "a a"]


def test_state_cover_unreachable_errors():
    ab = Alphabet(("a",))
    m = Fsm("dfa", ab, 2, 0, ((0,), (1,)), (1, 0))
    with pytest.raises(ValueError, match="state 1"):
        state_cover(m)


def test_is_char_set_coffee(coffee):
    ab = coffee.alphabet
    assert is_char_set(coffee, Suite.from_names(ab, [[], ["c"], ["1"]]))
    assert not is_char_set(coffee, Suite.of(ab, [EPSILON]))
    assert is_char_set(coffee, words_upto(ab, 4))
    with pytest.raises(ValueError):
        is_char_set(coffee, Suite.from_names(ab, [["c"]]))


def test_is_char_set_moore(coffee_moore):
    ab = coffee_moore.alphabet
    assert is_char_set(coffee_moore, Suite.from_names(ab, [[], ["1"]]))


def test_char_set_contract(coffee, coffee_moore, coffee_mealy):
    for m in (coffee, coffee_moore, coffee_mealy):
        w = char_set(m)
        assert w.contains_epsilon()
        assert is_char_set(m, w)
        assert len(w) <= m.n_states  # epsilon plus at most n-1 suffixes


def test_char_set_one_state():
    ab = Alphabet(("a",))
    m = Fsm("dfa", ab, 1, 0, ((0,),), (1,))
    assert list(char_set(m)) == [EPSILON]


def test_char_set_requires_minimal(coffee):
    ab = coffee.alphabet
    cloned = Fsm(
        "dfa",
        ab,
        5,
        0,
        coffee.delta + ((3, 3, 3),),  # state 4 behaves like the sink
        coffee.output + (0,),
    )
    with pytest.raises(NotMinimalError):
        char_set(cloned)


def _char_set_or_error(f, m):
    try:
        return f(m)
    except NotMinimalError as e:
        return str(e)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["dfa", "moore", "mealy"]), st.integers(1, 10))
@settings(max_examples=300, deadline=None)
def test_char_set_matches_reference(seed, kind, max_states):
    # random machines, minimal or not, some with unreachable states
    m = random_fsm(random.Random(seed), max_states=max_states, kind=kind)
    assert _char_set_or_error(char_set, m) == _char_set_or_error(reference_char_set, m)


def _chain(n):
    """q -a-> q+1 mod n, b -> 0, one accepting state: W needs n-1 words."""
    delta = tuple(((q + 1) % n, 0) for q in range(n))
    return Fsm("dfa", Alphabet(("a", "b")), n, 0, delta, tuple(int(q == n - 1) for q in range(n)))


def test_char_set_chain():
    assert char_set(_chain(40)) == reference_char_set(_chain(40))
    m = _chain(400)
    t0 = time.perf_counter()
    w = char_set(m)
    assert time.perf_counter() - t0 < 1.0
    assert w.contains_epsilon()
    assert len(w) <= 400


def test_is_char_set_agrees_with_brute_force_oracle():
    rng = random.Random(4242)
    for _ in range(40):
        m = random_fsm(rng, max_states=4, max_syms=2)
        w = Suite.of(m.alphabet, [EPSILON] + [Word((s,)) for s in range(len(m.alphabet))])
        by_def = is_char_set(m, w)
        # brute force: every pair separable at all (length <= n) must be
        # separated by some word in w
        oracle = True
        ref = twin(m)
        for p, q in itertools.combinations(range(m.n_states), 2):
            if brute_distinguishable(m, p, q, m.n_states):
                if not any(
                    m.signature(ref.state(v.syms, p)) != m.signature(ref.state(v.syms, q))
                    for v in w
                ):
                    oracle = False
        assert by_def == oracle


def test_minimize_coffee_fixed_point(coffee):
    m = minimize(coffee)
    assert m.n_states == 4
    assert equiv(m, coffee).equivalent
    assert minimize(m) == m


def test_minimize_drops_duplicate_state(coffee):
    ab = coffee.alphabet
    cloned = Fsm("dfa", ab, 5, 0, coffee.delta + ((3, 3, 3),), coffee.output + (0,))
    assert minimize(cloned).n_states == 4


def test_minimize_drops_unreachable_state(coffee):
    ab = coffee.alphabet
    extra = Fsm("dfa", ab, 5, 0, coffee.delta + ((0, 1, 2),), coffee.output + (1,))
    m = minimize(extra)
    assert m.n_states == 4
    assert equiv(m, coffee).equivalent


def test_minimize_random_machines():
    rng = random.Random(99)
    for _ in range(30):
        for kind in ("dfa", "moore", "mealy"):
            m = random_fsm(rng, kind=kind)
            mm = minimize(m)
            assert equiv(m, mm).equivalent
            assert minimize(mm) == mm
            assert is_minimal(mm)


def test_verify_weak_cover_from_state_cover(coffee):
    p = state_cover(coffee)
    assert verify_weak_cover(coffee, p, weak_cover_map(coffee, p))


def test_verify_weak_cover_rejects_trivial(coffee):
    p = Suite.of(coffee.alphabet, [EPSILON])
    table = {(EPSILON, a): EPSILON for a in range(3)}
    assert not verify_weak_cover(coffee, p, table)


def test_verify_weak_cover_full_ball(coffee):
    p = words_upto(coffee.alphabet, 4)
    assert verify_weak_cover(coffee, p, weak_cover_map(coffee, p))


def test_verify_weak_cover_value_outside_errors(coffee):
    p = state_cover(coffee)
    table = weak_cover_map(coffee, p)
    table[(EPSILON, 0)] = coffee.alphabet.word("c", "c", "c")
    with pytest.raises(ValueError, match="outside"):
        verify_weak_cover(coffee, p, table)


def test_agree_on_unique_failures(coffee, coffee_i1, coffee_i2):
    ab = coffee.alphabet
    p = state_cover(coffee)
    w = Suite.from_names(ab, [[], ["c"], ["1"]])
    suite = w_suite(p, ab, 0, w)
    fails1 = [v.word.render(ab) for v in agree_on(coffee, coffee_i1, suite) if not v.passed]
    fails2 = [v.word.render(ab) for v in agree_on(coffee, coffee_i2, suite) if not v.passed]
    assert fails1 == ["1 1 c 1"]
    assert fails2 == ["1 1 e c"]


def test_agree_on_reflexive(coffee):
    suite = words_upto(coffee.alphabet, 3)
    assert all(v.passed for v in agree_on(coffee, coffee, suite))


def test_agree_on_kind_mismatch(coffee, coffee_moore):
    with pytest.raises(ValueError):
        agree_on(coffee, coffee_moore, words_upto(coffee.alphabet, 1))


def test_equiv_counterexamples(coffee, coffee_i1, coffee_i2):
    ab = coffee.alphabet
    r1 = equiv(coffee, coffee_i1)
    assert not r1.equivalent
    # a shortest counterexample: length 4, and it genuinely separates
    assert len(r1.counterexample) == 4
    assert brute_force_equiv(coffee, coffee_i1, 3).equivalent
    assert lang_value(coffee, r1.counterexample) != lang_value(coffee_i1, r1.counterexample)
    r2 = equiv(coffee, coffee_i2)
    assert r2.counterexample.render(ab) == "1 1 e c"


def test_equiv_of_renamed_copy(coffee):
    perm = [2, 0, 3, 1]
    inv = [perm.index(i) for i in range(4)]
    renamed = Fsm(
        "dfa",
        coffee.alphabet,
        4,
        perm[0],
        tuple(
            tuple(perm[coffee.delta[inv[q]][a]] for a in range(3)) for q in range(4)
        ),
        tuple(coffee.output[inv[q]] for q in range(4)),
    )
    assert equiv(coffee, renamed).equivalent


def test_equiv_agrees_with_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        a = random_fsm(rng, max_states=4, syms=2)
        b = random_fsm(rng, max_states=4, syms=2)
        res = equiv(a, b)
        brute = brute_force_equiv(a, b, a.n_states + b.n_states - 1)
        assert res == brute
        if not res.equivalent:
            assert lang_value(a, res.counterexample) != lang_value(b, res.counterexample)
            assert len(res.counterexample) <= len(brute.counterexample)


def test_mealy_language_is_last_transition_row(coffee_mealy):
    ab = coffee_mealy.alphabet
    # the row at the reached state lists the next output per symbol
    row = lang_value(coffee_mealy, ab.word("1"))
    assert row == ("cup", "err", "ok")
    assert lang_value(coffee_mealy, EPSILON) == ("err", "err", "ok")


def test_mealy_prefix_closed_agreement_implies_lambda_star():
    rng = random.Random(21)
    hits = 0
    for _ in range(80):
        spec = random_fsm(rng, max_states=4, syms=2, kind="mealy")
        impl = random_fsm(rng, max_states=4, syms=2, kind="mealy")
        suite = prefix_close(
            Suite.of(spec.alphabet, [Word(tuple(rng.randrange(2) for _ in range(3)))])
        )
        if all(v.passed for v in agree_on(spec, impl, suite)):
            hits += 1
            for w in suite:
                assert lambda_star(spec, w) == lambda_star(impl, w)
    assert hits > 0  # the implication was actually exercised


def test_lemma_reachability_of_implementation():
    # minimal spec, implementation with <= n+k states agreeing on P.W:
    # P . Sigma^{<=k} must reach every implementation state
    rng = random.Random(31)
    checked = 0
    for _ in range(150):
        spec = random_minimal_fsm(rng, max_states=4, max_syms=2)
        n = spec.n_states
        k = rng.choice([0, 1])
        impl = minimize(random_fsm(rng, max_states=n + k, max_syms=2))
        if impl.alphabet != spec.alphabet or impl.n_states > n + k:
            continue
        p = state_cover(spec)
        w = char_set(spec)
        if not all(v.passed for v in agree_on(spec, impl, concat_suites(p, w))):
            continue
        checked += 1
        cover = concat_suites(p, words_upto(spec.alphabet, k))
        reached = {run(impl, u) for u in cover}
        assert reached == set(range(impl.n_states))
    assert checked > 0


def test_theorem_weak_cover_agreement_implies_equiv():
    # verify_weak_cover(impl, C, delta_C) + agreement on C.Sigma^{<=1}.W
    # with a minimal spec forces equivalence
    rng = random.Random(32)
    used = 0
    for _ in range(150):
        spec = random_minimal_fsm(rng, max_states=4, max_syms=2)
        impl = minimize(random_fsm(rng, max_states=5, max_syms=2))
        if impl.alphabet != spec.alphabet:
            continue
        c = state_cover(impl)
        delta_c = weak_cover_map(impl, c)
        assert verify_weak_cover(impl, c, delta_c)
        w = char_set(spec)
        t = concat_suites(concat_suites(c, words_upto(spec.alphabet, 1)), w)
        if all(v.passed for v in agree_on(spec, impl, t)):
            used += 1
            assert equiv(spec, impl).equivalent
    assert used > 0


def test_dfa_output_validation():
    ab = Alphabet(("a",))
    with pytest.raises(ValueError):
        Fsm("dfa", ab, 1, 0, ((0,),), (2,))
    with pytest.raises(ValueError):
        Fsm("dfa", ab, 1, 0, ((5,),), (1,))
    with pytest.raises(ValueError):
        Fsm("dfa", ab, 1, 3, ((0,),), (1,))
