import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_equiv_wa,
    fraction_rank,
    fraction_state,
    load,
    random_minimal_wa,
    random_wa,
    reference_minimize_wa,
)
from wmethod import weighted as weighted_module
from wmethod.faultsim import MutationSpec, completeness_experiment
from wmethod import (
    EPSILON,
    Alphabet,
    Suite,
    Wa,
    Word,
    agree_on,
    backward_basis,
    equiv_wa,
    forward_basis,
    in_fault_domain_wa,
    is_char_set_wa,
    is_minimal_wa,
    is_state_cover_wa,
    minimize_wa,
    w_suite,
    wa_lang,
    words_upto,
)

AB = Alphabet(("a", "b"))


def binary_value(w: Word) -> int:
    """Independent oracle: the word read as a binary numeral, a=0 b=1."""
    bits = "".join("01"[s] for s in w.syms)
    return int(bits, 2) if bits else 0


def test_wa_lang_examples(binary_wa, binary_wa_faulty):
    assert wa_lang(binary_wa, EPSILON) == 0
    assert wa_lang(binary_wa, AB.word("b")) == 1
    assert wa_lang(binary_wa, AB.word("b", "a", "a", "b")) == 9
    assert wa_lang(binary_wa_faulty, AB.word("b", "a", "a", "b")) == 13


def test_wa_lang_is_binary_evaluation(binary_wa):
    for w in words_upto(AB, 6):
        assert wa_lang(binary_wa, w) == binary_value(w)


def test_wa_lang_exact_fractions(binary_wa):
    v = wa_lang(binary_wa, AB.word("b", "b"))
    assert isinstance(v, Fraction) and v == 3


def test_forward_basis_witnesses(binary_wa, binary_wa_faulty):
    fb = forward_basis(binary_wa)
    assert fb.rank == 2
    assert [w.render(AB) for w in fb.witnesses] == ["-eps-", "b"]
    fb5 = forward_basis(binary_wa_faulty)
    assert fb5.rank == 5
    # all five states are spanned by words of length <= 2 (greedy
    # length-lex picks ab where bb would also have worked)
    assert all(len(w) <= 2 for w in fb5.witnesses)
    assert {(), (0,), (1,)} <= {w.syms for w in fb5.witnesses}


def test_forward_basis_zero_initial(binary_wa):
    z = Wa(AB, 2, (0, 0), binary_wa.mats, binary_wa.f)
    assert forward_basis(z).rank == 0
    assert forward_basis(z).witnesses == ()


def test_forward_witnesses_prefix_closed():
    rng = random.Random(5)
    for _ in range(30):
        a = random_wa(rng, max_dim=4)
        wits = forward_basis(a).witnesses
        members = {w.syms for w in wits}
        for w in wits:
            for i in range(len(w.syms)):
                assert w.syms[:i] in members


def test_is_state_cover_examples(binary_wa, binary_wa_faulty):
    p = Suite.from_names(AB, [[], ["b"]])
    assert is_state_cover_wa(binary_wa, p)
    assert not is_state_cover_wa(binary_wa, Suite.of(AB, [EPSILON]))
    big = Suite.from_names(AB, [[], ["a"], ["b"], ["b", "a"], ["b", "b"]])
    assert is_state_cover_wa(binary_wa_faulty, big)


def test_backward_basis_witnesses(binary_wa):
    bb = backward_basis(binary_wa)
    assert bb.rank == 2
    assert [w.render(AB) for w in bb.witnesses] == ["-eps-", "b"]
    zero_out = Wa(AB, 2, binary_wa.s0, binary_wa.mats, (0, 0))
    assert backward_basis(zero_out).rank == 0


def test_is_char_set_examples(binary_wa):
    assert is_char_set_wa(binary_wa, Suite.from_names(AB, [[], ["b"]]))
    assert not is_char_set_wa(binary_wa, Suite.of(AB, [EPSILON]))


def test_backward_witnesses_always_a_char_set():
    rng = random.Random(6)
    for _ in range(30):
        a = random_wa(rng, max_dim=4)
        wits = list(backward_basis(a).witnesses)
        assert is_char_set_wa(a, Suite.of(AB, wits + [EPSILON]))


def test_is_minimal_examples(binary_wa):
    assert is_minimal_wa(binary_wa)
    # direct sum with a zero-output copy duplicates behavior
    two = Wa(
        AB,
        4,
        binary_wa.s0 + binary_wa.s0,
        tuple(
            tuple(tuple(m[i]) + (0, 0) for i in range(2))
            + tuple((0, 0) + tuple(m[i]) for i in range(2))
            for m in binary_wa.mats
        ),
        binary_wa.f + (0, 0),
    )
    assert not is_minimal_wa(two)
    one = Wa(Alphabet(("a",)), 1, (1,), (((2,),),), (1,))
    assert is_minimal_wa(one)


def test_minimize_wa(binary_wa):
    assert minimize_wa(binary_wa).dim == 2
    # unreachable extra state disappears
    padded = Wa(
        AB,
        3,
        binary_wa.s0 + (0,),
        tuple(
            tuple(tuple(m[i]) + (0,) for i in range(2)) + ((0, 0, 1),) for m in binary_wa.mats
        ),
        binary_wa.f + (1,),
    )
    red = minimize_wa(padded)
    assert red.dim == 2
    assert equiv_wa(red, binary_wa).equivalent
    zero = Wa(AB, 2, (1, 0), binary_wa.mats, (0, 0))
    assert minimize_wa(zero).dim == 0


def test_minimize_random_is_canonical():
    rng = random.Random(77)
    for _ in range(40):
        a = random_wa(rng, max_dim=4)
        m = minimize_wa(a)
        assert equiv_wa(a, m).equivalent
        if m.dim:
            assert is_minimal_wa(m)
            assert forward_basis(m).rank == m.dim
        assert minimize_wa(m).dim == m.dim


HALVES = (-2, -1, 0, 0, 1, 2, Fraction(1, 2), Fraction(-3, 4))


def _reducible_wa(seed: int) -> Wa:
    """A random WA of dimension at most 8 over 1-3 letters, often not
    minimal: dense, with an unreachable or an unobservable block, a direct
    sum with a scaled copy, or with s0 or f zero."""
    rng = random.Random(seed)
    syms = rng.randint(1, 3)
    shape = rng.choice(["dense", "unreachable", "unobservable", "scaled", "zero_s0", "zero_f"])
    if shape == "scaled":
        b = random_wa(rng, max_dim=4, syms=syms, entries=HALVES)
        pad = (0,) * b.dim
        mats = tuple(tuple(r + pad for r in m) + tuple(pad + r for r in m) for m in b.mats)
        c = rng.choice(HALVES[4:])
        return Wa(b.alphabet, 2 * b.dim, b.s0 + tuple(c * x for x in b.s0), mats, b.f + b.f)
    a = random_wa(rng, max_dim=8, syms=syms, entries=HALVES)
    n = rng.randint(1, a.dim)  # states below n form the first block
    zero = (0,) * a.dim

    def cut(keep):
        return tuple(
            tuple(tuple(x if keep(i, j) else 0 for j, x in enumerate(r)) for i, r in enumerate(m))
            for m in a.mats
        )

    if shape == "unreachable":  # s0 and the first block never feed the rest
        return Wa(a.alphabet, a.dim, a.s0[:n] + zero[n:], cut(lambda i, j: i < n or j >= n), a.f)
    if shape == "unobservable":  # f reads the first block, which the rest never feeds
        return Wa(a.alphabet, a.dim, a.s0, cut(lambda i, j: i >= n or j < n), a.f[:n] + zero[n:])
    if shape == "zero_s0":
        return Wa(a.alphabet, a.dim, zero, a.mats, a.f)
    if shape == "zero_f":
        return Wa(a.alphabet, a.dim, a.s0, a.mats, zero)
    return a


@given(st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_minimize_wa_matches_fraction_reference(seed):
    a = _reducible_wa(seed)
    assert minimize_wa(a) == reference_minimize_wa(a)


def test_equiv_wa_counterexample(binary_wa, binary_wa_faulty):
    r = equiv_wa(binary_wa, binary_wa_faulty)
    assert not r.equivalent
    assert r.counterexample.render(AB) == "b a a b"
    assert len(r.counterexample) < binary_wa.dim + binary_wa_faulty.dim
    assert brute_force_equiv_wa(binary_wa, binary_wa_faulty, 3).equivalent
    assert equiv_wa(binary_wa, binary_wa).equivalent
    assert equiv_wa(binary_wa, minimize_wa(binary_wa)).equivalent


def test_agree_on_wa_unique_failure(binary_wa, binary_wa_faulty):
    p = Suite.from_names(AB, [[], ["b"]])
    suite = w_suite(p, AB, 1, p)
    verdicts = agree_on(binary_wa, binary_wa_faulty, suite)
    fails = [(v.word.render(AB), v.spec_out, v.impl_out) for v in verdicts if not v.passed]
    assert fails == [("b a a b", 9, 13)]
    assert all(v.passed for v in agree_on(binary_wa, binary_wa, suite))
    eps_only = Suite.of(AB, [EPSILON])
    assert all(v.passed for v in agree_on(binary_wa, binary_wa_faulty, eps_only))


def test_in_fault_domain_examples(binary_wa, binary_wa_faulty):
    p = Suite.from_names(AB, [[], ["b"]])
    assert in_fault_domain_wa(binary_wa_faulty, p, 1)
    assert not in_fault_domain_wa(binary_wa_faulty, p, 0)
    assert in_fault_domain_wa(binary_wa, p, 0)


def test_agreement_extends_to_linear_combinations(binary_wa, binary_wa_faulty):
    # words the machines agree on span a subspace on which the whole
    # series agree: linear combinations of passing words also agree
    rng = random.Random(12)
    p = Suite.from_names(AB, [[], ["b"]])
    suite = w_suite(p, AB, 1, p)
    passing = [v.word for v in agree_on(binary_wa, binary_wa_faulty, suite) if v.passed]
    for _ in range(50):
        sample = rng.sample(passing, 4)
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in sample]
        lhs = sum(c * wa_lang(binary_wa, w) for c, w in zip(coeffs, sample))
        rhs = sum(c * wa_lang(binary_wa_faulty, w) for c, w in zip(coeffs, sample))
        assert lhs == rhs


def test_rank_invariant_under_state_permutation():
    rng = random.Random(13)
    for _ in range(25):
        a = random_wa(rng, max_dim=4)
        perm = list(range(a.dim))
        rng.shuffle(perm)
        mats = tuple(
            tuple(tuple(m[perm[i]][perm[j]] for j in range(a.dim)) for i in range(a.dim))
            for m in a.mats
        )
        b = Wa(
            a.alphabet,
            a.dim,
            tuple(a.s0[perm[i]] for i in range(a.dim)),
            mats,
            tuple(a.f[perm[i]] for i in range(a.dim)),
        )
        assert forward_basis(a).rank == forward_basis(b).rank
        assert backward_basis(a).rank == backward_basis(b).rank


def test_equiv_agrees_with_brute_force_random():
    rng = random.Random(14)
    for _ in range(60):
        a = random_wa(rng, max_dim=3)
        b = random_wa(rng, max_dim=3)
        res = equiv_wa(a, b)
        brute = brute_force_equiv_wa(a, b, a.dim + b.dim - 1)
        assert res.equivalent == brute.equivalent
        if not res.equivalent:
            assert wa_lang(a, res.counterexample) != wa_lang(b, res.counterexample)


def test_equiv_wa_counterexample_is_the_least_word():
    # b is a with one matrix entry changed, so a difference, if any,
    # usually shows only past the empty word
    rng = random.Random(16)
    lengths = set()
    for _ in range(300):
        a = random_wa(rng, max_dim=4, syms=rng.randint(1, 3))
        mats = [[list(row) for row in m] for m in a.mats]
        s, i, j = rng.randrange(len(mats)), rng.randrange(a.dim), rng.randrange(a.dim)
        mats[s][i][j] += rng.choice([-1, 1, Fraction(1, 2)])
        b = Wa(a.alphabet, a.dim, a.s0, tuple(mats), a.f)
        res = equiv_wa(a, b)
        assert res == brute_force_equiv_wa(a, b, a.dim + b.dim - 1)
        if not res.equivalent:
            lengths.add(len(res.counterexample))
    assert {1, 2, 3} <= lengths


def test_wa_validation():
    with pytest.raises(ValueError):
        Wa(AB, 2, (1,), (((1, 0), (0, 1)),) * 2, (0, 1))
    with pytest.raises(ValueError):
        Wa(AB, 2, (1, 0), (((1, 0), (0, 1)),), (0, 1))
    with pytest.raises(ValueError):
        Wa(AB, 2, (1, 0), (((1, 0),), ((1, 0), (0, 1))), (0, 1))


def test_fault_domain_theorem_small():
    # in-domain implementations passing the suite are equivalent
    rng = random.Random(15)
    exercised = 0
    for _ in range(40):
        spec = random_minimal_wa(rng, max_dim=3)
        p = Suite(spec.alphabet, forward_basis(spec).witnesses)
        w = Suite(spec.alphabet, backward_basis(spec).witnesses)
        k = rng.choice([0, 1])
        suite = w_suite(p, spec.alphabet, k, w)
        impl = random_wa(rng, max_dim=3, syms=len(spec.alphabet))
        if not in_fault_domain_wa(impl, p, k):
            continue
        if all(v.passed for v in agree_on(spec, impl, suite)):
            exercised += 1
            assert equiv_wa(spec, impl).equivalent
    # random impls rarely pass; guarantee a hit with the spec itself
    spec = random_minimal_wa(rng, max_dim=3)
    p = Suite(spec.alphabet, forward_basis(spec).witnesses)
    w = Suite(spec.alphabet, backward_basis(spec).witnesses)
    assert all(v.passed for v in agree_on(spec, spec, w_suite(p, spec.alphabet, 0, w)))
    assert equiv_wa(spec, spec).equivalent


def test_is_state_cover_stops_at_full_rank(monkeypatch):
    # the fault-domain filter of this experiment asks is_state_cover_wa 107
    # times; stepping every word of each P.Sigma^{<=k} takes 535 words
    words, calls = [0], [0]
    real_execute, real_cover = weighted_module.execute, weighted_module.is_state_cover_wa

    def execute(plan, init, step):
        for state in real_execute(plan, init, step):
            words[0] += 1
            yield state

    def is_state_cover_wa(a, p):
        calls[0] += 1
        monkeypatch.setattr(weighted_module, "execute", execute)
        try:
            return real_cover(a, p)
        finally:
            monkeypatch.setattr(weighted_module, "execute", real_execute)

    monkeypatch.setattr(weighted_module, "is_state_cover_wa", is_state_cover_wa)
    completeness_experiment(load("binary_value.wa"), 1, MutationSpec(1, 100, 7))
    assert calls[0] == 107
    assert 0 < words[0] < 535


def test_is_state_cover_matches_full_rank_reference():
    rng = random.Random(41)
    verdicts = set()
    for _ in range(300):
        a = random_wa(rng, max_dim=4, syms=rng.choice([1, 2]))
        pool = list(words_upto(a.alphabet, 3))
        p = Suite(a.alphabet, tuple(rng.sample(pool, rng.randint(0, min(6, len(pool))))))
        if rng.random() < 0.7:
            p = Suite(a.alphabet, (*p, EPSILON))
        # every word of p stepped, the rank taken over Fractions
        spans = fraction_rank([fraction_state(a, w) for w in p]) == a.dim
        expected = p.contains_epsilon() and spans
        assert is_state_cover_wa(a, p) == expected
        verdicts.add((p.contains_epsilon(), spans))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}
