"""The prefix-sharing suite executor and the integer weighted-automaton
kernel, checked against per-word runs and Fraction arithmetic."""

import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fraction_rank,
    fraction_row,
    fraction_state,
    fraction_value,
    random_fsm,
    random_rna,
    random_wa,
)
from wmethod import (
    Alphabet,
    OrbitSuite,
    Suite,
    SymbolicWord,
    Word,
    agree_on,
    agree_on_rna,
    agree_on_wa,
    backward_basis,
    forward_basis,
    lang_value,
    prefix_close,
    symbolic_run,
    wa_lang,
    words_upto,
)
from wmethod.weighted import _Echelon
from wmethod.words import execute

AB = Alphabet(("a", "b"))
seeds = st.integers(0, 2**32 - 1)


def random_words(rng: random.Random, syms: int, with_eps: bool) -> list[tuple[int, ...]]:
    """Words of length 1-7; such a suite is rarely prefix-closed."""
    words = [
        tuple(rng.randrange(syms) for _ in range(rng.randint(1, 7)))
        for _ in range(rng.randint(0, 25))
    ]
    return words + [()] if with_eps else words


def counting_step():
    calls = [0]

    def step(state, a):
        calls[0] += 1
        return state + (a,)

    return calls, step


# ------------------------------------------------- verdicts against per-word runs


@given(seeds, st.booleans(), st.sampled_from(["dfa", "moore", "mealy"]))
@settings(max_examples=60, deadline=None)
def test_agree_on_matches_lang_value(seed, with_eps, kind):
    rng = random.Random(seed)
    spec = random_fsm(rng, kind=kind, syms=2)
    impl = random_fsm(rng, kind=kind, syms=2)
    t = Suite.of(spec.alphabet, random_words(rng, 2, with_eps))
    verdicts = agree_on(spec, impl, t)
    assert [v.word for v in verdicts] == list(t)
    assert [(v.spec_out, v.impl_out) for v in verdicts] == [
        (lang_value(spec, w), lang_value(impl, w)) for w in t
    ]


@given(seeds, st.booleans())
@settings(max_examples=60, deadline=None)
def test_agree_on_wa_matches_wa_lang(seed, with_eps):
    rng = random.Random(seed)
    spec, impl = random_wa(rng), random_wa(rng)
    t = Suite.of(spec.alphabet, random_words(rng, 2, with_eps))
    verdicts = agree_on_wa(spec, impl, t)
    assert [v.word for v in verdicts] == list(t)
    for v in verdicts:
        assert v.spec_out == wa_lang(spec, v.word) == fraction_value(spec, v.word)
        assert v.impl_out == wa_lang(impl, v.word) == fraction_value(impl, v.word)


@given(seeds, st.booleans())
@settings(max_examples=60, deadline=None)
def test_agree_on_rna_matches_symbolic_run(seed, with_eps):
    rng = random.Random(seed)
    spec = random_rna(rng, max_locs=4, max_arity=2)
    impl = random_rna(rng, max_locs=4, max_arity=2)
    atoms = random_words(rng, 3, with_eps)
    t = OrbitSuite(tuple(SymbolicWord.from_atoms(w) for w in atoms))
    verdicts = agree_on_rna(spec, impl, t)
    assert [v.word for v in verdicts] == list(t)
    assert [(v.spec_out, v.impl_out) for v in verdicts] == [
        (symbolic_run(spec, s)[1], symbolic_run(impl, s)[1]) for s in t
    ]


# ------------------------------------------------------ the integer WA kernel


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_echelon_rank_matches_fraction_elimination(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    vectors: list[tuple[Fraction, ...]] = []
    ech = _Echelon()
    for _ in range(rng.randint(0, 8)):
        if vectors and rng.random() < 0.4:  # a combination of earlier vectors
            u, w = rng.choice(vectors), rng.choice(vectors)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            v = tuple(x + c * y for x, y in zip(u, w))
        else:
            v = tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(n))
        d = lcm(*(x.denominator for x in v))
        before = fraction_rank(vectors)
        vectors.append(v)
        assert ech.add([int(x * d) for x in v]) == (fraction_rank(vectors) > before)
    assert ech.rank == fraction_rank(vectors)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_basis_vectors_are_exact(seed):
    a = random_wa(random.Random(seed))
    fb, bb = forward_basis(a), backward_basis(a)
    assert all(v == fraction_state(a, w) for v, w in zip(fb.vectors, fb.witnesses))
    assert all(r == fraction_row(a, w) for r, w in zip(bb.vectors, bb.witnesses))
    ball = words_upto(a.alphabet, a.dim)
    assert fb.rank == fraction_rank([fraction_state(a, w) for w in ball])
    assert bb.rank == fraction_rank([fraction_row(a, w) for w in ball])


# ------------------------------------------------------------ executor work


@given(seeds, st.booleans())
@settings(max_examples=60, deadline=None)
def test_execute_steps_each_suite_prefix_once(seed, with_eps):
    rng = random.Random(seed)
    t = Suite.of(AB, random_words(rng, 2, with_eps))
    index = {w.syms: i for i, w in enumerate(t)}
    for (anchor, tail), w in zip(t.plan, t):  # the longest proper prefix in the suite
        syms = w.syms
        start = len(syms) - len(tail)
        assert syms[start:] == tail
        longest = max((n for n in range(len(syms)) if syms[:n] in index), default=0)
        assert start == longest
        assert anchor == (index[syms[:start]] if start else -1)
    calls, step = counting_step()
    assert list(execute(t.plan, (), step)) == [w.syms for w in t]
    assert calls[0] <= sum(len(w) for w in t)
    closed = prefix_close(t)
    calls, step = counting_step()
    assert list(execute(closed.plan, (), step)) == [w.syms for w in closed]
    assert calls[0] == sum(1 for w in closed if w.syms)


def test_execute_long_word_is_linear():
    rng = random.Random(5)
    word = Word(tuple(rng.randrange(2) for _ in range(10**5)))
    t0 = time.perf_counter()
    calls = [0]

    def step(state, a):
        calls[0] += 1
        return state + 1

    assert list(execute(Suite(AB, (word,)).plan, 0, step)) == [10**5]
    assert calls[0] == 10**5
    assert time.perf_counter() - t0 < 1.0


def test_plan_of_words_without_suite_prefixes_is_not_quadratic():
    # a^i b for i < 1500: 1.1 M symbols, no word is a prefix of another,
    # and the words share ever longer prefixes a^j
    t = Suite(AB, tuple(Word((0,) * i + (1,)) for i in range(1500)))
    t0 = time.perf_counter()
    plan = t.plan
    assert time.perf_counter() - t0 < 1.0
    assert all(anchor == -1 and tail == w.syms for (anchor, tail), w in zip(plan, t))


@pytest.mark.parametrize("agree", [agree_on, agree_on_wa])
def test_suite_alphabet_must_match_machines(agree, coffee, binary_wa):
    m = coffee if agree is agree_on else binary_wa
    bigger = Alphabet(m.alphabet.symbols + ("z",))
    with pytest.raises(ValueError, match="suite alphabet"):
        agree(m, m, Suite.of(bigger, [Word((len(m.alphabet),))]))
