"""The prefix-sharing suite executor and the integer weighted-automaton
kernel, checked against per-word runs, Fraction arithmetic and the
benchmark's independent model of every family."""

import random
import time
from fractions import Fraction
from math import lcm
from operator import attrgetter

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
    twin,
)
from test_nominal import KEEPS_LAST, pattern_suites_st, rnas_st
from wmethod import (
    Alphabet,
    Fsm,
    OrbitSuite,
    Suite,
    SymbolicWord,
    Wa,
    Word,
    agree_on,
    backward_basis,
    forward_basis,
    lambda_star,
    lang_value,
    patterns_upto,
    prefix_close,
    run,
    wa_lang,
    words_upto,
)
from wmethod.family import family_of, values
from wmethod.formats import parse_machine, parse_suite, serialize_machine, serialize_suite
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
    verdicts = agree_on(spec, impl, t)
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
    verdicts = agree_on(spec, impl, t)
    assert [v.word for v in verdicts] == list(t)
    assert [(v.spec_out, v.impl_out) for v in verdicts] == [
        (lang_value(spec, s), lang_value(impl, s)) for s in t
    ]


# ------------------------------------ every family against the benchmark's model


@st.composite
def fsms_st(draw, kind):
    """A complete machine of 1 to 4 states over {a, b}."""
    n = draw(st.integers(1, 4))
    delta = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 2), min_size=n, max_size=n))
    output = {
        "dfa": st.integers(0, 1),
        "moore": st.sampled_from("xyz"),
        "mealy": st.tuples(*[st.sampled_from("xy")] * 2),
    }[kind]
    outputs = draw(st.lists(output, min_size=n, max_size=n))
    return Fsm(kind, AB, n, draw(st.integers(0, n - 1)), delta, outputs)


@st.composite
def was_st(draw):
    """A weighted automaton of dimension 1 to 3 over {a, b}, its weights
    halves from -2 to 2."""
    dim = draw(st.integers(1, 3))
    halves = st.sampled_from([Fraction(n, 2) for n in range(-4, 5)])
    vec = st.lists(halves, min_size=dim, max_size=dim)
    mats = draw(st.lists(st.lists(vec, min_size=dim, max_size=dim), min_size=2, max_size=2))
    return Wa(AB, dim, draw(vec), mats, draw(vec))


@st.composite
def word_suites_st(draw):
    """words_upto(k) over {a, b}, maybe a random subset, maybe read back
    from its file with the lines in either order, so the plan is the reader's."""
    t = words_upto(AB, draw(st.integers(0, 4)))
    if draw(st.booleans()):
        t = Suite(AB, tuple(w for w in t if draw(st.booleans())))
    if draw(st.booleans()):
        lines = serialize_suite(t).splitlines(keepends=True)
        t = parse_suite("".join(lines[:: draw(st.sampled_from([1, -1]))]), AB)
    return t


MACHINES = {
    "dfa": fsms_st("dfa"),
    "moore": fsms_st("moore"),
    "mealy": fsms_st("mealy"),
    "wa": was_st(),
    "rna": rnas_st(),
    "rna-keeps-last": st.just(KEEPS_LAST),
}


@pytest.mark.parametrize("kind", MACHINES)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_execution_matches_the_benchmark_reference(kind, data):
    spec, impl = data.draw(MACHINES[kind]), data.draw(MACHINES[kind])
    if data.draw(st.booleans()):  # as the parser makes it: a wa in its integer form
        spec = parse_machine(serialize_machine(spec))
    words = spec.alphabet is not None
    t = data.draw(word_suites_st() if words else pattern_suites_st())
    seq = attrgetter("syms" if words else "pattern")
    text = family_of(spec).value_text()  # as `run` prints a value, and the model too
    for m in (spec, impl):
        ref = twin(m)
        for s in (t, words_upto(AB, 4) if words else patterns_upto(5)):
            assert list(map(text, values(m, s))) == [ref.value_str(seq(w)) for w in s]
        assert [text(lang_value(m, w)) for w in t] == [ref.value_str(seq(w)) for w in t]
    verdicts = agree_on(spec, impl, t)
    assert [v.word for v in verdicts] == list(t)
    assert [(text(v.spec_out), text(v.impl_out)) for v in verdicts] == [
        (twin(spec).value_str(seq(w)), twin(impl).value_str(seq(w))) for w in t
    ]


WORD_MACHINES = {
    "dfa": "coffee",
    "moore": "coffee_moore",
    "mealy": "coffee_mealy",
    "wa": "binary_wa",
}


@pytest.mark.parametrize("kind", WORD_MACHINES)
@pytest.mark.parametrize("index", ["-1", "size"])
def test_word_runs_reject_a_symbol_outside_the_alphabet(request, kind, index):
    m = request.getfixturevalue(WORD_MACHINES[kind])
    s = -1 if index == "-1" else len(m.alphabet)
    # lang_value and wa_lang are one function; Suite.of checks the word as a suite
    runs = [lang_value, wa_lang, lambda m, w: Suite.of(m.alphabet, [w])]
    if kind != "wa":
        runs.append(run)
    if kind == "mealy":
        runs.append(lambda_star)
    message = f"^symbol index {s} out of range for alphabet of size {len(m.alphabet)}$"
    for word_run in runs:
        with pytest.raises(ValueError, match=message):
            word_run(m, Word((0, s)))


def test_agree_on_takes_each_family_and_rejects_two(coffee, binary_wa, same_twice):
    ws = words_upto(binary_wa.alphabet, 2)
    assert all(v.passed for v in agree_on(binary_wa, binary_wa, ws))
    with pytest.raises(ValueError, match="^machine kinds differ: dfa vs wa$"):
        agree_on(coffee, binary_wa, words_upto(coffee.alphabet, 1))
    with pytest.raises(ValueError, match="^machine kinds differ: wa vs rna$"):
        agree_on(binary_wa, same_twice, ws)
    with pytest.raises(ValueError, match="^machine kinds differ: rna vs dfa$"):
        agree_on(same_twice, coffee, patterns_upto(1))


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


@pytest.mark.parametrize("name", ["coffee", "binary_wa", "same_twice"])
def test_suite_alphabet_must_match_machines(request, name):
    m = request.getfixturevalue(name)
    bigger = Alphabet((*(m.alphabet or ()), "z"))  # an rna runs on atoms: it takes no word suite
    with pytest.raises(ValueError, match="suite alphabet"):
        agree_on(m, m, Suite.of(bigger, [Word((len(bigger) - 1,))]))
