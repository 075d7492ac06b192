import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_concat_suites, reference_prefix_close
from wmethod import (
    EPSILON,
    Alphabet,
    OrbitSuite,
    Suite,
    SymbolicWord,
    Verdict,
    Word,
    concat_suites,
    patterns_upto,
    prefix_close,
    w_suite,
    words_upto,
)
from wmethod.formats import ParseError, parse_patterns, parse_suite, serialize_suite
from wmethod.words import prefix_plan

AB2 = Alphabet(("a", "b"))
AB3 = Alphabet(("c", "e", "1"))


def brute_words_upto(alphabet, k):
    """Independent enumeration via itertools.product."""
    out = []
    for n in range(k + 1):
        out.extend(Word(p) for p in itertools.product(range(len(alphabet)), repeat=n))
    return out


def test_words_upto_zero():
    assert list(words_upto(AB3, 0)) == [EPSILON]


def test_words_upto_two_symbols():
    got = [w.render(AB2) for w in words_upto(AB2, 2)]
    assert got == ["-eps-", "a", "b", "a a", "a b", "b a", "b b"]
    assert len(words_upto(AB2, 2)) == 7


def test_words_upto_three_symbols_len1():
    assert len(words_upto(AB3, 1)) == 4


@pytest.mark.parametrize("k", range(5))
def test_words_upto_matches_brute_force(k):
    assert list(words_upto(AB2, k)) == sorted(
        brute_words_upto(AB2, k), key=lambda w: (len(w.syms), w.syms)
    )


def test_words_upto_count_formula():
    for syms, k in [(2, 4), (3, 3)]:
        ab = Alphabet(tuple("xyz"[:syms]))
        assert len(words_upto(ab, k)) == (syms ** (k + 1) - 1) // (syms - 1)


def test_concat_epsilon_unit():
    t = words_upto(AB2, 2)
    unit = Suite.of(AB2, [EPSILON])
    assert concat_suites(unit, t) == t
    assert concat_suites(t, unit) == t


def test_concat_dedup():
    eb = Suite.from_names(AB2, [[], ["b"]])
    got = concat_suites(eb, eb)
    assert [w.render(AB2) for w in got] == ["-eps-", "b", "b b"]


def test_concat_example_dedup_bound():
    p = Suite.from_names(AB3, [[], ["c"], ["1"], ["1", "1"]])
    w = Suite.from_names(AB3, [[], ["c"], ["1"]])
    got = concat_suites(p, w)
    assert len(got) <= 12
    rendered = {x.render(AB3) for x in got}
    assert "1 1 c" in rendered and "1 1 1" in rendered


def test_concat_alphabet_mismatch():
    with pytest.raises(ValueError):
        concat_suites(words_upto(AB2, 1), words_upto(AB3, 1))


def test_w_suite_matches_definition():
    p = Suite.from_names(AB3, [[], ["c"], ["1"], ["1", "1"]])
    w = Suite.from_names(AB3, [[], ["c"], ["1"]])
    got = w_suite(p, AB3, 0, w)
    assert got == concat_suites(concat_suites(p, words_upto(AB3, 1)), w)
    rendered = {x.render(AB3) for x in got}
    assert "1 1 c 1" in rendered and "1 1 e c" in rendered


def test_w_suite_unit():
    unit = Suite.of(AB3, [EPSILON])
    assert w_suite(unit, AB3, 0, unit) == words_upto(AB3, 1)


def test_w_suite_contains_baab():
    p = Suite.from_names(AB2, [[], ["b"]])
    got = w_suite(p, AB2, 1, p)
    assert "b a a b" in {x.render(AB2) for x in got}


def test_w_suite_requires_epsilon():
    no_eps = Suite.from_names(AB2, [["a"]])
    with_eps = Suite.of(AB2, [EPSILON])
    with pytest.raises(ValueError):
        w_suite(no_eps, AB2, 0, with_eps)
    with pytest.raises(ValueError):
        w_suite(with_eps, AB2, 0, no_eps)
    with pytest.raises(ValueError):
        w_suite(Suite(AB2), AB2, 0, with_eps)


def test_prefix_close_examples():
    assert prefix_close(Suite.of(AB2, [EPSILON])) == Suite.of(AB2, [EPSILON])
    got = prefix_close(Suite.from_names(AB2, [["a", "b"]]))
    assert [w.render(AB2) for w in got] == ["-eps-", "a", "a b"]
    got = prefix_close(Suite.from_names(AB3, [["1", "1", "c", "1"]]))
    assert [w.render(AB3) for w in got] == ["-eps-", "1", "1 1", "1 1 c", "1 1 c 1"]


@pytest.mark.parametrize("name", ["-eps-", "#e", "e\x1b[2J", "e\tf", "a b", ""])
def test_alphabet_rejects_names_a_suite_file_cannot_hold(name):
    with pytest.raises(ValueError, match="cannot be written in a suite file"):
        Alphabet(("c", name))


def test_suite_canonical_order_and_dedup():
    s = Suite.of(AB2, [Word((1,)), Word((0,)), Word((1,)), EPSILON, Word((0, 1))])
    assert [w.syms for w in s] == [(), (0,), (1,), (0, 1)]


def test_suite_rejects_out_of_range_symbols():
    with pytest.raises(ValueError, match="symbol index 5 out of range for alphabet of size 2"):
        Suite.of(AB2, [Word((5,))])
    # the first bad index in the given order is named
    with pytest.raises(ValueError, match="symbol index -1 out of range"):
        Suite.of(AB2, [Word((1, 0)), Word((0, -1)), Word((7,))])


def test_suite_keeps_texts_only_in_canonical_order():
    words = (EPSILON, Word((0,)), Word((1, 0)))
    plan = ((-1, ()), (-1, (0,)), (-1, (1, 0)))
    kept = Suite(AB2, words, ("given eps", "given a", "given b a"), plan)
    assert list(kept.lines()) == ["given eps", "given a", "given b a"]
    assert kept.plan is plan
    assert kept == Suite(AB2, words)
    resorted = Suite(AB2, words[::-1], ("given b a", "given a", "given eps"), plan[::-1])
    assert resorted.texts is None and resorted.planned is None
    assert list(resorted.lines()) == ["-eps-", "a", "b a"]
    assert resorted.plan == prefix_plan([w.syms for w in words])


def test_verdict_consistency():
    assert not Verdict(EPSILON, 1, 0).passed
    v = Verdict(EPSILON, 1, 1)
    assert v.passed


words_st = st.lists(st.integers(0, 1), max_size=4).map(lambda s: Word(tuple(s)))
suites_st = st.lists(words_st, max_size=5).map(lambda ws: Suite.of(AB2, ws))


@given(st.lists(words_st, max_size=8))
@settings(max_examples=80)
def test_suite_order_matches_sorted_reference(words):
    expected = sorted(set(words), key=lambda w: (len(w.syms), w.syms))
    assert list(Suite.of(AB2, words)) == expected
    assert list(Suite.of(AB2, expected)) == expected


@given(suites_st, suites_st, suites_st)
@settings(max_examples=60)
def test_concat_associative(a, b, c):
    assert concat_suites(concat_suites(a, b), c) == concat_suites(a, concat_suites(b, c))


@given(suites_st)
@settings(max_examples=60)
def test_prefix_close_idempotent_and_monotone(t):
    closed = prefix_close(t)
    assert prefix_close(closed) == closed
    assert set(t) <= set(closed)


@given(suites_st, suites_st)
@settings(max_examples=60)
def test_prefix_close_monotone_in_argument(a, b):
    both = Suite.of(AB2, list(a) + list(b))
    assert set(prefix_close(a)) <= set(prefix_close(both))


@given(suites_st, suites_st, st.integers(0, 2))
@settings(max_examples=60)
def test_w_suite_contains_pw(p, w, k):
    p = Suite.of(AB2, list(p) + [EPSILON])
    w = Suite.of(AB2, list(w) + [EPSILON])
    assert set(concat_suites(p, w)) <= set(w_suite(p, AB2, k, w))


# Symbol names of different lengths, so that a line cut or joined at the
# wrong place shows.
NAMES = ("a", "bb", "c1", "10", "xyz")


@st.composite
def factor_suites(draw, ab):
    """A suite over ab, with or without the empty word, that carries its
    lines (a canonical file, a concatenation) or does not (built from
    words, a shuffled file)."""
    letters = st.lists(st.integers(0, len(ab) - 1), max_size=3).map(tuple)
    words = draw(st.lists(letters, max_size=5)) + draw(st.sampled_from([[], [()]]))
    plain = Suite.of(ab, words)
    form = draw(st.sampled_from(["words", "canonical file", "shuffled file", "joined"]))
    if form == "words":
        return plain
    if form == "joined":
        return concat_suites(plain, Suite.of(ab, [EPSILON]))
    lines = [" " + line.replace(" ", "   ") for line in plain.lines()]
    if form == "shuffled file":
        lines = draw(st.permutations(lines))
    return parse_suite("".join(line + "\n" for line in lines), ab)


@st.composite
def factor_pairs(draw):
    ab = Alphabet(tuple(draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))))
    a = draw(factor_suites(ab))
    # words of a in b make products that overlap
    b = draw(factor_suites(ab))
    if draw(st.booleans()):
        b = Suite.of(ab, list(b) + list(a)[:2])
    return ab, a, b


@given(factor_pairs())
@settings(max_examples=150)
def test_carried_lines_match_the_reference_assembly(pair):
    ab, a, b = pair
    for got, ref in [
        (concat_suites(a, b), reference_concat_suites(a, b)),
        (prefix_close(a), reference_prefix_close(a)),
        (prefix_close(b), reference_prefix_close(b)),
    ]:
        assert got.words == ref.words
        assert got.texts is not None
        assert list(got.lines()) == [w.render(ab) for w in got]
        assert serialize_suite(got) == serialize_suite(ref)


# Names where one is a string prefix of another, so that a line which is a
# string prefix of another line but not a token prefix ("a 1" of "a 10",
# "a" of "ab a") shows.
PREFIX_NAMES = ("a", "ab", "a1", "1", "10")


@st.composite
def prefix_named_pairs(draw):
    names = draw(st.permutations(PREFIX_NAMES))
    ab = Alphabet(tuple(names[: draw(st.integers(1, len(names)))]))
    a = draw(factor_suites(ab))
    b = draw(factor_suites(ab))
    if draw(st.booleans()):
        b = Suite.of(ab, list(b) + list(a)[:2])
    return ab, a, b


@given(prefix_named_pairs())
@settings(max_examples=150)
def test_line_keyed_assembly_and_line_plan_match_the_reference(pair):
    ab, a, b = pair
    prod = concat_suites(a, b)
    for got, ref in [
        (prod, reference_concat_suites(a, b)),
        (concat_suites(prod, a), reference_concat_suites(reference_concat_suites(a, b), a)),
        (prefix_close(a), reference_prefix_close(a)),
        (prefix_close(prod), reference_prefix_close(reference_concat_suites(a, b))),
    ]:
        assert got.words == ref.words
        assert list(got.lines()) == list(ref.lines())
        # planned on its lines, not given a plan
        assert got.texts is not None and got.planned is None
        assert got.plan == prefix_plan([w.syms for w in got])


def test_suite_checks_reject_a_bad_symbol_on_every_path():
    with pytest.raises(ValueError, match="symbol index 2 out of range"):
        Suite(AB2, (EPSILON, Word((0, 2))))
    with pytest.raises(ValueError, match="symbol index -1 out of range"):
        Suite.of(AB2, [(0,), (1, -1)])
    with pytest.raises(ValueError, match="symbol 'c' not in alphabet"):
        Suite.from_names(AB2, [["a"], ["b", "c"]])
    with pytest.raises(ParseError, match="symbol 'c' not in alphabet") as err:
        parse_suite("-eps-\na\nb c\n", AB2)
    assert err.value.line == 3
    a, b = Suite.of(AB2, [EPSILON, (0,)]), Suite.of(AB3, [EPSILON, (2,)])
    with pytest.raises(ValueError, match="different alphabets"):
        concat_suites(a, b)
    with pytest.raises(ValueError, match="different alphabets"):
        w_suite(a, AB3, 0, b)


@pytest.mark.parametrize("ab", [AB2, AB3])
def test_product_words_are_the_constructors_words(ab):
    p = Suite.of(ab, [EPSILON, (0,), (1, 0)])
    w = Suite.of(ab, [EPSILON, (1,), (0, 1)])
    for t in (concat_suites(p, w), w_suite(p, ab, 1, w), prefix_close(w_suite(p, ab, 1, w))):
        assert t.words == Suite(ab, t.words).words
        assert t.words == Suite(ab, t.words[::-1]).words
        assert all(type(x.syms) is tuple for x in t)


def test_word_suite_assembly_rejects_orbit_suites():
    orbits = patterns_upto(1)
    with pytest.raises(ValueError, match="word suites only"):
        concat_suites(orbits, orbits)
    with pytest.raises(ValueError, match="word suites only"):
        prefix_close(orbits)


# Suites read from a file, and the products and prefix closures of suites,
# are made without the constructor's checks (`Suite._made`). Each must be
# the checking constructor's suite of the same items.


@st.composite
def suite_files(draw, lines):
    """(text, lines in file order) of a file holding the canonical `lines`:
    as they are, or shuffled, with duplicate lines, oddly spaced and with
    comments and blank lines."""
    if lines and draw(st.booleans()):
        lines = lines + draw(st.lists(st.sampled_from(lines), min_size=1, max_size=3))
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    odd = draw(st.booleans())
    gaps = st.sampled_from([" ", "  ", "\t", " \t "] if odd else [" "])
    pads = st.sampled_from(["", " ", "\t"] if odd else [""])
    notes = st.sampled_from([[], ["# a 1"], [""], ["#"]] if draw(st.booleans()) else [[]])
    out = []
    for line in lines:
        out += draw(notes)
        out.append(draw(pads) + line.replace(" ", draw(gaps)) + draw(pads))
    return "".join(line + "\n" for line in out), list(lines)


def _is_checked(got: Suite, ref: Suite) -> None:
    assert got.words == ref.words
    assert list(got.lines()) == list(ref.lines())
    assert got.plan == prefix_plan(list(map(ref._seq, ref.words)))


def _read_as_checked(got: Suite, ref: Suite, items: tuple, lines: list) -> None:
    """got, read from a file of `items` on `lines`, against ref, the
    checking constructor's suite of them: it keeps its lines exactly when
    the file was canonical."""
    _is_checked(got, ref)
    if ref.words == items:
        assert got.texts == tuple(lines)
    else:
        assert got.texts is None and got.planned is None


@given(st.data())
@settings(max_examples=200)
def test_unchecked_suites_are_the_checking_constructors(data):
    names = data.draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    ab = Alphabet(tuple(names))
    letters = st.lists(st.integers(0, len(ab) - 1), max_size=3).map(tuple)
    read = []
    for _ in range(2):
        words = data.draw(st.lists(letters, max_size=5)) + data.draw(st.sampled_from([[], [()]]))
        text, lines = data.draw(suite_files(list(Suite.of(ab, words).lines())))
        items = tuple(EPSILON if line == "-eps-" else ab.word(*line.split()) for line in lines)
        got = parse_suite(text, ab)
        _read_as_checked(got, Suite(ab, items), items, lines)
        read.append(got)
    a, b = read
    _is_checked(concat_suites(a, b), Suite(ab, tuple(u + v for u in a for v in b)))
    _is_checked(concat_suites(b, a), Suite(ab, tuple(v + u for v in b for u in a)))
    prefixes = tuple(Word(w.syms[:n]) for w in a for n in range(len(w) + 1))
    _is_checked(prefix_close(a), Suite(ab, prefixes))

    pats = data.draw(st.lists(st.sampled_from(patterns_upto(3).patterns), max_size=6))
    text, lines = data.draw(suite_files(list(OrbitSuite(pats).lines())))
    items = tuple(
        SymbolicWord(() if line == "-eps-" else tuple(map(int, line.split()))) for line in lines
    )
    _read_as_checked(parse_patterns(text), OrbitSuite(items), items, lines)
