import io
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FIXTURES,
    load,
    plain_numeral,
    random_fsm,
    random_rna,
    random_wa,
    reference_parse_patterns,
    reference_parse_suite,
    reference_parse_wa,
)
from wmethod import (
    Alphabet,
    EPS_PATTERN,
    OrbitSuite,
    ParseError,
    Suite,
    SymbolicWord,
    Word,
    parse_machine,
    parse_patterns,
    parse_suite,
    patterns_upto,
    serialize_machine,
    serialize_suite,
)
from wmethod.cli import main
from wmethod.words import prefix_plan

GOOD_FIXTURES = [
    "coffee.aut",
    "coffee_i1.aut",
    "coffee_i2.aut",
    "coffee_moore.aut",
    "coffee_mealy.aut",
    "coffee_boundary.aut",
    "binary_value.wa",
    "binary_value_faulty.wa",
    "binary_value_boundary.wa",
    "same_twice.rna",
    "same_twice_boundary.rna",
]

BAD_FIXTURES = sorted(p.name for p in (FIXTURES / "bad").iterdir())


def test_parse_coffee(coffee):
    assert coffee.kind == "dfa"
    assert coffee.n_states == 4
    assert coffee.alphabet.symbols == ("c", "e", "1")
    assert coffee.output == (1, 1, 1, 0)


def test_parse_wa_matrix_orientation(binary_wa):
    # `trans 0 b 1 1` lands at row 1 (target), column 0 (source)
    b = binary_wa.alphabet.index("b")
    assert binary_wa.mats[b][1][0] == 1
    assert binary_wa.dim == 2


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_round_trip_fixtures(name):
    m = load(name)
    assert parse_machine(serialize_machine(m)) == m


def test_round_trip_random_machines():
    rng = random.Random(55)
    for _ in range(20):
        for kind in ("dfa", "moore", "mealy"):
            m = random_fsm(rng, kind=kind)
            assert parse_machine(serialize_machine(m)) == m
        wa = random_wa(rng)
        assert parse_machine(serialize_machine(wa)) == wa
        rna = random_rna(rng, max_locs=4, max_arity=2)
        assert parse_machine(serialize_machine(rna)) == rna


def _assert_read_as_constructed(text: str) -> None:
    """The parser's integer form and weights of a wa file equal those of
    the public constructor on the file's Fraction entries."""
    ref = reference_parse_wa(text)
    z, r = parse_machine(text)._ints, ref._ints
    for part in ("s0", "d0", "rows", "dm", "f", "df"):
        assert getattr(z, part) == getattr(r, part), part
    m = parse_machine(text)
    for part in ("s0", "mats", "f"):
        assert getattr(m, part) == getattr(ref, part), part
    weights = [*m.s0, *m.f, *(x for mat in m.mats for row in mat for x in row)]
    assert {type(x) for x in weights} == {Fraction}
    assert m == ref and hash(m) == hash(ref)
    out = serialize_machine(m)
    assert out == serialize_machine(ref)
    again = parse_machine(out)
    assert again == m and serialize_machine(again) == out


@pytest.mark.parametrize("name", [n for n in GOOD_FIXTURES if n.endswith(".wa")])
def test_wa_fixtures_read_as_constructed(name):
    _assert_read_as_constructed((FIXTURES / name).read_text())


# weights as a file may write them: unreduced, signed, zero, padded
WEIGHTS = st.one_of(
    st.sampled_from(["2/4", "-6/4", "+3", "-0", "0/7", "007/014", "-12/8"]),
    st.builds(
        lambda sign, p, q: f"{sign}{p}" + ("" if q is None else f"/{q}"),
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 12),
        st.none() | st.integers(1, 9),
    ),
)


@st.composite
def wa_files(draw):
    dim = draw(st.integers(1, 4))
    syms = draw(st.sampled_from([("a",), ("a", "b"), ("x", "y", "z")]))
    q = st.integers(0, dim - 1)
    init = draw(st.dictionaries(q, WEIGHTS))
    final = draw(st.dictionaries(q, WEIGHTS))
    trans = draw(st.dictionaries(st.tuples(q, st.sampled_from(syms), q), WEIGHTS, max_size=12))
    lines = [f"dim {dim}"]
    lines += [f"init {i} {w}" for i, w in init.items()]
    lines += [f"final {i} {w}" for i, w in final.items()]
    lines += [f"trans {s} {a} {t} {w}" for (s, a, t), w in trans.items()]
    lines = draw(st.permutations(lines))
    return "\n".join(["kind wa", "alphabet " + " ".join(syms), *lines]) + "\n"


@given(wa_files())
@settings(max_examples=200)
def test_wa_files_read_as_constructed(text):
    _assert_read_as_constructed(text)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("kind wa\nalphabet a\ndim 1_1\n", 3, "dim: expected an integer, got '1_1'"),
        (
            "kind wa\nalphabet a\ndim 1\ninit 0 \u0663/\u0664\n",
            4,
            "bad rational '\u0663/\u0664' (use p or p/q, sign on p only)",
        ),
        ("kind dfa\nalphabet a\nstates \uff12\n", 3, "states: expected an integer, got '\uff12'"),
        ("kind dfa\nalphabet a\ntrans 0 a 0_0\n", 3, "trans target: expected an integer, got '0_0'"),
        ("kind rna\nloc q0 \u0660\n", 2, "arity: expected an integer, got '\u0660'"),
    ],
    ids=["underscore", "arabic-indic-weight", "fullwidth", "underscore-target", "arity"],
)
def test_machine_numerals_are_ascii_digits(text, line, message):
    # int() and Fraction() read each of these tokens as a number
    with pytest.raises(ParseError) as err:
        parse_machine(text, "m")
    assert (err.value.line, err.value.message) == (line, message)


def test_machine_numerals_keep_their_signs():
    m = parse_machine("kind dfa\nalphabet a\nstates +1\ninitial -0\ntrans +0 a 0\n")
    assert (m.n_states, m.initial, m.delta) == (1, 0, ((0,),))


@pytest.mark.parametrize("name", BAD_FIXTURES)
def test_bad_fixtures_rejected(name):
    path = FIXTURES / "bad" / name
    with pytest.raises(ParseError) as err:
        parse_machine(path.read_text(), str(path))
    assert err.value.line >= 1
    assert err.value.file == str(path)
    assert err.value.message


def test_repeated_alphabet_reports_second_line():
    path = FIXTURES / "bad" / "wa_dup_alphabet.wa"
    with pytest.raises(ParseError, match="duplicate alphabet directive") as err:
        parse_machine(path.read_text(), str(path))
    assert err.value.line == 7


@pytest.mark.parametrize(
    "head, rest",
    [
        ("kind dfa", "states 1\ninitial 0\ntrans 0 a 0\n"),
        ("kind wa", "dim 1\ninit 0 1\n"),
    ],
    ids=["fsm", "wa"],
)
@pytest.mark.parametrize(
    "symbols, message",
    [
        (" a a", "alphabet symbols must be pairwise distinct"),
        ("", "alphabet must be nonempty"),
    ],
    ids=["repeated", "empty"],
)
def test_bad_alphabet_reports_the_alphabet_line(head, rest, symbols, message):
    with pytest.raises(ParseError) as err:
        parse_machine(f"{head}\n# symbols\nalphabet{symbols}\n{rest}", "m")
    assert (err.value.line, err.value.message) == (3, message)


def _pinned_errors() -> list[tuple[str, int, str]]:
    """(fixture, line, message) of every bad fixture, from tests/golden/parse-errors.txt."""
    rows = []
    text = (FIXTURES.parent / "tests" / "golden" / "parse-errors.txt").read_text()
    for row in text.splitlines():
        name, line, message = row.split(":", 2)
        rows.append((name, int(line), message.removeprefix(" ")))
    return rows


PINNED_ERRORS = _pinned_errors()


def test_every_bad_fixture_has_a_pinned_error():
    assert [name for name, _, _ in PINNED_ERRORS] == BAD_FIXTURES


# every bad fixture, each reported at the line that names its cause (or at
# the last line for an item the file never gives)
@pytest.mark.parametrize("name, line, message", PINNED_ERRORS)
def test_out_of_range_state_reports_its_line(name, line, message, capsys):
    path = FIXTURES / "bad" / name
    with pytest.raises(ParseError) as err:
        parse_machine(path.read_text(), str(path))
    assert (err.value.line, err.value.message) == (line, message)
    assert main(["minimize", str(path)], out=io.StringIO()) == 2
    assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"


def test_out_of_range_source_before_states_directive():
    # the states count comes later in the file; the error still names the trans line
    text = "kind dfa\nalphabet a\ntrans -1 a 0\nstates 1\ninitial 0\ntrans 0 a 0\n"
    with pytest.raises(ParseError) as err:
        parse_machine(text, "m")
    assert (err.value.line, err.value.message) == (
        3,
        "trans source -1 out of range for `states 1`",
    )


@pytest.mark.parametrize(
    "text",
    [
        "kind moore\nalphabet a\nstates -1\ninitial 0\n",
        "kind wa\nalphabet a\ndim -1\ninit 0 1\n",
    ],
)
def test_nonpositive_count_reports_its_line(text):
    d = text.split("\n")[2].split()[0]
    with pytest.raises(ParseError) as err:
        parse_machine(text, "m")
    assert (err.value.line, err.value.message) == (3, f"{d} must be positive")


def test_missing_transition_message():
    text = (FIXTURES / "bad" / "fsm_missing_trans.aut").read_text()
    with pytest.raises(ParseError, match="missing transition"):
        parse_machine(text)


def test_comments_and_blank_lines():
    text = "# header\n\nkind dfa\nalphabet a\nstates 1\ninitial 0\n# mid\ntrans 0 a 0\n"
    m = parse_machine(text)
    assert m.n_states == 1


def test_suite_round_trip():
    ab = Alphabet(("c", "e", "1"))
    s = Suite.from_names(ab, [[], ["c"], ["1", "1", "c", "1"]])
    text = serialize_suite(s)
    assert text == "-eps-\nc\n1 1 c 1\n"
    assert parse_suite(text, ab) == s


def test_suite_parse_epsilon_and_comments():
    ab = Alphabet(("a", "b"))
    s = parse_suite("# suite\n-eps-\na b\n", ab)
    assert list(s) == [Word(()), Word((0, 1))]
    with pytest.raises(ParseError):
        parse_suite("a z\n", ab)


def test_suite_unknown_symbol_reports_its_line():
    ab = Alphabet(("a", "b"))
    text = "# suite\n-eps-\n\nb a\n a\tb  \nb z a\na\n"
    with pytest.raises(ParseError) as err:
        parse_suite(text, ab, "t.suite")
    assert (err.value.file, err.value.line) == ("t.suite", 6)
    assert err.value.message == "symbol 'z' not in alphabet ('a', 'b')"


def test_suite_file_order_and_spacing_do_not_matter():
    ab = Alphabet(("a", "b"))
    canonical = "-eps-\na\nb\na b\nb b a\n"
    messy = "# hand-written\n\tb  b a\n\na b\n-eps-\nb\na b\n  a\n"
    assert parse_suite(messy, ab) == parse_suite(canonical, ab)
    assert serialize_suite(parse_suite(messy, ab)) == canonical
    assert serialize_suite(parse_suite(canonical, ab)) == canonical


# names that are textual prefixes of one another; a drawn alphabet lists
# them in random index order
NAMES = ("a", "ab", "a1", "b", "ba", "1")
# separators that do not break a line: "\x1f" and the two spaces are
# whitespace to str.split, none of them is printable
SEPARATORS = (" ", "  ", "\t", " \t", "\xa0", "\u3000", "\x1f")


@st.composite
def suite_files(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    ab = Alphabet(tuple(names))
    words = draw(st.lists(st.lists(st.integers(0, len(names) - 1), max_size=4), max_size=10))
    lines = [line.split() for line in Suite.of(ab, words).lines()]
    if draw(st.booleans()):
        lines += draw(st.lists(st.sampled_from(lines), max_size=3)) if lines else []
        lines = draw(st.permutations(lines))
    if lines and draw(st.integers(0, 3)) == 0:  # an unknown symbol somewhere
        toks = draw(st.sampled_from(lines))
        bad = draw(st.sampled_from([n for n in NAMES + ("z", "-eps-") if n not in names]))
        toks.insert(draw(st.integers(0, len(toks))), bad)
    out = []
    for toks in lines:
        lead, trail = draw(st.sampled_from(("", *SEPARATORS))), draw(st.sampled_from(("", *SEPARATORS)))
        body = toks[0] if toks else ""
        for tok in toks[1:]:
            body += draw(st.sampled_from(SEPARATORS)) + tok
        out.append(lead + body + trail)
        out += draw(st.lists(st.sampled_from(("", "  ", "# note", "\t# a b", "#a")), max_size=1))
    return ab, "\n".join(out) + draw(st.sampled_from(("", "\n", "\r\n")))


@given(suite_files())
@settings(max_examples=300)
def test_parse_suite_matches_the_line_by_line_reader(case):
    ab, text = case
    try:
        expected = reference_parse_suite(text, ab, "t.suite")
    except ParseError as e:
        with pytest.raises(ParseError) as err:
            parse_suite(text, ab, "t.suite")
        assert (err.value.line, err.value.message) == (e.line, e.message)
        return
    got = parse_suite(text, ab, "t.suite")
    assert got.words == expected.words
    assert got.texts == expected.texts
    assert (got.planned is None) == (got.texts is None)
    assert got.plan == prefix_plan([w.syms for w in got])


def test_only_the_space_is_printable_whitespace():
    # symbol names are printable and hold no space, so they hold no
    # whitespace at all: a suite line's tokens are its whitespace split
    chars = map(chr, range(sys.maxunicode + 1))
    assert [c for c in chars if c.isspace() and c.isprintable()] == [" "]


def test_pattern_round_trip():
    s = OrbitSuite((EPS_PATTERN, SymbolicWord((1, 1)), SymbolicWord((1, 2))))
    text = serialize_suite(s)
    assert text == "-eps-\n1 1\n1 2\n"
    assert parse_patterns(text) == s


def test_pattern_parse_errors():
    with pytest.raises(ParseError):
        parse_patterns("1 x\n")
    with pytest.raises(ParseError, match="canonical"):
        parse_patterns("2 1\n")
    with pytest.raises(ParseError, match="canonical") as err:
        parse_patterns("-eps-\n# c\n1 2\n1 3\n")
    assert err.value.line == 4


@pytest.mark.parametrize(
    "text, line, token",
    [
        ("-eps-\n01 1\n", 2, "01"),
        ("+1\n", 1, "+1"),
        ("1\n1 2 3 4 5 6 7 8 9 1_0\n", 2, "1_0"),
        ("1 1\n\u0661\n", 2, "\u0661"),
    ],
)
def test_pattern_classes_are_plain_numerals(tmp_path, capsys, text, line, token):
    # int() reads each of these as a class; echoed as written, they would
    # not be the pattern's rendering
    reference_parse_patterns(text)
    with pytest.raises(ParseError) as err:
        parse_patterns(text, "t.suite")
    assert err.value.line == line
    assert err.value.message == f"pattern class {token!r} is not a plain decimal numeral"
    (tmp_path / "t.suite").write_text(text, encoding="utf-8")
    rna = str(FIXTURES / "same_twice.rna")
    assert main(["run", rna, rna, str(tmp_path / "t.suite")]) == 2
    assert f"t.suite:{line}: pattern class {token!r}" in capsys.readouterr().err


def test_pattern_errors_before_the_numeral_rule_keep_their_text():
    # a line that int() or SymbolicWord rejects is reported even after a
    # line that only the numeral rule rejects
    for text, line, message in [
        ("1 x\n", 1, "pattern classes must be integers: ['1', 'x']"),
        ("2 1\n", 1, "pattern (2, 1) is not canonical: classes must be numbered by first occurrence"),
        ("01\n00\n", 2, "pattern (0,) is not canonical: classes must be numbered by first occurrence"),
        ("+1\n-1 x\n", 2, "pattern classes must be integers: ['-1', 'x']"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_patterns(text)
        assert (err.value.line, err.value.message) == (line, message)


# tokens that int() reads but that are not plain numerals
ODD_NUMERALS = ("01", "+1", "1_0", "\u0661", "00", "-1", "0")


@st.composite
def pattern_files(draw):
    good = [s.render() for s in patterns_upto(3)]
    bad = ["2 1", "1 3", "1 x", "x", "-eps- 1", "1 -eps-", "0"]
    lines = draw(st.lists(st.sampled_from(good), max_size=10))
    lines = [s for s in dict.fromkeys(lines)]  # distinct, in drawn order
    if draw(st.booleans()):
        lines.sort(key=lambda t: (0, ()) if t == "-eps-" else (len(t.split()), t.split()))
    if draw(st.booleans()):
        lines += draw(st.lists(st.sampled_from(good), max_size=3))
        lines = draw(st.permutations(lines))
    lines = [line.split() for line in lines]
    if lines and draw(st.integers(0, 3)) == 0:  # an invalid pattern somewhere
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(bad)).split())
    if lines and draw(st.integers(0, 4)) == 0:  # a class spelled oddly
        toks = draw(st.sampled_from(lines))
        if toks and toks != ["-eps-"]:
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(ODD_NUMERALS))
    out = []
    for toks in lines:
        lead, trail = draw(st.sampled_from(("", *SEPARATORS))), draw(st.sampled_from(("", *SEPARATORS)))
        body = toks[0] if toks else ""
        for tok in toks[1:]:
            body += draw(st.sampled_from(SEPARATORS)) + tok
        out.append(lead + body + trail)
        out += draw(st.lists(st.sampled_from(("", "  ", "# note", "\t# 1 2", "#1")), max_size=1))
    return "\n".join(out) + draw(st.sampled_from(("", "\n", "\r\n")))


@given(pattern_files())
@settings(max_examples=300)
def test_parse_patterns_matches_the_line_by_line_reader(text):
    try:
        expected = reference_parse_patterns(text, "t.suite")
    except ParseError as e:
        with pytest.raises(ParseError) as err:
            parse_patterns(text, "t.suite")
        assert (err.value.line, err.value.message) == (e.line, e.message)
        return
    odd = [
        (no, tok)
        for no, raw in enumerate(text.splitlines(), start=1)
        if raw.split() and not raw.split()[0].startswith("#")
        for tok in raw.split()
        if not plain_numeral(tok)
    ]
    if odd:
        no, tok = odd[0]
        with pytest.raises(ParseError) as err:
            parse_patterns(text, "t.suite")
        assert (err.value.line, err.value.message) == (
            no,
            f"pattern class {tok!r} is not a plain decimal numeral",
        )
        return
    got = parse_patterns(text, "t.suite")
    assert got.patterns == expected.patterns
    assert got.texts == expected.texts  # kept exactly when the file is canonical
    assert (got.planned is None) == (got.texts is None)
    assert got.plan == prefix_plan([s.pattern for s in got])


def test_canonical_pattern_file_keeps_its_lines_and_plan():
    text = (FIXTURES.parent / "tests" / "golden" / "gen-k1.same_twice.rna.suite").read_text()
    got = parse_patterns(text)
    assert got.texts == tuple(text.splitlines())
    assert got.planned is not None
    assert got.plan == prefix_plan([s.pattern for s in got])
    assert serialize_suite(got) == text


def test_serialize_machine_is_canonical(coffee):
    # serialization of equal machines is identical text
    again = parse_machine(serialize_machine(coffee))
    assert serialize_machine(again) == serialize_machine(coffee)


def test_parse_error_str():
    e = ParseError("f.aut", 3, "bad token 'z'")
    assert str(e) == "f.aut:3: bad token 'z'"
