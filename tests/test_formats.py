import random

import pytest

from helpers import FIXTURES, load, random_fsm, random_rna, random_wa
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
    serialize_machine,
    serialize_suite,
)

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


def test_serialize_machine_is_canonical(coffee):
    # serialization of equal machines is identical text
    again = parse_machine(serialize_machine(coffee))
    assert serialize_machine(again) == serialize_machine(coffee)


def test_parse_error_str():
    e = ParseError("f.aut", 3, "bad token 'z'")
    assert str(e) == "f.aut:3: bad token 'z'"
