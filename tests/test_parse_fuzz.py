"""Fuzzing of `parse_machine` with mutated fixtures: token edits, line
deletions and line copies. Whatever the mutation, the parser either
returns a machine that round-trips through `serialize_machine`, or raises
a `ParseError` at a line that holds a directive. No error may come from a
machine constructor's `ValueError` (the fallback in `parse_machine`, the
only `ParseError` whose cause is a `ValueError`): the parser checks every
reference itself, at the line that makes it.

The suite readers `parse_suite` and `parse_patterns` are fuzzed the same
way, with the golden suite files, and compared with the line-by-line
readers of the tests.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FIXTURES, load, plain_numeral, reference_parse_patterns, reference_parse_suite
from wmethod import ParseError, parse_machine, parse_patterns, parse_suite, serialize_machine
from wmethod import serialize_suite
from wmethod.words import prefix_plan

# the good fixtures without their comment lines
TEXTS = [
    "".join(line for line in p.read_text().splitlines(True) if not line.startswith("#"))
    for p in sorted(FIXTURES.iterdir())
    if p.is_file()
]
# the fixtures' own tokens, and registers, an unknown name, a zero
# denominator and a comment mark. Numbers stay small (drawn below 10, nudged
# by at most 9): a WA's `dim n` allocates n^2 weights per letter before any
# transition is read, an open resource bound that a large count would hit
TOKENS = sorted(
    {tok for text in TEXTS for tok in text.split()}
    | {"r0", "r1", "r2", "r-1", "x", "zz", "1/0", "#"}
)
# half of the tokens drawn are small integers: states, registers and counts
token = st.one_of(st.integers(-1, 9).map(str), st.sampled_from(TOKENS))


NUMBER = re.compile(r"(r?)(-?\d+)")  # a number, or register K of `rK`
# token edits, with nudges of a number twice as likely, and line edits
EDITS = ("nudge", "nudge", "replace", "insert", "delete", "drop", "copy")


@st.composite
def mutated_files(draw) -> str:
    lines = draw(st.sampled_from(TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        edit = draw(st.sampled_from(EDITS))
        nums = [j for j, tok in enumerate(toks) if NUMBER.fullmatch(tok)]
        if edit == "drop":
            del lines[i]
            continue
        if edit == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
            continue
        if edit == "nudge" and nums:
            j = draw(st.sampled_from(nums))
            head, num = NUMBER.fullmatch(toks[j]).groups()
            toks[j] = head + str(int(num) + draw(st.integers(-3, 9)))
        elif edit == "insert":
            toks.insert(draw(st.integers(0, len(toks))), draw(token))
        elif toks and edit == "replace":
            toks[draw(st.integers(0, len(toks) - 1))] = draw(token)
        elif toks and edit == "delete":
            del toks[draw(st.integers(0, len(toks) - 1))]
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def _directive_lines(text: str) -> set[int]:
    return {
        no
        for no, raw in enumerate(text.splitlines(), start=1)
        if raw.split() and not raw.split()[0].startswith("#")
    }


@given(mutated_files())
@settings(max_examples=400, deadline=None)
def test_mutated_machine_files_raise_only_line_precise_parse_errors(text):
    try:
        m = parse_machine(text, "m.txt")
    except ParseError as e:
        assert e.file == "m.txt"
        assert not isinstance(e.__cause__, ValueError), f"constructor fallback: {e}"
        lines = _directive_lines(text)
        assert e.line in lines or (not lines and e.line == 1)
        return
    assert parse_machine(serialize_machine(m)) == m


# ------------------------------------------------------------ suite files

GOLDEN = FIXTURES.parent / "tests" / "golden"
# (text, alphabet) of each golden suite file; None for an orbit pattern suite
SUITES = [
    (p.read_text(), None if spec.endswith(".rna") else load(spec).alphabet)
    for p in sorted(GOLDEN.glob("*.suite"))
    for spec in [p.name.split(".", 1)[1].removesuffix(".suite")]
]
# word suites and pattern suites are drawn equally often
SUITE_KINDS = [[s for s in SUITES if s[1] is not None], [s for s in SUITES if s[1] is None]]
SUITE_EDITS = ("replace", "insert", "delete", "drop", "copy", "move", "respace", "comment")
# names from no alphabet, the empty word's token, a comment mark, and
# classes that are out of order or that int() reads but are not plain numerals
SUITE_TOKENS = ("zz", "-eps-", "#", "x", "0", "4", "9", "01", "+1", "-1")


@st.composite
def mutated_suite_files(draw) -> tuple:
    text, alphabet = draw(st.sampled_from(draw(st.sampled_from(SUITE_KINDS))))
    lines = text.splitlines()
    tokens = sorted({tok for line in lines for tok in line.split()} | set(SUITE_TOKENS))
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        # the first line, the empty word's, is edited as often as all others
        i = draw(st.just(0) | st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        edit = draw(st.sampled_from(SUITE_EDITS))
        if edit == "drop":
            del lines[i]
        elif edit == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "move":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        elif edit == "respace":
            lines[i] = "\t " + "  ".join(toks) + " "
        elif edit == "comment":
            lines.insert(i, draw(st.sampled_from(("", "# note", "  #1 2"))))
        else:
            if edit == "insert":
                toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(tokens)))
            elif toks and edit == "replace":
                toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(tokens))
            elif toks and edit == "delete":
                del toks[draw(st.integers(0, len(toks) - 1))]
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n", alphabet


@given(mutated_suite_files())
@settings(max_examples=400, deadline=None)
def test_mutated_suite_files_read_as_the_line_by_line_readers_do(case):
    text, alphabet = case
    if alphabet is None:
        read, reference = parse_patterns, reference_parse_patterns
        args = ()
    else:
        read, reference = parse_suite, reference_parse_suite
        args = (alphabet,)
    kept = [(no, raw.split()) for no, raw in enumerate(text.splitlines(), start=1)]
    kept = [(no, toks) for no, toks in kept if toks and not toks[0].startswith("#")]
    try:
        expected = reference(text, *args, "t.suite")
        # the pattern reader also rejects classes that int() reads but that
        # are not written as they render, at the first one
        odd = [(no, tok) for no, toks in kept for tok in toks if not plain_numeral(tok)]
        if alphabet is None and odd:
            no, tok = odd[0]
            message = f"pattern class {tok!r} is not a plain decimal numeral"
            expected = ParseError("t.suite", no, message)
    except ParseError as e:
        expected = e
    if isinstance(expected, ParseError):
        try:  # any other exception fails the test
            read(text, *args, "t.suite")
        except ParseError as e:
            assert (e.file, e.line, e.message) == ("t.suite", expected.line, expected.message)
        else:
            raise AssertionError(f"no ParseError; expected {expected}")
        return
    got = read(text, *args, "t.suite")
    # len and the empty word are answered from the lines, before any word is formed
    assert len(got) == len(expected.words)
    assert got.contains_epsilon() == any(len(w) == 0 for w in expected.words)
    assert got.plan == prefix_plan([expected._seq(w) for w in expected.words])
    assert got.words == expected.words  # formed on demand from the plan
    assert got == expected and hash(got) == hash(expected)
    assert list(got.lines()) == list(expected.lines())
    if got.texts is not None:  # a canonical file
        assert serialize_suite(got) == "".join(" ".join(toks) + "\n" for _, toks in kept)
    again = read(serialize_suite(got), *args)
    assert again == got and again.texts is not None
