"""Fuzzing of `parse_machine` with mutated fixtures: token edits, line
deletions and line copies. Whatever the mutation, the parser either
returns a machine that round-trips through `serialize_machine`, or raises
a `ParseError` at a line that holds a directive. No error may come from a
machine constructor's `ValueError` (the fallback in `parse_machine`, the
only `ParseError` whose cause is a `ValueError`): the parser checks every
reference itself, at the line that makes it.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FIXTURES
from wmethod import ParseError, parse_machine, serialize_machine

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
