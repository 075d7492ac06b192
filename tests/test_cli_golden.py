"""Golden CLI outputs: stdout, exit code and written suite file of a fixed
set of commands over the fixtures, compared byte for byte.

The expected files live in tests/golden/. Each case has `<case>.out`,
whose first line is `exit <code>` followed by the command's stdout
verbatim, and, for `gen`, `<case>.suite` with the written suite file
(or, for a suite file above 64 KiB, `<case>.suite.sha256` with its
SHA-256 digest and byte count).
To rewrite them (only when an output change is intended), run
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import pytest

from helpers import FIXTURES
from wmethod.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

BIG = 1 << 16

GOOD = sorted(p.name for p in FIXTURES.iterdir() if p.is_file())
FSM_WA = [n for n in GOOD if not n.endswith(".rna")]
PAIRS = [
    ("coffee.aut", "coffee_i1.aut"),
    ("coffee.aut", "coffee_i2.aut"),
    ("binary_value.wa", "binary_value_faulty.wa"),
    ("same_twice.rna", "same_twice_boundary.rna"),
    ("coffee_mealy.aut", "coffee_mealy.aut"),
    ("coffee_moore.aut", "coffee_moore.aut"),
]
FAULTSIM = [
    "coffee.aut",
    "binary_value.wa",
    "same_twice.rna",
    "coffee_mealy.aut",
    "coffee_moore.aut",
]


def _cases() -> dict[str, tuple[list[str], bool]]:
    """case name -> (argv, whether the command writes a suite file). In
    argv, `{out}` stands for the suite file to write and `{<case>}` for
    the golden suite file of a gen case."""
    cases: dict[str, tuple[list[str], bool]] = {}
    for n in GOOD:
        cases[f"cover.{n}"] = (["cover", n], False)
        cases[f"charset.{n}"] = (["charset", n], False)
        for k in ("0", "1"):
            cases[f"gen-k{k}.{n}"] = (["gen", "--k", k, "-o", "{out}", n], True)
    for n in FSM_WA:
        pc = ["gen", "--k", "1", "--prefix-closed", "-o", "{out}", n]
        cases[f"gen-k1-pc.{n}"] = (pc, True)
        cases[f"minimize.{n}"] = (["minimize", n], False)
    for spec, impl in PAIRS:
        for k in ("0", "1"):
            run = ["run", spec, impl, f"{{gen-k{k}.{spec}}}"]
            cases[f"run-k{k}.{spec}.{impl}"] = (run, False)
        cases[f"equiv.{spec}.{impl}"] = (["equiv", spec, impl], False)
    for n in FAULTSIM:
        faultsim = ["--seed", "1", "faultsim", "--k", "0", "--mutants", "20", n]
        cases[f"faultsim.{n}"] = (faultsim, False)
    return cases


CASES = _cases()


def _argv(template: list[str], out_file: Path) -> list[str]:
    argv = []
    for tok in template:
        if tok == "{out}":
            argv.append(str(out_file))
        elif tok.startswith("{"):
            argv.append(str(GOLDEN / f"{tok[1:-1]}.suite"))
        elif tok in GOOD:
            argv.append(str(FIXTURES / tok))
        else:
            argv.append(tok)
    return argv


def _run(case: str, out_file: Path) -> tuple[str, str | None]:
    template, writes = CASES[case]
    buf = io.StringIO()
    code = main(_argv(template, out_file), out=buf)
    suite = None
    if writes and out_file.exists():
        suite = out_file.read_text(encoding="utf-8")
    return f"exit {code}\n{buf.getvalue()}", suite


def _digest(suite: str) -> str:
    data = suite.encode("utf-8")
    return f"sha256 {hashlib.sha256(data).hexdigest()} bytes {len(data)}\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    out, suite = _run(case, tmp_path / "suite.txt")
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    expected_suite = GOLDEN / f"{case}.suite"
    expected_digest = GOLDEN / f"{case}.suite.sha256"
    if expected_suite.exists():
        assert suite == expected_suite.read_text(encoding="utf-8")
    elif expected_digest.exists():
        assert suite is not None
        assert _digest(suite) == expected_digest.read_text(encoding="utf-8")
    else:
        assert suite is None


def _write_all() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    # gen cases first: run cases read the suites they write
    for case in sorted(CASES, key=lambda c: not c.startswith("gen")):
        with tempfile.TemporaryDirectory() as tmp:
            out, suite = _run(case, Path(tmp) / "suite.txt")
        (GOLDEN / f"{case}.out").write_text(out, encoding="utf-8")
        if suite is None:
            continue
        if len(suite.encode("utf-8")) > BIG:
            (GOLDEN / f"{case}.suite.sha256").write_text(_digest(suite), encoding="utf-8")
        else:
            (GOLDEN / f"{case}.suite").write_text(suite, encoding="utf-8")


if __name__ == "__main__":
    _write_all()
