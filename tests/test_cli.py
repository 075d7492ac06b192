import io

import pytest

from helpers import FIXTURES
from wmethod.cli import main
from wmethod.formats import parse_machine, parse_suite
from wmethod import Alphabet, equiv


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


COFFEE = str(FIXTURES / "coffee.aut")
I1 = str(FIXTURES / "coffee_i1.aut")
I2 = str(FIXTURES / "coffee_i2.aut")
WA = str(FIXTURES / "binary_value.wa")
WA_BAD = str(FIXTURES / "binary_value_faulty.wa")
RNA = str(FIXTURES / "same_twice.rna")


def test_gen_and_run_self_pass(tmp_path):
    suite = tmp_path / "suite.txt"
    code, out = run_cli("gen", "--k", "0", "-o", str(suite), COFFEE)
    assert code == 0
    assert "|P| = 4" in out and "|W| =" in out and "|suite| =" in out
    code, _ = run_cli("run", COFFEE, COFFEE, str(suite))
    assert code == 0


def test_gen_with_paper_charset_kills_mutants(tmp_path):
    charset = tmp_path / "w.txt"
    charset.write_text("-eps-\nc\n1\n")
    suite = tmp_path / "suite.txt"
    code, _ = run_cli("gen", "--k", "0", "--charset", str(charset), "-o", str(suite), COFFEE)
    assert code == 0
    code, out = run_cli("run", COFFEE, I1, str(suite))
    assert code == 1
    fails = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert fails == ["FAIL 1 1 c 1 1 0"]
    code, out = run_cli("run", COFFEE, I2, str(suite))
    assert code == 1
    fails = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert fails == ["FAIL 1 1 e c 0 1"]


def test_gen_prefix_closed(tmp_path):
    suite = tmp_path / "suite.txt"
    code, _ = run_cli("gen", "--k", "0", "--prefix-closed", "-o", str(suite), COFFEE)
    assert code == 0
    words = parse_suite(suite.read_text(), Alphabet(("c", "e", "1")))
    members = set(words)
    for w in words:
        for p in w.prefixes():
            assert p in members


def test_gen_wa_contains_baab(tmp_path):
    suite = tmp_path / "suite.txt"
    code, _ = run_cli("gen", "--k", "1", "-o", str(suite), WA)
    assert code == 0
    assert "b a a b" in suite.read_text().splitlines()
    code, out = run_cli("run", WA, WA_BAD, str(suite))
    assert code == 1
    assert [l for l in out.splitlines() if l.startswith("FAIL")] == ["FAIL b a a b 9 13"]


def test_gen_missing_file():
    code, _ = run_cli("gen", "--k", "0", "-o", "/tmp/x.txt", "no-such-file.aut")
    assert code == 2


def test_gen_nonminimal_exit3(tmp_path):
    bad = tmp_path / "pad.aut"
    bad.write_text(
        "kind dfa\nalphabet a\nstates 2\ninitial 0\naccepting 0 1\n"
        "trans 0 a 0\ntrans 1 a 0\n"
    )
    suite = tmp_path / "s.txt"
    code, _ = run_cli("gen", "--k", "0", "-o", str(suite), str(bad))
    assert code == 3
    code, _ = run_cli("gen", "--k", "0", "--allow-nonminimal", "-o", str(suite), str(bad))
    assert code == 0
    assert suite.read_text().strip() == "-eps-\na"  # one state: P=W={eps}


def test_equiv_exit_codes():
    code, out = run_cli("equiv", COFFEE, COFFEE)
    assert code == 0 and out.strip() == "equivalent"
    code, out = run_cli("equiv", COFFEE, I2)
    assert code == 1
    assert out.startswith("inequivalent 1 1 e c")
    code, out = run_cli("equiv", WA, WA_BAD)
    assert code == 1 and out.strip() == "inequivalent b a a b"
    code, _ = run_cli("equiv", COFFEE, WA)
    assert code == 2


def test_minimize_round_trip(tmp_path):
    padded = tmp_path / "padded.aut"
    padded.write_text(
        "kind dfa\nalphabet c e 1\nstates 5\ninitial 0\naccepting 0 1 2\n"
        "trans 0 c 3\ntrans 0 e 3\ntrans 0 1 1\n"
        "trans 1 c 0\ntrans 1 e 3\ntrans 1 1 2\n"
        "trans 2 c 1\ntrans 2 e 0\ntrans 2 1 3\n"
        "trans 3 c 3\ntrans 3 e 3\ntrans 3 1 3\n"
        "trans 4 c 4\ntrans 4 e 4\ntrans 4 1 4\n"  # unreachable
    )
    out_file = tmp_path / "min.aut"
    code, _ = run_cli("minimize", "-o", str(out_file), str(padded))
    assert code == 0
    m = parse_machine(out_file.read_text())
    assert m.n_states == 4
    assert equiv(m, parse_machine((FIXTURES / "coffee.aut").read_text())).equivalent


def test_minimize_rna_unsupported():
    code, _ = run_cli("minimize", RNA)
    assert code == 2


def test_cover_output():
    code, out = run_cli("cover", COFFEE)
    assert code == 0
    assert out == "-eps-\nc\n1\n1 1\n"
    code, out = run_cli("cover", WA)
    assert code == 0
    assert out == "-eps-\nb\n"
    code, out = run_cli("cover", RNA)
    assert code == 0
    assert out == "-eps-\n1\n1 1\n1 2\n"


def test_charset_output():
    code, out = run_cli("charset", WA)
    assert code == 0
    assert out == "-eps-\nb\n"
    code, out = run_cli("charset", RNA)
    assert code == 0
    assert out == "-eps-\n1\n1 1\n"


def test_faultsim_cli():
    code, out = run_cli("--seed", "5", "faultsim", "--k", "0", "--mutants", "10", COFFEE)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "faultsim family fsm seed 5 k 0 suite-size 31"
    assert len([l for l in lines if l.startswith("mutant ")]) == 10
    assert lines[-1].startswith("summary total 10")


def test_run_family_mismatch():
    code, _ = run_cli("run", COFFEE, WA, "/dev/null")
    assert code == 2


def test_parse_error_exit2(tmp_path):
    bad = tmp_path / "bad.aut"
    bad.write_text("kind dfa\nalphabet a\nstates 1\ninitial 0\n")  # no transitions
    code, _ = run_cli("equiv", str(bad), str(bad))
    assert code == 2


def test_usage_error_exit2():
    assert main(["gen", COFFEE]) == 2  # missing -o
    assert main([]) == 2


def test_rna_gen_and_run(tmp_path):
    suite = tmp_path / "pat.txt"
    code, out = run_cli("gen", "--k", "0", "-o", str(suite), RNA)
    assert code == 0
    text = suite.read_text().splitlines()
    assert "1 1" in text
    code, _ = run_cli("run", RNA, RNA, str(suite))
    assert code == 0


EPS_PAIRS = {
    "dfa": (
        "kind dfa\nalphabet a\nstates 1\ninitial 0\naccepting 0\ntrans 0 a 0\n",
        "kind dfa\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n",
    ),
    "wa": (
        "kind wa\nalphabet a\ndim 1\ninit 0 1\nfinal 0 1\ntrans 0 a 0 1\n",
        "kind wa\nalphabet a\ndim 1\ninit 0 1\nfinal 0 2\ntrans 0 a 0 1\n",
    ),
    "rna": (
        "kind rna\nloc q0 0\ninitial q0\naccepting q0\ntrans q0 fresh q0\n",
        "kind rna\nloc q0 0\ninitial q0\ntrans q0 fresh q0\n",
    ),
}


@pytest.mark.parametrize("family", sorted(EPS_PAIRS))
def test_equiv_prints_empty_counterexample(tmp_path, family):
    a, b = tmp_path / "a.m", tmp_path / "b.m"
    a.write_text(EPS_PAIRS[family][0])
    b.write_text(EPS_PAIRS[family][1])
    code, out = run_cli("equiv", str(a), str(b))
    assert (code, out) == (1, "inequivalent -eps-\n")


# Precondition matrix: a DFA and a WA with an unreachable state, and an RNA
# whose location ignores its register (not minimal), against every
# subcommand that takes a single specification.
DEFECTIVE = {
    "dfa": (
        "kind dfa\nalphabet a\nstates 3\ninitial 0\naccepting 1\n"
        "trans 0 a 1\ntrans 1 a 0\ntrans 2 a 2\n"
    ),
    "wa": (
        "kind wa\nalphabet a\ndim 2\ninit 0 1\nfinal 0 1\nfinal 1 1\n"
        "trans 0 a 0 1\ntrans 1 a 1 2\n"
    ),
    "rna": (
        "kind rna\nloc q0 0\nloc junk 1\ninitial q0\naccepting junk\n"
        "trans q0 fresh junk x\ntrans junk eq 1 junk r1\ntrans junk fresh junk x\n"
    ),
}
SUBCOMMANDS = ("gen", "cover", "charset", "faultsim", "minimize")
EXPECTED_EXIT = {
    "dfa": (3, 3, 0, 3, 0),
    "wa": (3, 3, 0, 3, 0),
    "rna": (3, 0, 3, 3, 2),
}


@pytest.mark.parametrize(
    "machine, command",
    [(m, c) for m in sorted(DEFECTIVE) for c in SUBCOMMANDS],
)
def test_precondition_matrix(tmp_path, machine, command):
    spec = tmp_path / "spec.m"
    spec.write_text(DEFECTIVE[machine])
    argv = {
        "gen": ["gen", "--k", "0", "-o", str(tmp_path / "suite.txt")],
        "faultsim": ["faultsim", "--k", "0", "--mutants", "5"],
    }.get(command, [command])
    code, _ = run_cli(*argv, str(spec))
    assert code == EXPECTED_EXIT[machine][SUBCOMMANDS.index(command)]
