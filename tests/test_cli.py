import io
import os
import subprocess
import sys

import pytest

from helpers import FIXTURES, chain_dfa
from wmethod import cli
from wmethod.cli import main
from wmethod.formats import parse_machine, parse_suite, serialize_suite
from wmethod import (
    Alphabet,
    MutationSpec,
    Suite,
    Word,
    char_set,
    completeness_experiment,
    equiv,
    prefix_close,
    state_cover,
    w_suite,
)
from wmethod import formats as formats_module
from wmethod import fsm as fsm_module
from wmethod import nominal as nominal_module
from wmethod import weighted as weighted_module


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
    members = {w.syms for w in words}
    for w in members:
        for n in range(len(w)):
            assert w[:n] in members


def test_gen_wa_contains_baab(tmp_path):
    suite = tmp_path / "suite.txt"
    code, _ = run_cli("gen", "--k", "1", "-o", str(suite), WA)
    assert code == 0
    assert "b a a b" in suite.read_text().splitlines()
    code, out = run_cli("run", WA, WA_BAD, str(suite))
    assert code == 1
    assert [l for l in out.splitlines() if l.startswith("FAIL")] == ["FAIL b a a b 9 13"]


def test_run_prints_a_mealy_value_as_its_output_row(tmp_path):
    mealy, suite = str(FIXTURES / "coffee_mealy.aut"), tmp_path / "suite.txt"
    assert run_cli("gen", "--k", "0", "-o", str(suite), mealy)[0] == 0
    code, out = run_cli("run", mealy, mealy, str(suite))
    assert code == 0
    assert out.splitlines()[:4] == [
        "PASS -eps- err,err,ok err,err,ok",
        "PASS c err,err,err err,err,err",
        "PASS e err,err,err err,err,err",
        "PASS 1 cup,err,ok cup,err,ok",
    ]


def test_gen_missing_file():
    code, _ = run_cli("gen", "--k", "0", "-o", "/tmp/x.txt", "no-such-file.aut")
    assert code == 2


@pytest.mark.parametrize("command", ["gen", "minimize"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.txt"
    code, out = run_cli(command, "-o", str(target), COFFEE)
    assert (code, out) == (2, "")
    assert f"cannot write {target}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cover", "run"])
def test_binary_input_is_a_usage_error(tmp_path, capsys, command):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00 not text")
    argv = {"cover": ["cover", str(binary)], "run": ["run", COFFEE, COFFEE, str(binary)]}[command]
    assert run_cli(*argv) == (2, "")
    assert f"cannot read {binary}: not UTF-8 text" in capsys.readouterr().err


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


@pytest.mark.parametrize("name", ["#e", "-eps-", "e\x1b[2J"])
def test_gen_rejects_symbol_names_a_suite_file_cannot_hold(tmp_path, capsys, name):
    # as `#e`, every suite line starting with it read back as a comment; as
    # `-eps-`, the one-letter word read back as the empty word
    spec = tmp_path / "renamed.aut"
    text = (FIXTURES / "coffee.aut").read_text()
    spec.write_text(text.replace("alphabet c e 1", f"alphabet c {name} 1"))
    code, _ = run_cli("gen", "--k", "0", "-o", str(tmp_path / "s.suite"), str(spec))
    assert code == 2
    no = text.splitlines().index("alphabet c e 1") + 1
    assert f"{spec}:{no}: symbol {name!r} cannot be written in a suite file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fixture, line", [("coffee_moore.aut", "output 0 0"), ("coffee_mealy.aut", "output 0 c err")]
)
@pytest.mark.parametrize("command", ["gen", "minimize"])
def test_nonprintable_output_value_is_a_parse_error(tmp_path, capsys, fixture, line, command):
    # `run` and `minimize` print output values as they are
    spec = tmp_path / fixture
    text = (FIXTURES / fixture).read_text()
    spec.write_text(text.replace(line, line + "x\x1b[2J"))
    argv = ["gen", "--k", "0", "-o", str(tmp_path / "s.suite")] if command == "gen" else [command]
    code, out = run_cli(*argv, str(spec))
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    no = text.splitlines().index(line) + 1
    assert f"{spec}:{no}: output value " in err and "\x1b" not in err


def test_process_exit_codes(tmp_path):
    # the installed `wmethod` script raises SystemExit(main()); run it as a process
    unreachable = tmp_path / "unreachable.aut"
    unreachable.write_text(DEFECTIVE["dfa"])
    cases = [
        (["gen", "--k", "0", "-o", str(tmp_path / "s.suite"), COFFEE], 0),
        (["equiv", COFFEE, I1], 1),
        (["cover", str(FIXTURES / "bad" / "fsm_unknown_symbol.aut")], 2),
        (["cover", str(unreachable)], 3),
    ]
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "wmethod.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        for argv, _ in cases
    ]
    for (argv, code), proc in zip(cases, procs):
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == code
        assert (code, out) == run_cli(*argv)


@pytest.mark.parametrize("spec", sorted(p.name for p in FIXTURES.iterdir() if p.is_file()))
def test_run_executes_every_generated_word(tmp_path, spec):
    suite = tmp_path / "s.suite"
    argv = ["gen", "--k", "0", "--allow-nonminimal", "-o", str(suite), str(FIXTURES / spec)]
    code, out = run_cli(*argv)
    assert code == 0
    size = int(out.splitlines()[-1].removeprefix("|suite| = "))
    code, out = run_cli("run", str(FIXTURES / spec), str(FIXTURES / spec), str(suite))
    assert code == 0
    assert len(out.splitlines()) == size


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


RUN_PAIRS = [(COFFEE, I1), (WA, WA_BAD), (RNA, str(FIXTURES / "same_twice_boundary.rna"))]


def _hand_written(lines: list[str]) -> dict[str, str]:
    """Variants of a canonical suite file that must read as the same suite."""
    return {
        "reversed": "\n".join(reversed(lines)) + "\n",
        "duplicated": "\n".join(lines + lines[::2]) + "\n",
        "spacing": "".join("\t " + line.replace(" ", "  \t") + "  \n" for line in lines),
        "comments": "# hand-written\n\n" + "".join(f"{line}\n# after {line}\n\n" for line in lines),
    }


@pytest.mark.parametrize("spec, impl", RUN_PAIRS)
def test_run_ignores_order_duplicates_spacing_and_comments(tmp_path, spec, impl):
    suite = tmp_path / "canonical.suite"
    assert run_cli("gen", "--k", "1", "-o", str(suite), spec)[0] == 0
    expected = run_cli("run", spec, impl, str(suite))
    for name, text in _hand_written(suite.read_text().splitlines()).items():
        variant = tmp_path / f"{name}.suite"
        variant.write_text(text)
        assert run_cli("run", spec, impl, str(variant)) == expected, name


@pytest.mark.parametrize("option", ["--cover", "--charset"])
@pytest.mark.parametrize("spec", [COFFEE, WA, RNA])
def test_gen_checks_user_cover_and_charset(tmp_path, capsys, option, spec):
    # with only the empty word as P or W, the coffee suite would pass
    # coffee_i1.aut, which `equiv` separates from coffee.aut on `1 1 c e`
    eps_only = tmp_path / "eps.suite"
    eps_only.write_text("-eps-\n")
    code, out = run_cli("gen", option, str(eps_only), "-o", str(tmp_path / "s.suite"), spec)
    assert (code, out) == (3, "")
    assert str(eps_only) in capsys.readouterr().err
    assert not (tmp_path / "s.suite").exists()
    # the computed set, given back as a file, is accepted and changes nothing
    given = tmp_path / "given.suite"
    given.write_text(run_cli(option[2:], spec)[1])
    assert run_cli("gen", option, str(given), "-o", str(tmp_path / "a.suite"), spec)[0] == 0
    assert run_cli("gen", "-o", str(tmp_path / "b.suite"), spec)[0] == 0
    assert (tmp_path / "a.suite").read_text() == (tmp_path / "b.suite").read_text()


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


# Precondition matrix: a DFA and a WA with an unreachable state, a
# reachable WA whose two states are observed alike (not minimal), and an
# RNA whose location ignores its register (not minimal), against every
# subcommand that takes a single specification. Exit 3 names the defect.
DEFECTIVE = {
    "dfa": (
        "kind dfa\nalphabet a\nstates 3\ninitial 0\naccepting 1\n"
        "trans 0 a 1\ntrans 1 a 0\ntrans 2 a 2\n"
    ),
    "wa": (
        "kind wa\nalphabet a\ndim 2\ninit 0 1\nfinal 0 1\nfinal 1 1\n"
        "trans 0 a 0 1\ntrans 1 a 1 2\n"
    ),
    "wa-unobservable": (
        "kind wa\nalphabet a\ndim 2\ninit 0 1\n"
        "trans 0 a 1 1\ntrans 1 a 0 1\nfinal 0 1\nfinal 1 1\n"
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
    "wa-unobservable": (3, 0, 0, 3, 0),
}
DEFECT_WORDING = {
    "dfa": "state 2 is unreachable",
    "wa": "not spanned from the initial vector (rank 1 < dim 2)",
    "rna": "machine is not minimal",
    "wa-unobservable": "observation space not full (rank 1 < dim 2)",
}


@pytest.mark.parametrize(
    "machine, command",
    [(m, c) for m in sorted(DEFECTIVE) for c in SUBCOMMANDS],
)
def test_precondition_matrix(tmp_path, capsys, machine, command):
    spec = tmp_path / "spec.m"
    spec.write_text(DEFECTIVE[machine])
    argv = {
        "gen": ["gen", "--k", "0", "-o", str(tmp_path / "suite.txt")],
        "faultsim": ["faultsim", "--k", "0", "--mutants", "5"],
    }.get(command, [command])
    code, _ = run_cli(*argv, str(spec))
    assert code == EXPECTED_EXIT[machine][SUBCOMMANDS.index(command)]
    if code == 3:
        assert DEFECT_WORDING[machine] in capsys.readouterr().err


def test_a_large_sparse_wa_fails_its_cover_on_the_rank(tmp_path, capsys):
    # six lines for a 3000 x 3000 matrix: read without forming it densely as Fractions
    spec = tmp_path / "big.wa"
    spec.write_text("kind wa\nalphabet a\ndim 3000\ninit 0 1\nfinal 0 1\ntrans 0 a 0 1\n")
    assert run_cli("cover", str(spec)) == (3, "")
    err = capsys.readouterr().err
    assert "not spanned from the initial vector (rank 1 < dim 3000)" in err


@pytest.mark.parametrize("machine", ["dfa", "wa", "wa-unobservable"])
def test_allow_nonminimal_generates_from_the_minimization(tmp_path, machine):
    spec, minimized = tmp_path / "spec.m", tmp_path / "min.m"
    spec.write_text(DEFECTIVE[machine])
    assert run_cli("minimize", "-o", str(minimized), str(spec))[0] == 0
    allowed, direct = tmp_path / "allowed.txt", tmp_path / "direct.txt"
    assert run_cli("gen", "--k", "1", "--allow-nonminimal", "-o", str(allowed), str(spec))[0] == 0
    assert run_cli("gen", "--k", "1", "-o", str(direct), str(minimized))[0] == 0
    assert allowed.read_text() == direct.read_text()


@pytest.mark.parametrize("allow", [False, True])
def test_allow_nonminimal_says_an_rna_cannot_be_minimized(tmp_path, capsys, allow):
    # same_twice.rna with a second rejecting sink, equivalent to the first
    text = (FIXTURES / "same_twice.rna").read_text()
    text = text.replace("loc q3 0\n", "loc q3 0\nloc q4 0\n")
    text = text.replace("trans q2 fresh q3", "trans q2 fresh q4") + "trans q4 fresh q4\n"
    spec = tmp_path / "two_sinks.rna"
    spec.write_text(text)
    flag = ["--allow-nonminimal"] if allow else []
    code, _ = run_cli("gen", "--k", "0", *flag, "-o", str(tmp_path / "s.txt"), str(spec))
    err = capsys.readouterr().err
    assert code == 3
    assert "machine is not minimal" in err
    assert ("rna machines cannot be minimized" in err) == allow


@pytest.mark.parametrize("spec", ["coffee.aut", "binary_value.wa", "same_twice.rna"])
@pytest.mark.parametrize("command", ["gen", "faultsim"])
def test_negative_k_is_a_usage_error(tmp_path, capsys, spec, command):
    out = ["-o", str(tmp_path / "suite.txt")] if command == "gen" else []
    code, _ = run_cli(command, "--k", "-1", *out, str(FIXTURES / spec))
    assert code == 2
    assert "k must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "suite.txt").exists()


def _count_calls(monkeypatch, module, names):
    """Wrap module.<name> for every name so that calls through the module
    attribute are counted; returns the live counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


# Per command on a canonical specification, one walk per concept: the
# walks that build P and W also decide canonicity, with no pre-pass.
ANALYSIS_CALLS = {
    ("coffee.aut", "gen"): (fsm_module, {"minimize": 0, "_refine_partition": 0}),
    ("coffee.aut", "faultsim"): (fsm_module, {"minimize": 0, "_refine_partition": 1}),
    ("binary_value.wa", "gen"): (weighted_module, {"forward_basis": 1, "backward_basis": 1}),
    ("binary_value.wa", "faultsim"): (
        weighted_module, {"forward_basis": 1, "backward_basis": 1}
    ),
    ("same_twice.rna", "gen"): (nominal_module, {"_pair_configs": 1, "is_minimal_rna": 0}),
    ("same_twice.rna", "faultsim"): (
        nominal_module, {"_pair_configs": 1, "is_minimal_rna": 0}
    ),
}


@pytest.mark.parametrize("spec, command", sorted(ANALYSIS_CALLS))
def test_one_analysis_per_specification(tmp_path, monkeypatch, spec, command):
    module, expected = ANALYSIS_CALLS[spec, command]
    counts = _count_calls(monkeypatch, module, expected)
    argv = {
        "gen": ["gen", "--k", "1", "-o", str(tmp_path / "suite.txt")],
        "faultsim": ["faultsim", "--k", "0", "--mutants", "10"],
    }[command]
    code, _ = run_cli(*argv, str(FIXTURES / spec))
    assert code == 0
    assert counts == expected


# --------------------------------------------- one parser for every main() call


def test_parser_is_built_on_first_use_not_at_import():
    code = "import wmethod.cli as c; print(c._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                         capture_output=True, check=True).stdout
    assert out == "0\n"
    run_cli("charset", COFFEE)
    assert cli._parser.cache_info().currsize == 1
    assert cli._parser() is cli._parser()


def test_cached_parser_keeps_no_flag_between_calls(tmp_path):
    # this W holds `e e e e` without its prefixes, so prefix-closing the suite adds words
    charset = tmp_path / "w.txt"
    charset.write_text("-eps-\nc\n1\ne e e e\n")
    closed, plain = tmp_path / "closed.suite", tmp_path / "plain.suite"
    head = ("gen", "--charset", str(charset))
    assert run_cli(*head, "--prefix-closed", "-o", str(closed), COFFEE)[0] == 0
    assert run_cli(*head, "-o", str(plain), COFFEE)[0] == 0
    m = parse_machine((FIXTURES / "coffee.aut").read_text())
    suite = w_suite(state_cover(m), m.alphabet, 0, parse_suite(charset.read_text(), m.alphabet))
    assert plain.read_text() == serialize_suite(suite)
    assert closed.read_text() == serialize_suite(prefix_close(suite)) != plain.read_text()


def test_cached_parser_restores_the_default_seed():
    argv = ("faultsim", "--mutants", "10", COFFEE)
    code, seeded = run_cli("--seed", "5", *argv)
    assert code == 0 and seeded.startswith("faultsim family fsm seed 5 ")
    code, out = run_cli(*argv)
    assert code == 0 and out.startswith("faultsim family fsm seed 0 ")
    m = parse_machine((FIXTURES / "coffee.aut").read_text())
    assert out == completeness_experiment(m, 0, MutationSpec(0, 10, 0)).render()


@pytest.mark.parametrize(
    "bad", [["gen", COFFEE], ["faultsim", "--k", "x", COFFEE], ["--seed"], ["frobnicate"]]
)
def test_usage_error_after_a_successful_call(bad):
    ok = run_cli("charset", COFFEE)
    assert ok[0] == 0
    assert main(bad, out=io.StringIO()) == 2
    assert run_cli("charset", COFFEE) == ok


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--k", "1", "-o", "{out}", COFFEE],
        ["run", COFFEE, I1, "{out}"],
        ["equiv", COFFEE, I2],
        ["--seed", "1", "faultsim", "--mutants", "5", COFFEE],
        ["gen", "--k", "1", "-o", "{out}", WA],
        ["run", WA, WA_BAD, "{out}"],
        ["--seed", "1", "faultsim", "--mutants", "5", WA],
    ],
)
def test_fsm_and_wa_commands_stay_off_the_orbit_path(tmp_path, monkeypatch, argv):
    suite = tmp_path / "s.suite"
    spec = argv[-1] if argv[0] != "run" else argv[1]
    assert main(["gen", "--k", "1", "-o", str(suite), spec], out=io.StringIO()) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("an orbit-pattern function ran for a word family")

    for name in ("w_suite_rna", "concat_orbit", "patterns_upto"):
        monkeypatch.setattr(nominal_module, name, forbidden)
    monkeypatch.setattr(formats_module, "parse_patterns", forbidden)
    argv = [str(suite) if a == "{out}" else a for a in argv]
    assert main(argv, out=io.StringIO()) in (0, 1)


# ------------------------------------------- each suite line is formed once


@pytest.mark.parametrize("extra", [[], ["--prefix-closed"]])
def test_gen_renders_only_the_factor_words(tmp_path, monkeypatch, extra):
    spec = tmp_path / "chain12.aut"
    spec.write_text(chain_dfa(12))
    renders = 0
    render = Word.render

    def counting(self, alphabet):
        nonlocal renders
        renders += 1
        return render(self, alphabet)

    monkeypatch.setattr(Word, "render", counting)
    code, out = run_cli("gen", "--k", "1", *extra, "-o", str(tmp_path / "s.txt"), str(spec))
    assert code == 0
    assert "|P| = 12\n|W| = 11\n" in out
    # |P| + |Sigma^{<=2}| + |W|: every suite line is joined from these
    assert renders <= 12 + 7 + 11


# ------------------------------- each suite's symbols are checked where they enter


def test_gen_checks_only_the_factor_symbols_and_run_none(tmp_path, monkeypatch):
    spec = tmp_path / "chain12.aut"
    spec.write_text(chain_dfa(12))
    suite = tmp_path / "s.txt"
    scanned = 0
    check = Suite._check

    def counting(self, seqs):
        nonlocal scanned
        scanned += sum(map(len, seqs))
        return check(self, seqs)

    monkeypatch.setattr(Suite, "_check", counting)
    assert run_cli("gen", "--k", "1", "-o", str(suite), str(spec))[0] == 0
    # P (66 symbols), W (55) and Sigma^{<=2} (10); products and the read
    # suite are made unchecked
    assert scanned == 131
    scanned = 0
    assert run_cli("run", str(spec), str(spec), str(suite))[0] == 0
    assert scanned == 0


# ------------------------------------------- run forms no word of a canonical file


def test_run_forms_no_word_of_a_canonical_suite_file(tmp_path, monkeypatch):
    spec, impl = tmp_path / "chain12.aut", tmp_path / "chain13.aut"
    spec.write_text(chain_dfa(12))
    impl.write_text(chain_dfa(13))
    suite = tmp_path / "s.txt"
    assert run_cli("gen", "--k", "1", "-o", str(suite), str(spec))[0] == 0
    formed = 0
    of = Word._of.__func__

    def counting(cls, syms):
        nonlocal formed
        formed += 1
        return of(cls, syms)

    monkeypatch.setattr(Word, "_of", classmethod(counting))
    expected = run_cli("run", str(spec), str(impl), str(suite))
    assert expected[0] == 1 and "PASS" in expected[1] and "FAIL" in expected[1]
    assert formed == 0  # the suite is run on its lines and tail plan
    # a reversed copy with every line twice goes through the sorting path,
    # which forms each distinct word once, and prints the same
    lines = suite.read_text().splitlines()
    variant = tmp_path / "reversed.suite"
    variant.write_text("".join(f"{line}\n{line}\n" for line in reversed(lines)))
    assert run_cli("run", str(spec), str(impl), str(variant)) == expected
    assert formed == len(lines)


# ------------------------- run checks the suite file, then that the machines fit


MEALY = str(FIXTURES / "coffee_mealy.aut")
OTHER_WA = "kind wa\nalphabet x\ndim 1\ninit 0 1\nfinal 0 1\ntrans 0 x 0 1\n"


@pytest.mark.parametrize(
    "spec, impl, bad, error",
    [
        (COFFEE, MEALY, "c zz\n", "machine kinds differ: dfa vs mealy"),
        (COFFEE, WA, "c zz\n", "machine kinds differ: dfa vs wa"),  # two families
        (WA, None, "a zz\n", "machine alphabets differ"),
        (RNA, str(FIXTURES / "same_twice_boundary.rna"), "1 3\n", None),
    ],
)
def test_run_reports_the_suite_file_before_a_machine_mismatch(
    tmp_path, capsys, spec, impl, bad, error
):
    if impl is None:
        impl = tmp_path / "other.wa"
        impl.write_text(OTHER_WA)
    good, wrong = tmp_path / "good.suite", tmp_path / "bad.suite"
    assert run_cli("gen", "--k", "0", "-o", str(good), spec)[0] == 0
    wrong.write_text(good.read_text() + bad)
    n = len(good.read_text().splitlines()) + 1
    capsys.readouterr()
    assert run_cli("run", spec, str(impl), str(wrong)) == (2, "")
    assert capsys.readouterr().err.startswith(f"error: {wrong}:{n}: ")
    code, out = run_cli("run", spec, str(impl), str(good))
    if error is None:  # register automata have no kind or alphabet to differ
        assert code in (0, 1) and len(out.splitlines()) == n - 1
    else:
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {error}\n"
