"""Tests of the benchmark itself: tiny workloads run clean, and every
output check rejects a corrupted output.

    python3 -m pytest bench/test_bench.py
"""

import io

import pytest

import reference
import run
import workloads
from reference import CheckError


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(name, trace):
    result = run.run(name, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] % len(workloads.build(name, 3, tiny=True).session(run.OUT)) == 0
    units = {m: v["unit"] for m, v in result["metrics"].items()}
    if trace:
        calls = {f"{layer}.calls" for layer in run.tracing.LAYERS}
        assert set(units) >= calls | set(run.tracing.TIME_METRICS)
    else:
        assert units == run.E2E_UNITS


def test_call_counts_repeat_exactly():
    calls = [
        {m: v["value"] for m, v in run.run("wa-mutants", 5, 0, True, tiny=True)["metrics"].items()
         if m.endswith(".calls")}
        for _ in range(2)
    ]
    assert calls[0] == calls[1]
    assert calls[0]["weighted.calls"] > 0 and calls[0]["fsm.calls"] == 0


def cli_run(cli, *argv):
    out = io.StringIO()
    rc = cli.main(list(argv), out=out)
    return rc, out.getvalue()


@pytest.fixture
def fsm_case(tmp_path):
    """The tiny DFA spec with its three implementations, and the CLI."""
    cli = run.import_wmethod()
    wl = workloads.build("fsm-chain", 7, tiny=True)
    wl.write(tmp_path)
    paths = {k: str(v) for k, v in wl.paths(tmp_path, 0).items()}
    return cli, wl.specs[0], paths


def test_rejects_suite_missing_a_word(fsm_case):
    cli, spec, paths = fsm_case
    assert cli_run(cli, "gen", "--k", "1", "-o", paths["suite"], paths["spec"])[0] == 0
    symbols = spec.machine.symbols
    got = reference.read_suite(open(paths["suite"]).read(), symbols)
    p = reference.read_suite(cli_run(cli, "cover", paths["spec"])[1], symbols)
    w = reference.read_suite(cli_run(cli, "charset", paths["spec"])[1], symbols)
    expected = reference.reference_suite(spec.machine, p, 1, w)
    reference.check_suite_file(got, expected, "gen")
    with pytest.raises(CheckError, match="missing"):
        reference.check_suite_file(got[:3] + got[4:], expected, "gen")
    with pytest.raises(CheckError, match="canonical order"):
        reference.check_suite_file(got[1:] + got[:1], expected, "gen")


def test_rejects_wrong_verdict_value(fsm_case):
    cli, spec, paths = fsm_case
    cli_run(cli, "gen", "--k", "1", "-o", paths["suite"], paths["spec"])
    suite = reference.read_suite(open(paths["suite"]).read(), spec.machine.symbols)
    rc, out = cli_run(cli, "run", paths["spec"], paths["impl0"], paths["suite"])
    impl = spec.impls[0]
    assert reference.check_run(rc, out, spec.machine, impl, suite, "run") == (rc == 0)
    lines = out.splitlines()
    toks = lines[-1].split()
    toks[-1] = "1" if toks[-1] == "0" else "0"
    lines[-1] = " ".join(toks)
    with pytest.raises(CheckError):
        reference.check_run(rc, "\n".join(lines) + "\n", spec.machine, impl, suite, "run")


def test_rejects_false_counterexample(fsm_case):
    cli, spec, paths = fsm_case
    rc, out = cli_run(cli, "equiv", paths["spec"], paths["impl1"])
    impl = spec.impls[1]
    reference.check_equiv(rc, out, spec.machine, impl, rc == 0, False, "equiv")
    assert out.startswith("inequivalent")
    # a word on which both machines agree: the empty word, as the flip and
    # redirect mutators leave the initial observation alone
    false_cex = f"inequivalent {reference.EPS}\n"
    with pytest.raises(CheckError, match="does not separate"):
        reference.check_equiv(1, false_cex, spec.machine, impl, False, False, "equiv")
    # an equivalent verdict for machines that differ
    with pytest.raises(CheckError):
        reference.check_equiv(0, "equivalent\n", spec.machine, impl, False, False, "equiv")


def test_rejects_faultsim_summary_with_wrong_count(fsm_case):
    cli, spec, paths = fsm_case
    rc, out = cli_run(cli, "--seed", "4", "faultsim", "--k", "1", "--mutants", "5", paths["spec"])
    p = reference.read_suite(cli_run(cli, "cover", paths["spec"])[1], spec.machine.symbols)
    w = reference.read_suite(cli_run(cli, "charset", paths["spec"])[1], spec.machine.symbols)
    size = len(reference.reference_suite(spec.machine, p, 1, w))
    counts = reference.check_faultsim(rc, out, 5, size, "faultsim")
    bad = out.replace(f"killed {counts['killed']} ", f"killed {counts['killed'] + 1} ")
    with pytest.raises(CheckError, match="summary"):
        reference.check_faultsim(rc, bad, 5, size, "faultsim")


def test_reference_oracles_agree_with_independent_facts():
    wl = workloads.build("wa-mutants", 2, tiny=True)
    for spec in wl.specs:
        conj, perturbed, grown = spec.impls
        assert spec.machine.equivalent(conj)
        words = reference.all_words(2, 4)
        assert all(spec.machine.value(w) == conj.value(w) for w in words)
    wl = workloads.build("rna-orbits", 2, tiny=True)
    for spec in wl.specs:
        assert spec.machine.is_minimal()
        assert spec.machine.equivalent(spec.impls[0])
