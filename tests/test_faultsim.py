import io
import random

import pytest

from helpers import (
    FIXTURES,
    chain_dfa,
    load,
    random_minimal_fsm,
    random_minimal_rna,
    random_minimal_wa,
)
from wmethod import (
    MutationSpec,
    NotMinimalError,
    Suite,
    agree_on,
    backward_basis,
    char_set,
    char_set_rna,
    completeness_experiment,
    equiv,
    equiv_rna,
    equiv_wa,
    forward_basis,
    gen_mutants_fsm,
    gen_mutants_rna,
    gen_mutants_wa,
    in_fault_domain_wa,
    state_cover,
    state_cover_rna,
    w_suite,
    w_suite_rna,
    weak_cover_map_rna,
)
from wmethod import words as words_module
from wmethod.cli import main
from wmethod.family import agree_values, family_of
from wmethod.faultsim import _mutants, redirect_transition, set_output
from wmethod.formats import parse_machine


def test_redirect_reproduces_known_faults(coffee, coffee_i1, coffee_i2):
    c = coffee.alphabet.index("c")
    e = coffee.alphabet.index("e")
    assert redirect_transition(coffee, 2, c, 2) == coffee_i1
    assert redirect_transition(coffee, 2, e, 1) == coffee_i2


def test_set_output(coffee, coffee_mealy):
    flipped = set_output(coffee, 0, 0)
    assert flipped.output[0] == 0
    m = set_output(coffee_mealy, 1, "brr", coffee_mealy.alphabet.index("c"))
    assert m.output[1][0] == "brr"


@pytest.mark.parametrize("args", [(-1, 1, 0), (0, -1, 0)])
def test_mutation_spec_rejects_negative_counts(args):
    with pytest.raises(ValueError, match="must be nonnegative"):
        MutationSpec(*args)


def test_gen_mutants_empty(coffee):
    assert gen_mutants_fsm(coffee, MutationSpec(0, 0, 1)) == []


def test_gen_mutants_deterministic(coffee):
    ms = MutationSpec(1, 25, 99)
    assert gen_mutants_fsm(coffee, ms) == gen_mutants_fsm(coffee, ms)
    other = MutationSpec(1, 25, 100)
    assert gen_mutants_fsm(coffee, other) != gen_mutants_fsm(coffee, ms)


def test_gen_mutants_state_bound(coffee):
    for k in (0, 2):
        ms = MutationSpec(k, 40, 5)
        for m in gen_mutants_fsm(coffee, ms):
            assert m.n_states <= coffee.n_states + k


def test_gen_mutants_requires_minimal(coffee):
    from wmethod import Fsm

    cloned = Fsm(
        "dfa", coffee.alphabet, 5, 0, coffee.delta + ((3, 3, 3),), coffee.output + (0,)
    )
    with pytest.raises(NotMinimalError):
        gen_mutants_fsm(cloned, MutationSpec(0, 1, 1))


def test_experiment_fsm_no_indomain_survivors(coffee):
    report = completeness_experiment(coffee, 0, MutationSpec(0, 60, 7))
    assert report.ok
    assert len(report.results) == 60
    for r in report.results:
        assert r.in_domain
        if r.killed_by is None:
            assert r.oracle == "equiv"


def test_experiment_report_deterministic(coffee):
    ms = MutationSpec(1, 30, 11)
    a = completeness_experiment(coffee, 1, ms).render()
    b = completeness_experiment(coffee, 1, ms).render()
    assert a == b
    assert a.startswith("faultsim family fsm seed 11 k 1")
    assert a.rstrip().splitlines()[-1].startswith("summary total 30")


def test_experiment_wa(binary_wa):
    report = completeness_experiment(binary_wa, 1, MutationSpec(1, 25, 3))
    assert report.ok
    assert all(r.in_domain for r in report.results)


def test_experiment_rna(same_twice):
    report = completeness_experiment(same_twice, 0, MutationSpec(0, 25, 3))
    assert report.ok


def test_experiment_unsupported_type():
    with pytest.raises(TypeError):
        completeness_experiment(object(), 0, MutationSpec(0, 1, 1))


def _assert_killed_by_is_first_failing_verdict(spec, k, ms):
    # the experiment runs the specification once and compares values up to
    # each mutant's first difference; the word it reports must be the first
    # failing verdict of the agree path, which executes every word
    fam = family_of(spec)
    _, p, w = fam.analyze(spec, False)
    suite = fam.suite(p, k, w)
    mutants = [m for m, _ in _mutants(fam.name, spec, k, ms, p)]
    report = completeness_experiment(spec, k, ms)
    assert len(report.results) == len(mutants)
    for r, mut in zip(report.results, mutants):
        failed = [w for w, a, b in zip(suite, *agree_values(spec, mut, suite)) if a != b]
        assert r.killed_by == (fam.render(failed[0], spec) if failed else None)
    return report


FIXTURE_EXPERIMENTS = [("coffee_mealy.aut", 1), ("binary_value.wa", 1), ("same_twice.rna", 0)]


@pytest.mark.parametrize("name, k", FIXTURE_EXPERIMENTS)
def test_killed_by_is_first_failing_verdict(name, k):
    _assert_killed_by_is_first_failing_verdict(load(name), k, MutationSpec(k, 30, 17))


@pytest.mark.parametrize(
    "make", [random_minimal_fsm, random_minimal_wa, random_minimal_rna], ids=["fsm", "wa", "rna"]
)
def test_killed_by_is_first_failing_verdict_random_specs(make):
    rng = random.Random(4321)
    killed = 0
    for i in range(16):
        k = i % 2
        report = _assert_killed_by_is_first_failing_verdict(make(rng), k, MutationSpec(k, 12, i))
        killed += sum(r.killed_by is not None for r in report.results)
    assert killed > 0


def _steps(plan, n: int) -> int:
    """Steps that executing the first n words of a plan takes."""
    return sum(len(tail) for _, tail in plan[:n])


@pytest.mark.parametrize("name, k", FIXTURE_EXPERIMENTS)
def test_killed_mutant_stops_at_its_first_failing_word(monkeypatch, name, k):
    spec = load(name)
    fam = family_of(spec)
    _, p, w = fam.analyze(spec, False)
    suite = fam.suite(p, k, w)
    runs = []  # the steps of each execution of the suite's plan, in call order

    def counting(real):
        def execute(plan, init, step):
            if plan != suite.plan:
                return real(plan, init, step)
            runs.append(0)
            i = len(runs) - 1

            def counted(state, a):
                runs[i] += 1
                return step(state, a)

            return real(plan, init, counted)

        return execute

    monkeypatch.setattr(words_module, "execute", counting(words_module.execute))
    report = completeness_experiment(spec, k, MutationSpec(k, 30, 17))
    full = _steps(suite.plan, len(suite))
    assert len(runs) == 1 + len(report.results)
    assert runs[0] == full  # the specification's values: the whole suite
    words = [fam.render(t, spec) for t in suite]
    for r, steps in zip(report.results, runs[1:]):
        if r.killed_by is None:
            assert steps == full
        else:
            assert steps == _steps(suite.plan, words.index(r.killed_by) + 1)
    assert any(steps < full for steps in runs[1:])


def test_wa_mutants_stay_in_domain(binary_wa):
    p = Suite(binary_wa.alphabet, forward_basis(binary_wa).witnesses)
    ms = MutationSpec(1, 15, 21)
    for m in gen_mutants_wa(binary_wa, ms, p, 1):
        assert in_fault_domain_wa(m, p, 1)


def test_rna_mutants_have_weak_cover(same_twice):
    p = state_cover_rna(same_twice)
    ms = MutationSpec(0, 15, 21)
    for m in gen_mutants_rna(same_twice, ms, p):
        weak_cover_map_rna(m, p)  # raises if the domain check was wrong


def test_in_domain_soundness_random_specs():
    # no in-domain inequivalent mutant may survive the suite, over many
    # random minimal specifications
    rng = random.Random(1234)
    for i in range(12):
        spec = random_minimal_fsm(rng, max_states=5, max_syms=2)
        k = i % 2
        report = completeness_experiment(spec, k, MutationSpec(k, 15, i))
        assert report.ok, report.render()


# --- boundary witnesses: out of the fault domain, passing, inequivalent ---


def test_boundary_fsm(coffee):
    big = load("coffee_boundary.aut")
    p = state_cover(coffee)
    w = char_set(coffee)
    suite = w_suite(p, coffee.alphabet, 0, w)
    assert big.n_states > coffee.n_states  # outside the n+0 domain
    assert all(v.passed for v in agree_on(coffee, big, suite))
    assert not equiv(coffee, big).equivalent


def test_boundary_wa(binary_wa):
    big = load("binary_value_boundary.wa")
    p = Suite(binary_wa.alphabet, forward_basis(binary_wa).witnesses)
    w = Suite(binary_wa.alphabet, backward_basis(binary_wa).witnesses)
    suite = w_suite(p, binary_wa.alphabet, 1, w)
    assert not in_fault_domain_wa(big, p, 1)
    assert all(v.passed for v in agree_on(binary_wa, big, suite))
    assert not equiv_wa(binary_wa, big).equivalent


def test_boundary_rna(same_twice):
    big = load("same_twice_boundary.rna")
    p = state_cover_rna(same_twice)
    w = char_set_rna(same_twice)
    suite = w_suite_rna(p, 0, w)
    with pytest.raises(ValueError):
        weak_cover_map_rna(big, p)  # no weak cover: out of the domain
    assert all(v.passed for v in agree_on(same_twice, big, suite))
    assert not equiv_rna(same_twice, big).equivalent


def test_experiment_plans_its_suite_on_the_suite_lines(monkeypatch):
    spec = parse_machine(chain_dfa(12))
    ms = MutationSpec(1, 20, 7)
    real = words_module.prefix_plan
    calls = []

    def counting(words):
        calls.append(len(words))
        return real(words)

    monkeypatch.setattr(words_module, "prefix_plan", counting)
    report = completeness_experiment(spec, 1, ms)
    # the W suite carries its lines and is planned on them
    assert calls == []
    # the symbol-tuple walk gives the same plan, verdicts and report
    monkeypatch.setattr(Suite, "plan", property(lambda t: real([w.syms for w in t])))
    tuple_walk = completeness_experiment(spec, 1, ms)
    assert report.results == tuple_walk.results
    assert report.render() == tuple_walk.render()
    assert any(r.killed_by is not None for r in report.results)


def _faultsim_report(name: str, extra: int) -> str:
    out = io.StringIO()
    argv = ["--seed", "3", "faultsim", "--k", "1", "--mutants", "30", "--extra-states", str(extra)]
    assert main([*argv, str(FIXTURES / name)], out=out) == 0
    return out.getvalue()


def test_extra_states_per_family():
    # fsm mutants grow by 1..N states; a wa mutant appends one state for any
    # N >= 1; rna mutants never grow, so N changes nothing
    assert _faultsim_report("same_twice.rna", 0) == _faultsim_report("same_twice.rna", 4)
    assert _faultsim_report("binary_value.wa", 1) == _faultsim_report("binary_value.wa", 4)
    assert _faultsim_report("binary_value.wa", 0) != _faultsim_report("binary_value.wa", 1)
    coffee = load("coffee.aut")
    sizes = {m.n_states for m in gen_mutants_fsm(coffee, MutationSpec(4, 200, 3))}
    assert sizes == set(range(coffee.n_states, coffee.n_states + 5))
