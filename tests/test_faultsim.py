import random

import pytest

from helpers import load, random_minimal_fsm
from wmethod import (
    MutationSpec,
    NotMinimalError,
    Suite,
    agree_on,
    agree_on_rna,
    agree_on_wa,
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
from wmethod.family import family_of
from wmethod.faultsim import redirect_transition, set_output


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


def test_gen_mutants_empty(coffee):
    assert gen_mutants_fsm(coffee, MutationSpec("fsm", 0, 0, 1)) == []


def test_gen_mutants_deterministic(coffee):
    ms = MutationSpec("fsm", 1, 25, 99)
    assert gen_mutants_fsm(coffee, ms) == gen_mutants_fsm(coffee, ms)
    other = MutationSpec("fsm", 1, 25, 100)
    assert gen_mutants_fsm(coffee, other) != gen_mutants_fsm(coffee, ms)


def test_gen_mutants_state_bound(coffee):
    for k in (0, 2):
        ms = MutationSpec("fsm", k, 40, 5)
        for m in gen_mutants_fsm(coffee, ms):
            assert m.n_states <= coffee.n_states + k


def test_gen_mutants_requires_minimal(coffee):
    from wmethod import Fsm

    cloned = Fsm(
        "dfa", coffee.alphabet, 5, 0, coffee.delta + ((3, 3, 3),), coffee.output + (0,)
    )
    with pytest.raises(NotMinimalError):
        gen_mutants_fsm(cloned, MutationSpec("fsm", 0, 1, 1))


def test_experiment_fsm_no_indomain_survivors(coffee):
    report = completeness_experiment(coffee, 0, MutationSpec("fsm", 0, 60, 7))
    assert report.ok
    assert len(report.results) == 60
    for r in report.results:
        assert r.in_domain
        if r.killed_by is None:
            assert r.oracle == "equiv"


def test_experiment_report_deterministic(coffee):
    ms = MutationSpec("fsm", 1, 30, 11)
    a = completeness_experiment(coffee, 1, ms).render()
    b = completeness_experiment(coffee, 1, ms).render()
    assert a == b
    assert a.startswith("faultsim family fsm seed 11 k 1")
    assert a.rstrip().splitlines()[-1].startswith("summary total 30")


def test_experiment_wa(binary_wa):
    report = completeness_experiment(binary_wa, 1, MutationSpec("wa", 1, 25, 3))
    assert report.ok
    assert all(r.in_domain for r in report.results)


def test_experiment_rna(same_twice):
    report = completeness_experiment(same_twice, 0, MutationSpec("rna", 0, 25, 3))
    assert report.ok


def test_experiment_family_mismatch(coffee):
    with pytest.raises(ValueError):
        completeness_experiment(coffee, 0, MutationSpec("wa", 0, 5, 1))


def test_experiment_unsupported_type():
    with pytest.raises(TypeError):
        completeness_experiment(object(), 0, MutationSpec("fsm", 0, 1, 1))


@pytest.mark.parametrize(
    "name, k", [("coffee_mealy.aut", 1), ("binary_value.wa", 1), ("same_twice.rna", 0)]
)
def test_killed_by_is_first_failing_verdict(name, k):
    # the experiment runs the specification once and compares values; the
    # word it reports must be the first failing verdict of the agree path
    spec = load(name)
    fam = family_of(spec)
    ms = MutationSpec(fam.name, k, 30, 17)
    suite = fam.suite(fam.cover(spec), k, fam.charset(spec))
    mutants = {
        "fsm": lambda: gen_mutants_fsm(spec, ms),
        "wa": lambda: gen_mutants_wa(spec, ms, fam.cover(spec), k),
        "rna": lambda: gen_mutants_rna(spec, ms, fam.cover(spec)),
    }[fam.name]()
    report = completeness_experiment(spec, k, ms)
    assert len(report.results) == len(mutants)
    for r, mut in zip(report.results, mutants):
        failed = [v.word for v in fam.agree(spec, mut, suite) if not v.passed]
        assert r.killed_by == (fam.render(failed[0], spec) if failed else None)


def test_wa_mutants_stay_in_domain(binary_wa):
    p = Suite(binary_wa.alphabet, forward_basis(binary_wa).witnesses)
    ms = MutationSpec("wa", 1, 15, 21)
    for m in gen_mutants_wa(binary_wa, ms, p, 1):
        assert in_fault_domain_wa(m, p, 1)


def test_rna_mutants_have_weak_cover(same_twice):
    p = state_cover_rna(same_twice)
    ms = MutationSpec("rna", 0, 15, 21)
    for m in gen_mutants_rna(same_twice, ms, p):
        weak_cover_map_rna(m, p)  # raises if the domain check was wrong


def test_in_domain_soundness_random_specs():
    # no in-domain inequivalent mutant may survive the suite, over many
    # random minimal specifications
    rng = random.Random(1234)
    for i in range(12):
        spec = random_minimal_fsm(rng, max_states=5, max_syms=2)
        k = i % 2
        report = completeness_experiment(spec, k, MutationSpec("fsm", k, 15, i))
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
    assert all(v.passed for v in agree_on_wa(binary_wa, big, suite))
    assert not equiv_wa(binary_wa, big).equivalent


def test_boundary_rna(same_twice):
    big = load("same_twice_boundary.rna")
    p = state_cover_rna(same_twice)
    w = char_set_rna(same_twice)
    suite = w_suite_rna(p, 0, w)
    with pytest.raises(ValueError):
        weak_cover_map_rna(big, p)  # no weak cover: out of the domain
    assert all(v.passed for v in agree_on_rna(same_twice, big, suite))
    assert not equiv_rna(same_twice, big).equivalent
