"""Acceptance gate: every criterion in one place, one line of output each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines; each test also enforces its runtime budget.
"""

import functools
import random
import time

from helpers import (
    brute_force_equiv,
    brute_force_equiv_rna,
    brute_force_equiv_wa,
    random_fsm,
    random_minimal_fsm,
    random_minimal_wa,
    random_rna,
    random_wa,
)
from wmethod import (
    MutationSpec,
    OrbitSuite,
    Rna,
    Suite,
    SymbolicWord,
    Word,
    agree_on,
    backward_basis,
    completeness_experiment,
    equiv,
    equiv_rna,
    equiv_wa,
    forward_basis,
    in_fault_domain_wa,
    is_char_set,
    is_char_set_rna,
    is_minimal_wa,
    lang_value,
    patterns_upto,
    state_cover,
    verify_weak_cover_rna,
    w_suite,
    w_suite_rna,
    wa_lang,
    words_upto,
)
from wmethod.faultsim import gen_mutants_wa, redirect_transition

P_ = SymbolicWord


def criterion(name, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            verdict = "PASS" if elapsed < budget_s else "FAIL (over budget)"
            print(f"ACCEPTANCE {name}: {verdict} ({elapsed:.2f}s / {budget_s}s)")
            assert elapsed < budget_s, f"{name} exceeded {budget_s}s ({elapsed:.2f}s)"

        return wrapper

    return deco


@criterion("coffee-dfa-example", 1.0)
def test_coffee_dfa_example(coffee, coffee_i1, coffee_i2):
    ab = coffee.alphabet
    assert [w.render(ab) for w in state_cover(coffee)] == ["-eps-", "c", "1", "1 1"]
    w = Suite.from_names(ab, [[], ["c"], ["1"]])
    assert is_char_set(coffee, w)
    suite = w_suite(state_cover(coffee), ab, 0, w)
    fails1 = [v.word.render(ab) for v in agree_on(coffee, coffee_i1, suite) if not v.passed]
    fails2 = [v.word.render(ab) for v in agree_on(coffee, coffee_i2, suite) if not v.passed]
    assert fails1 == ["1 1 c 1"]
    assert fails2 == ["1 1 e c"]


@criterion("coffee-moore-example", 1.0)
def test_coffee_moore_example(coffee_moore):
    ab = coffee_moore.alphabet
    w_small = Suite.from_names(ab, [[], ["1"]])
    assert is_char_set(coffee_moore, w_small)
    suite = w_suite(state_cover(coffee_moore), ab, 0, w_small)
    m1 = redirect_transition(coffee_moore, 2, ab.index("c"), 2)
    m2 = redirect_transition(coffee_moore, 2, ab.index("e"), 1)
    for mut in (m1, m2):
        assert not all(v.passed for v in agree_on(coffee_moore, mut, suite))


@criterion("dfa-completeness", 60.0)
def test_dfa_completeness_200_specs():
    rng = random.Random(2026)
    for i in range(200):
        spec = random_minimal_fsm(rng, max_states=6, max_syms=3)
        k = i % 2
        ms = MutationSpec(k, 20, seed=rng.randrange(2**32))
        report = completeness_experiment(spec, k, ms)
        survivors = [
            r
            for r in report.results
            if r.in_domain and r.killed_by is None and r.oracle == "inequiv"
        ]
        assert survivors == [], report.render()


@criterion("wa-example", 1.0)
def test_wa_example(binary_wa, binary_wa_faulty):
    ab = binary_wa.alphabet
    for w in words_upto(ab, 6):
        bits = "".join("01"[s] for s in w.syms)
        assert wa_lang(binary_wa, w) == (int(bits, 2) if bits else 0)
    assert [w.render(ab) for w in forward_basis(binary_wa).witnesses] == ["-eps-", "b"]
    assert [w.render(ab) for w in backward_basis(binary_wa).witnesses] == ["-eps-", "b"]
    assert is_minimal_wa(binary_wa)
    p = Suite.from_names(ab, [[], ["b"]])
    assert in_fault_domain_wa(binary_wa_faulty, p, 1)
    verdicts = agree_on(binary_wa, binary_wa_faulty, w_suite(p, ab, 1, p))
    fails = [(v.word.render(ab), v.spec_out, v.impl_out) for v in verdicts if not v.passed]
    assert fails == [("b a a b", 9, 13)]


@criterion("wa-completeness", 120.0)
def test_wa_completeness_100_specs():
    rng = random.Random(77)
    for i in range(100):
        spec = random_minimal_wa(rng, max_dim=4)
        k = i % 2
        p = Suite(spec.alphabet, forward_basis(spec).witnesses)
        w = Suite(spec.alphabet, backward_basis(spec).witnesses)
        suite = w_suite(p, spec.alphabet, k, w)
        ms = MutationSpec(1, 8, seed=rng.randrange(2**32))
        for mut in gen_mutants_wa(spec, ms, p, k):
            assert in_fault_domain_wa(mut, p, k)
            if all(v.passed for v in agree_on(spec, mut, suite)):
                assert equiv_wa(spec, mut).equivalent


@criterion("nominal-example", 2.0)
def test_nominal_example(same_twice):
    accepted = [s.pattern for s in patterns_upto(3) if lang_value(same_twice, s)]
    assert accepted == [(1, 1)]
    p = OrbitSuite((P_(()), P_((1,)), P_((1, 1)), P_((1, 1, 2))))
    dp = {
        (P_(()), None): P_((1,)),
        (P_((1,)), 1): P_((1, 1)),
        (P_((1,)), None): P_((1, 1, 2)),
    }
    for c in (1, None):
        dp[(P_((1, 1)), c)] = P_((1, 1, 2))
    for c in (1, 2, None):
        dp[(P_((1, 1, 2)), c)] = P_((1, 1, 2))
    assert verify_weak_cover_rna(same_twice, p, dp)
    w = OrbitSuite((P_(()), P_((1,)), P_((1, 1))))
    assert is_char_set_rna(same_twice, w)
    suite = w_suite_rna(p, 0, w)
    assert len(suite) < 10**4  # a finite, explicitly materialized list
    assert max(len(s) for s in suite) <= 6
    flipped = Rna(same_twice.locations, same_twice.initial, frozenset(), same_twice.rules)
    rules = [list(g) for g in same_twice.rules]
    rules[1][1] = (2, ())
    retarget = Rna(
        same_twice.locations, same_twice.initial, same_twice.accepting, tuple(map(tuple, rules))
    )
    for mut in (flipped, retarget):
        assert not all(v.passed for v in agree_on(same_twice, mut, suite))


@criterion("oracle-cross-validation", 120.0)
def test_oracle_cross_validation():
    rng = random.Random(31337)
    for _ in range(500):
        a = random_fsm(rng, max_states=4, syms=2)
        b = random_fsm(rng, max_states=4, syms=2)
        res = equiv(a, b)
        brute = brute_force_equiv(a, b, 2 * max(a.n_states, b.n_states))
        assert res.equivalent == brute.equivalent
        if not res.equivalent:
            assert lang_value(a, res.counterexample) != lang_value(b, res.counterexample)
    for _ in range(500):
        a = random_wa(rng, max_dim=3)
        b = random_wa(rng, max_dim=3)
        res = equiv_wa(a, b)
        brute = brute_force_equiv_wa(a, b, 2 * max(a.dim, b.dim))
        assert res.equivalent == brute.equivalent
        if not res.equivalent:
            assert wa_lang(a, res.counterexample) != wa_lang(b, res.counterexample)
    for _ in range(500):
        a = random_rna(rng, max_locs=3, max_arity=1)
        b = random_rna(rng, max_locs=3, max_arity=1)
        res = equiv_rna(a, b)
        brute = brute_force_equiv_rna(a, b, 2 * max(len(a.locations), len(b.locations)))
        assert res.equivalent == brute.equivalent
        if not res.equivalent:
            assert lang_value(a, res.counterexample) != lang_value(b, res.counterexample)


@criterion("factorization-dedup", 10.0)
def test_factorization_dedup_invariance():
    # executing a word list with duplicates and executing its set image
    # produce the same overall verdict and the same per-word outcomes
    rng = random.Random(404)
    for _ in range(100):
        spec = random_fsm(rng, max_states=4, syms=2)
        impl = random_fsm(rng, max_states=4, syms=2)
        raw = [Word(tuple(rng.randrange(2) for _ in range(rng.randint(0, 4)))) for _ in range(8)]
        raw += rng.choices(raw, k=6)  # inject duplicates
        rng.shuffle(raw)
        dedup = Suite.of(spec.alphabet, raw)
        assert len(dedup) <= len(raw)
        raw_pass = all(lang_value(spec, w) == lang_value(impl, w) for w in raw)
        suite_pass = all(v.passed for v in agree_on(spec, impl, dedup))
        assert raw_pass == suite_pass
        outcome = {w: lang_value(spec, w) == lang_value(impl, w) for w in raw}
        for v in agree_on(spec, impl, dedup):
            assert v.passed == outcome[v.word]
