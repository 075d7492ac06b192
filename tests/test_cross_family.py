"""The oracles and suite verdicts of families that embed in one another
agree: a DFA is a 0/1-weighted automaton, and a register automaton whose
locations all have arity 0 is a one-letter DFA."""

import random

from helpers import (
    arity0_rna_as_dfa,
    brute_force_equiv,
    dfa_as_wa,
    random_fsm,
    random_minimal_fsm,
    random_rna,
)
from wmethod import (
    agree_on,
    char_set,
    equiv,
    equiv_rna,
    equiv_wa,
    lang_value,
    state_cover,
    w_suite,
    wa_lang,
    words_upto,
)
from wmethod.faultsim import redirect_transition


def test_dfa_embeds_as_a_01_weighted_automaton():
    rng = random.Random(1311)
    for _ in range(20):
        m = random_fsm(rng, max_states=5, syms=2)
        wa = dfa_as_wa(m)
        for w in words_upto(m.alphabet, 4):
            assert wa_lang(wa, w) == lang_value(m, w)


def test_dfa_and_wa_oracles_give_the_same_least_counterexample():
    rng = random.Random(1312)
    inequivalent = 0
    for i in range(200):
        a = random_fsm(rng, max_states=4, syms=2)
        if i % 2:
            b = random_fsm(rng, max_states=4, syms=2)
        else:  # a near miss: one transition redirected
            q, s = rng.randrange(a.n_states), rng.randrange(2)
            b = redirect_transition(a, q, s, rng.randrange(a.n_states))
        res = equiv(a, b)
        assert res == equiv_wa(dfa_as_wa(a), dfa_as_wa(b))
        # words_upto is in length-lex order, so brute force finds the least one
        assert res == brute_force_equiv(a, b, a.n_states + b.n_states - 1)
        inequivalent += not res.equivalent
    assert 50 <= inequivalent <= 190


def test_dfa_and_wa_suite_verdicts_agree_on_the_w_suite():
    rng = random.Random(1313)
    for _ in range(40):
        spec = random_minimal_fsm(rng, max_states=4, max_syms=2)
        ab = spec.alphabet
        suite = w_suite(state_cover(spec), ab, 1, char_set(spec))
        impl = random_fsm(rng, max_states=spec.n_states + 1, syms=len(ab))
        fsm_flags = [v.passed for v in agree_on(spec, impl, suite)]
        wa_flags = [v.passed for v in agree_on(dfa_as_wa(spec), dfa_as_wa(impl), suite)]
        assert fsm_flags == wa_flags


def test_arity0_rna_oracle_agrees_with_its_one_letter_dfa():
    rng = random.Random(1314)
    inequivalent = 0
    for _ in range(200):
        a = random_rna(rng, max_locs=4, max_arity=0)
        b = random_rna(rng, max_locs=4, max_arity=0)
        res = equiv_rna(a, b)
        dfa_res = equiv(arity0_rna_as_dfa(a), arity0_rna_as_dfa(b))
        assert res.equivalent == dfa_res.equivalent
        if not res.equivalent:
            inequivalent += 1
            assert len(res.counterexample) == len(dfa_res.counterexample)
    assert 20 <= inequivalent <= 180
