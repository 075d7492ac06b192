"""The one breadth-first walk (`words.reach`) and the covers and oracles
built on it, checked against the hand-written loops they replaced."""

import random
from pathlib import Path

import pytest

from helpers import (
    random_fsm,
    random_rna,
    random_wa,
    reference_access,
    reference_equiv,
    reference_equiv_wa,
    reference_forward_basis,
    reference_pair_bfs,
    reference_state_cover_rna,
)
from wmethod import (
    Alphabet,
    Fsm,
    Rna,
    Wa,
    equiv,
    equiv_rna,
    equiv_wa,
    forward_basis,
    minimize,
    state_cover,
    state_cover_rna,
)
from wmethod import fsm as fsm_module
from wmethod.faultsim import _perturb_entry, redirect_transition
from wmethod import nominal as nominal_module
from wmethod import weighted as weighted_module
from wmethod.words import reach, unseen

SRC = Path(__file__).resolve().parent.parent / "src" / "wmethod"

# a small graph: state -> its (letter, successor) moves, in the order tried
GRAPH = {0: [("a", 1), ("b", 2)], 1: [("a", 0), ("b", 3)], 2: [("a", 3)], 3: [], 4: [("a", 0)]}


def test_reach_yields_every_admitted_state_once_in_discovery_order():
    found = list(reach(0, GRAPH.__getitem__, unseen()))
    assert found == [((), 0), (("a",), 1), (("b",), 2), (("a", "b"), 3)]


def test_reach_admission_decides_what_is_yielded_and_expanded():
    assert list(reach(0, GRAPH.__getitem__, lambda q: False)) == []
    # keyed by parity: 2 and 4 count as 0, 3 as 1
    found = list(reach(0, GRAPH.__getitem__, unseen(lambda q: q % 2)))
    assert found == [((), 0), (("a",), 1)]


def test_reach_expands_a_state_only_when_asked_for_more():
    calls = []

    def moves(q):
        calls.append(q)
        return GRAPH[q]

    walk = reach(0, moves, unseen())
    assert next(walk) == ((), 0) and calls == []
    assert next(walk) == (("a",), 1) and calls == [0]
    assert next(walk) == (("b",), 2) and calls == [0]
    assert next(walk) == (("a", "b"), 3) and calls == [0, 1]
    assert next(walk, None) is None and calls == [0, 1, 2, 3]


def test_only_the_walk_imports_a_queue():
    users = sorted(p.name for p in SRC.glob("*.py") if "deque" in p.read_text())
    assert users == ["words.py"]


def _counting(calls):
    def walk(start, moves, new):
        def counted(state):
            calls.append(state)
            return moves(state)

        return reach(start, counted, new)

    return walk


AB = Alphabet(("a", "b"))
LOOP_ACCEPT = Fsm("dfa", AB, 1, 0, ((0, 0),), (1,))
LOOP_REJECT = Fsm("dfa", AB, 1, 0, ((0, 0),), (0,))
WA_ONE = Wa(AB, 1, (1,), (((1,),), ((1,),)), (1,))
WA_TWO = Wa(AB, 1, (1,), (((1,),), ((1,),)), (2,))
RNA_ACCEPT = Rna((("q", 0),), 0, frozenset({0}), (((0, ()),),))
RNA_REJECT = Rna((("q", 0),), 0, frozenset(), (((0, ()),),))


@pytest.mark.parametrize(
    "module, oracle, a, b",
    [
        (fsm_module, equiv, LOOP_ACCEPT, LOOP_REJECT),
        (weighted_module, equiv_wa, WA_ONE, WA_TWO),
        (nominal_module, equiv_rna, RNA_ACCEPT, RNA_REJECT),
    ],
    ids=["fsm", "wa", "rna"],
)
def test_oracle_that_differs_at_epsilon_expands_nothing(monkeypatch, module, oracle, a, b):
    calls = []
    monkeypatch.setattr(module, "reach", _counting(calls))
    res = oracle(a, b)
    assert not res.equivalent and len(res.counterexample) == 0
    assert calls == []
    assert oracle(a, a).equivalent and calls  # the equivalent pair is expanded


def test_fsm_covers_and_oracle_match_the_reference_loops():
    rng = random.Random(1301)
    deep = 0
    for i in range(300):
        kind = ("dfa", "moore", "mealy")[i % 3]
        a = random_fsm(rng, max_states=6, kind=kind)
        b = random_fsm(rng, max_states=6, kind=kind, syms=len(a.alphabet))
        assert list(fsm_module._access(a).items()) == list(reference_access(a).items())
        m = minimize(a)
        assert list(fsm_module._access(m).items()) == list(reference_access(m).items())
        assert list(state_cover(m)) == sorted(reference_access(m).values())
        q, s = rng.randrange(a.n_states), rng.randrange(len(a.alphabet))
        mutant = redirect_transition(a, q, s, rng.randrange(a.n_states))
        for x, y in ((a, b), (m, a), (a, mutant), (mutant, m)):
            res = equiv(x, y)
            assert res == reference_equiv(x, y)
            deep += not res.equivalent and len(res.counterexample) >= 2
    assert deep >= 50


def test_wa_basis_and_oracle_match_the_reference_loops():
    rng = random.Random(1302)
    deep = 0
    for _ in range(300):
        a = random_wa(rng, max_dim=4)
        b = random_wa(rng, max_dim=4)
        assert forward_basis(a) == reference_forward_basis(a)
        mutant = _perturb_entry(a, rng)
        for x, y in ((a, b), (b, a), (a, a), (a, mutant), (mutant, a)):
            res = equiv_wa(x, y)
            assert res == reference_equiv_wa(x, y)
            deep += not res.equivalent and len(res.counterexample) >= 2
    assert deep >= 50


def test_rna_cover_and_oracle_match_the_reference_loops():
    rng = random.Random(1303)
    deep = 0
    for _ in range(120):
        a = random_rna(rng, max_locs=4, max_arity=2)
        b = random_rna(rng, max_locs=4, max_arity=2)
        assert state_cover_rna(a) == reference_state_cover_rna(a)
        flip = rng.randrange(1, len(a.locations)) if len(a.locations) > 1 else 0
        mutant = Rna(a.locations, a.initial, a.accepting ^ {flip}, a.rules)
        for x, y in ((a, b), (a, mutant)):
            init_x, init_y = (x.initial, ()), (y.initial, ())
            res = nominal_module._pair_bfs(x, y, init_x, init_y)
            assert res == reference_pair_bfs(x, y, init_x, init_y)
            deep += not res[0] and len(res[1]) >= 2
        for sa, sb in nominal_module._pair_configs(a):
            res = nominal_module._pair_bfs(a, a, sa, sb)
            assert res == reference_pair_bfs(a, a, sa, sb)
            deep += not res[0] and len(res[1]) >= 2
    assert deep >= 50
