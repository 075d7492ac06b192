"""Deterministic finite-state machines: DFA, Moore, and Mealy.

One machine type covers all three kinds. A DFA is a Moore machine with
outputs 0/1; a Mealy machine attaches outputs to transitions instead of
states. The language value of a word is the output observed at the state
the word reaches: a single value for DFA/Moore, and for Mealy the whole
output row of the reached state (one output per input symbol, i.e. the
output of the last transition of every one-symbol extension).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate
from typing import Mapping

from .words import (
    EPSILON,
    Alphabet,
    EquivResult,
    NotMinimalError,
    Suite,
    Word,
    check_fit,
    cover_map,
    reach,
    unseen,
    verify_cover_map,
)

KINDS = ("dfa", "moore", "mealy")


@dataclass(frozen=True)
class Fsm:
    """A complete deterministic machine.

    delta[q][a] is the successor of state q on symbol index a.
    For dfa/moore, output[q] is the state output (0/1 for dfa).
    For mealy, output[q][a] is the output of the transition (q, a).
    """

    kind: str
    alphabet: Alphabet
    n_states: int
    initial: int
    delta: tuple[tuple[int, ...], ...]
    output: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown machine kind {self.kind!r}")
        if self.n_states <= 0:
            raise ValueError("machine needs at least one state")
        if not 0 <= self.initial < self.n_states:
            raise ValueError("initial state out of range")
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        if len(self.delta) != self.n_states:
            raise ValueError("transition table must have one row per state")
        for q, row in enumerate(self.delta):
            if len(row) != len(self.alphabet):
                raise ValueError(f"state {q}: transition row must cover the whole alphabet")
            for t in row:
                if not 0 <= t < self.n_states:
                    raise ValueError(f"state {q}: transition target {t} out of range")
        if self.kind == "mealy":
            out = tuple(tuple(row) for row in self.output)
            if len(out) != self.n_states or any(len(r) != len(self.alphabet) for r in out):
                raise ValueError("mealy output table must be state x symbol")
        else:
            out = tuple(self.output)
            if len(out) != self.n_states:
                raise ValueError("output table must have one entry per state")
            if self.kind == "dfa" and any(v not in (0, 1) for v in out):
                raise ValueError("dfa outputs must be 0 or 1")
        object.__setattr__(self, "output", out)

    def signature(self, q: int):
        """The observation a single state offers: its output (row, for mealy)."""
        return self.output[q]


def step(m: Fsm):
    """m's transition (q, a) -> delta[q][a], a closure over its table."""
    delta = m.delta
    return lambda q, a: delta[q][a]


def run(m: Fsm, w: Word) -> int:
    """State reached from the initial state after reading w."""
    return reduce(step(m), m.alphabet.check(w.syms), m.initial)


def lambda_star(m: Fsm, w: Word) -> tuple:
    """Traditional Mealy output word: one output per consumed symbol."""
    if m.kind != "mealy":
        raise ValueError("lambda_star is only defined for mealy machines")
    syms = m.alphabet.check(w.syms)
    states = accumulate(syms, step(m), initial=m.initial)
    return tuple(m.output[q][a] for q, a in zip(states, syms))


def _access(m: Fsm) -> dict[int, Word]:
    """Shortest access word of every reachable state, in BFS order (alphabet
    order breaks ties)."""
    delta = m.delta
    found = reach(m.initial, lambda q: enumerate(delta[q]), unseen())
    return {q: Word(w) for w, q in found}


def _refine_partition(m: Fsm, states: list[int]) -> dict[int, int]:
    """Coarsest signature-respecting bisimulation on the given states.

    Returns a block id per state; two states get the same id iff they are
    language-equivalent.
    """
    sigs = {}
    for q in states:
        sigs.setdefault(m.signature(q), len(sigs))
    block = {q: sigs[m.signature(q)] for q in states}
    while True:
        keys = {}
        new_block = {}
        for q in states:
            key = (block[q], tuple(block[m.delta[q][a]] for a in range(len(m.alphabet))))
            new_block[q] = keys.setdefault(key, len(keys))
        if len(keys) == len(set(block.values())):
            return new_block
        block = new_block


def minimize(m: Fsm) -> Fsm:
    """Equivalent machine with no unreachable and no duplicate states.

    States of the result are numbered in BFS order from the initial
    state, so minimization is idempotent on the nose.
    """
    states = list(_access(m))
    block = _refine_partition(m, states)
    # representative per block, in BFS discovery order
    rep_order = []
    seen_blocks = set()
    for q in states:
        if block[q] not in seen_blocks:
            seen_blocks.add(block[q])
            rep_order.append(q)
    renum = {block[q]: i for i, q in enumerate(rep_order)}
    n = len(rep_order)
    delta = tuple(
        tuple(renum[block[m.delta[q][a]]] for a in range(len(m.alphabet))) for q in rep_order
    )
    output = tuple(m.output[q] for q in rep_order)
    return Fsm(m.kind, m.alphabet, n, renum[block[m.initial]], delta, output)


def is_minimal(m: Fsm) -> bool:
    """No two distinct states are language-equivalent (reachability not required)."""
    block = _refine_partition(m, list(range(m.n_states)))
    return len(set(block.values())) == m.n_states


def state_cover(m: Fsm) -> Suite:
    """Shortest access word for every state, BFS with alphabet-order tie-breaking."""
    access = _access(m)
    missing = [q for q in range(m.n_states) if q not in access]
    if missing:
        raise NotMinimalError(f"state {missing[0]} is unreachable; no state cover exists")
    return Suite(m.alphabet, tuple(access.values()))


def is_char_set(m: Fsm, w: Suite) -> bool:
    """Does w distinguish every pair of states that any word distinguishes?
    Equivalent states agree on w, so it does iff w's outputs make as many blocks."""
    if not w.contains_epsilon():
        raise ValueError("a characterization set must contain the empty word")
    move = step(m)
    keys = {tuple(m.signature(reduce(move, v.syms, q)) for v in w) for q in range(m.n_states)}
    return len(keys) == len(set(_refine_partition(m, list(range(m.n_states))).values()))


def char_set(m: Fsm) -> Suite:
    """A characterization set for a minimal machine.

    Grows {epsilon} by single-letter extensions of already chosen words,
    taking at each step the length-lex least word that splits a block of
    the current partition. At most n-1 words are added; the result is not
    guaranteed minimum-size.

    Each chosen word keeps its column of outputs, one per state. The
    column of a.v at q is v's column at delta(q, a), so no word is run
    again. Untried extensions wait in a heap in length-lex order. The
    partition only gets finer, and an extension that splits no block of
    it cannot split a finer one, so each extension is tried once. If the
    heap runs empty while blocks still merge states, those states are
    equivalent: that is where a machine that is not minimal is detected.
    """
    n, delta = m.n_states, m.delta
    ids: dict = {}
    cols = [[ids.setdefault(m.signature(q), len(ids)) for q in range(n)]]
    block, n_blocks = cols[0], len(ids)
    chosen: list[Word] = [EPSILON]
    # (length, symbols, first symbol, index of the rest in chosen); sorted, so a heap
    heap = [(1, (a,), a, 0) for a in range(len(m.alphabet))]
    while n_blocks < n:
        if not heap:
            raise NotMinimalError(
                "machine is not minimal; a characterization set cannot separate equivalent states"
            )
        size, syms, a, v = heapq.heappop(heap)
        col = [cols[v][row[a]] for row in delta]
        blocks: dict = {}
        refined = [blocks.setdefault(key, len(blocks)) for key in zip(block, col)]
        if len(blocks) == n_blocks:
            continue
        block, n_blocks = refined, len(blocks)
        cols.append(col)
        chosen.append(Word(syms))
        for b in range(len(m.alphabet)):
            heapq.heappush(heap, (size + 1, (b,) + syms, b, len(chosen) - 1))
    return Suite(m.alphabet, tuple(chosen))


def _cover_args(m: Fsm) -> tuple:
    """The cover map's view of m: a word's extensions (a, w.a), its state, its text."""
    letters = [(a, Word((a,))) for a in range(len(m.alphabet))]
    render = partial(Word.render, alphabet=m.alphabet)
    return (lambda w: [(a, w + x) for a, x in letters]), partial(run, m), render


def verify_weak_cover(m: Fsm, p: Suite, delta_p: Mapping[tuple[Word, int], Word]) -> bool:
    """Check the weak state cover square: delta_p(w, a) reaches the state of w.a."""
    return verify_cover_map(p, *_cover_args(m), delta_p)


def weak_cover_map(m: Fsm, p: Suite) -> dict[tuple[Word, int], Word]:
    """A delta_p witnessing that p is a weak state cover, if one exists:
    each (w, a) maps to the first word of p reaching the state of w.a."""
    return cover_map(p, *_cover_args(m))


def equiv(a: Fsm, b: Fsm) -> EquivResult:
    """Exact equivalence: a breadth-first walk over pairs of states stops at
    the first pair whose outputs differ; its word is length-lex least."""
    check_fit(a, b)
    da, db = a.delta, b.delta
    found = reach((a.initial, b.initial), lambda p: enumerate(zip(da[p[0]], db[p[1]])), unseen())
    for w, (qa, qb) in found:
        if a.signature(qa) != b.signature(qb):
            return EquivResult(False, Word(w))
    return EquivResult(True, None)
