"""Deterministic finite-state machines: DFA, Moore, and Mealy.

One machine type covers all three kinds. A DFA is a Moore machine with
outputs 0/1; a Mealy machine attaches outputs to transitions instead of
states. The language value of a word is the output observed at the state
the word reaches: a single value for DFA/Moore, and for Mealy the whole
output row of the reached state (one output per input symbol, i.e. the
output of the last transition of every one-symbol extension).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .words import (
    EPSILON,
    Alphabet,
    EquivResult,
    NotMinimalError,
    Suite,
    Verdict,
    Word,
    execute,
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


def run(m: Fsm, w: Word) -> int:
    """State reached from the initial state after reading w."""
    return _run_from(m, m.initial, w)


def lang_value(m: Fsm, w: Word):
    """Language value of w: output at the reached state (output row for mealy)."""
    return m.signature(run(m, w))


def lambda_star(m: Fsm, w: Word) -> tuple:
    """Traditional Mealy output word: one output per consumed symbol."""
    if m.kind != "mealy":
        raise ValueError("lambda_star is only defined for mealy machines")
    q = m.initial
    outs = []
    for a in w.syms:
        outs.append(m.output[q][a])
        q = m.delta[q][a]
    return tuple(outs)


def _check_compatible(a: Fsm, b: Fsm):
    if a.kind != b.kind:
        raise ValueError(f"machine kinds differ: {a.kind} vs {b.kind}")
    if a.alphabet != b.alphabet:
        raise ValueError("machine alphabets differ")


def _reachable_states(m: Fsm) -> list[int]:
    """Reachable states in BFS order (alphabet order breaks ties)."""
    seen = [False] * m.n_states
    order = []
    queue = deque([m.initial])
    seen[m.initial] = True
    while queue:
        q = queue.popleft()
        order.append(q)
        for a in range(len(m.alphabet)):
            t = m.delta[q][a]
            if not seen[t]:
                seen[t] = True
                queue.append(t)
    return order


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
    reach = _reachable_states(m)
    block = _refine_partition(m, reach)
    # representative per block, in BFS discovery order
    rep_order = []
    seen_blocks = set()
    for q in reach:
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
    access: dict[int, Word] = {m.initial: EPSILON}
    queue = deque([m.initial])
    while queue:
        q = queue.popleft()
        for a in range(len(m.alphabet)):
            t = m.delta[q][a]
            if t not in access:
                access[t] = access[q] + Word((a,))
                queue.append(t)
    missing = [q for q in range(m.n_states) if q not in access]
    if missing:
        raise NotMinimalError(f"state {missing[0]} is unreachable; no state cover exists")
    return Suite(m.alphabet, tuple(access.values()))


def is_char_set(m: Fsm, w: Suite) -> bool:
    """Does w distinguish every pair of states that any word distinguishes?"""
    if not w.contains_epsilon():
        raise ValueError("a characterization set must contain the empty word")
    full = _refine_partition(m, list(range(m.n_states)))
    by_w = {}
    for q in range(m.n_states):
        key = tuple(m.signature(_run_from(m, q, v)) for v in w)
        by_w.setdefault(key, set()).add(q)
    # w-equivalence must imply full equivalence
    for group in by_w.values():
        blocks = {full[q] for q in group}
        if len(blocks) > 1:
            return False
    return True


def _run_from(m: Fsm, q: int, w: Word) -> int:
    for a in w.syms:
        q = m.delta[q][a]
    return q


def char_set(m: Fsm) -> Suite:
    """A characterization set for a minimal machine.

    Grows {epsilon} by single-letter extensions of already chosen words,
    taking at each step the length-lex least word that splits a block of
    the current partition. At most n-1 words are added; the result is not
    guaranteed minimum-size.
    """
    if not is_minimal(m):
        raise NotMinimalError(
            "machine is not minimal; a characterization set cannot separate equivalent states"
        )
    states = list(range(m.n_states))
    chosen: list[Word] = [EPSILON]

    def partition(words: list[Word]) -> dict[int, tuple]:
        return {q: tuple(m.signature(_run_from(m, q, v)) for v in words) for q in states}

    part = partition(chosen)
    while len(set(part.values())) < m.n_states:
        candidates = sorted(
            (Word((a,)) + v for a in range(len(m.alphabet)) for v in chosen),
            key=lambda u: (len(u.syms), u.syms),
        )
        for cand in candidates:
            if cand in chosen:
                continue
            # does cand split some current block?
            split = False
            groups: dict[tuple, object] = {}
            for q in states:
                sig = m.signature(_run_from(m, q, cand))
                prev = groups.setdefault(part[q], sig)
                if prev != sig:
                    split = True
                    break
            if split:
                chosen.append(cand)
                part = partition(chosen)
                break
        else:  # pragma: no cover - impossible for minimal machines
            raise AssertionError("no splitting word found for a minimal machine")
    return Suite(m.alphabet, tuple(chosen))


def verify_weak_cover(m: Fsm, p: Suite, delta_p: Mapping[tuple[Word, int], Word]) -> bool:
    """Check the weak state cover square: delta_p(w, a) reaches the state of w.a."""
    if not p.contains_epsilon():
        raise ValueError("a weak state cover must contain the empty word")
    for w in p:
        for a in range(len(m.alphabet)):
            try:
                v = delta_p[(w, a)]
            except KeyError:
                raise ValueError(
                    f"delta_p is not total: missing entry for ({w.render(m.alphabet)}, "
                    f"{m.alphabet.symbols[a]})"
                ) from None
            if v not in p:
                raise ValueError(
                    f"delta_p value {v.render(m.alphabet)} is outside the cover"
                )
            if run(m, v) != run(m, w + Word((a,))):
                return False
    return True


def weak_cover_map(m: Fsm, p: Suite) -> dict[tuple[Word, int], Word]:
    """A delta_p witnessing that p is a weak state cover, if one exists.

    Picks for every (w, a) the first word of p reaching the same state as
    w.a; raises if some extension leaves the states covered by p.
    """
    reached = {}
    for w in p:
        reached.setdefault(run(m, w), w)
    table = {}
    for w in p:
        for a in range(len(m.alphabet)):
            q = run(m, w + Word((a,)))
            if q not in reached:
                raise ValueError(f"state {q} reached by an extension of the cover is not covered")
            table[(w, a)] = reached[q]
    return table


def suite_values(m: Fsm, t: Suite) -> list:
    """The language value of every suite word, in suite order."""
    delta = m.delta
    return [m.signature(q) for q in execute(t.plan, m.initial, lambda q, a: delta[q][a])]


def agree_on(spec: Fsm, impl: Fsm, t: Suite) -> list[Verdict]:
    """One verdict per suite word, in suite order."""
    _check_compatible(spec, impl)
    if t.alphabet != spec.alphabet:
        raise ValueError("suite alphabet differs from the machines' alphabet")
    return [
        Verdict(w, s, i, s == i)
        for w, s, i in zip(t, suite_values(spec, t), suite_values(impl, t))
    ]


def equiv(a: Fsm, b: Fsm) -> EquivResult:
    """Exact equivalence via product BFS; counterexample is length-lex least."""
    _check_compatible(a, b)
    start = (a.initial, b.initial)
    access: dict[tuple[int, int], Word] = {start: EPSILON}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        qa, qb = pair
        if a.signature(qa) != b.signature(qb):
            return EquivResult(False, access[pair])
        for sym in range(len(a.alphabet)):
            nxt = (a.delta[qa][sym], b.delta[qb][sym])
            if nxt not in access:
                access[nxt] = access[pair] + Word((sym,))
                queue.append(nxt)
    return EquivResult(True, None)
