"""Shared machine builders and random generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from wmethod import (
    Alphabet,
    EquivResult,
    Fsm,
    Rna,
    Wa,
    lang_value,
    patterns_upto,
    symbolic_run,
    wa_lang,
    words_upto,
)
from wmethod import nominal as N

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name: str):
    from wmethod.formats import parse_machine

    path = FIXTURES / name
    return parse_machine(path.read_text(), str(path))


def random_fsm(rng: random.Random, max_states=6, max_syms=3, kind="dfa", syms=None) -> Fsm:
    n = rng.randint(1, max_states)
    syms = syms if syms is not None else rng.randint(1, max_syms)
    ab = Alphabet(tuple("abc"[:syms]))
    delta = tuple(tuple(rng.randrange(n) for _ in range(syms)) for _ in range(n))
    if kind == "dfa":
        out = tuple(rng.randrange(2) for _ in range(n))
    elif kind == "moore":
        out = tuple(rng.choice("xyz") for _ in range(n))
    else:
        out = tuple(tuple(rng.choice("xy") for _ in range(syms)) for _ in range(n))
    return Fsm(kind, ab, n, 0, delta, out)


def random_minimal_fsm(rng: random.Random, max_states=6, max_syms=3, kind="dfa") -> Fsm:
    from wmethod import minimize

    while True:
        m = minimize(random_fsm(rng, max_states, max_syms, kind))
        if m.n_states >= 2:
            return m


def random_wa(rng: random.Random, max_dim=4, syms=2, entries=(-2, -1, 0, 0, 1, 2)) -> Wa:
    dim = rng.randint(1, max_dim)
    ab = Alphabet(tuple("ab"[:syms]))

    def e():
        v = Fraction(rng.choice(entries))
        if rng.random() < 0.2:
            v /= 2
        return v

    mats = tuple(
        tuple(tuple(e() for _ in range(dim)) for _ in range(dim)) for _ in range(syms)
    )
    s0 = tuple(e() for _ in range(dim))
    f = tuple(e() for _ in range(dim))
    return Wa(ab, dim, s0, mats, f)


def random_minimal_wa(rng: random.Random, max_dim=4, syms=2) -> Wa:
    from wmethod import minimize_wa

    while True:
        m = minimize_wa(random_wa(rng, max_dim, syms))
        if m.dim >= 1:
            return m


def random_rna(rng: random.Random, max_locs=3, max_arity=1) -> Rna:
    n = rng.randint(1, max_locs)
    arities = [0] + [rng.randint(0, max_arity) for _ in range(n - 1)]
    locs = tuple((f"l{i}", arities[i]) for i in range(n))
    rules = []
    for i in range(n):
        r = arities[i]
        group = []
        for g in range(r + 1):
            sources = [N.X_SOURCE] + list(range(1, r + 1))
            if g < r:
                sources.remove(g + 1)  # input aliases that register
            feasible = [t for t in range(n) if arities[t] <= len(sources)]
            target = rng.choice(feasible)
            asg = tuple(rng.sample(sources, arities[target]))
            group.append((target, asg))
        rules.append(tuple(group))
    acc = frozenset(i for i in range(n) if rng.random() < 0.5)
    return Rna(locs, 0, acc, tuple(rules))


def random_minimal_rna(rng: random.Random, max_locs=3, max_arity=1) -> Rna:
    from wmethod import is_minimal_rna

    while True:
        m = random_rna(rng, max_locs, max_arity)
        if is_minimal_rna(m):
            return m


def fraction_rank(vectors) -> int:
    """Rank by Gaussian elimination over Fractions: the reference for the
    integer elimination in `wmethod.weighted`."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            c = rows[r][col] / rows[rank][col]
            rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def fraction_state(a: Wa, w) -> tuple[Fraction, ...]:
    """M(w) s0 by Fraction matrix-vector products."""
    v = a.s0
    for s in w.syms:
        v = tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a.mats[s])
    return v


def fraction_row(a: Wa, w) -> tuple[Fraction, ...]:
    """f^T M(w) by Fraction vector-matrix products."""
    r = a.f
    for s in reversed(w.syms):
        m = a.mats[s]
        r = tuple(sum((r[i] * m[i][j] for i in range(a.dim)), Fraction(0)) for j in range(a.dim))
    return r


def fraction_value(a: Wa, w) -> Fraction:
    return sum((x * y for x, y in zip(a.f, fraction_state(a, w))), Fraction(0))


def brute_force_equiv(a: Fsm, b: Fsm, max_len: int) -> EquivResult:
    """Compare language values on every word of length <= max_len."""
    if a.kind != b.kind or a.alphabet != b.alphabet:
        raise ValueError("machines are not comparable")
    for w in words_upto(a.alphabet, max_len):
        if lang_value(a, w) != lang_value(b, w):
            return EquivResult(False, w)
    return EquivResult(True, None)


def brute_force_equiv_wa(a: Wa, b: Wa, max_len: int) -> EquivResult:
    """Compare values on every word of length <= max_len."""
    if a.alphabet != b.alphabet:
        raise ValueError("machine alphabets differ")
    for w in words_upto(a.alphabet, max_len):
        if wa_lang(a, w) != wa_lang(b, w):
            return EquivResult(False, w)
    return EquivResult(True, None)


def brute_force_equiv_rna(a: Rna, b: Rna, max_len: int) -> EquivResult:
    """Compare acceptance on every orbit pattern of length <= max_len."""
    for s in patterns_upto(max_len):
        if symbolic_run(a, s)[1] != symbolic_run(b, s)[1]:
            return EquivResult(False, s)
    return EquivResult(True, None)
