"""Shared machine builders and random generators for the test suite."""

from __future__ import annotations

import random
import re
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from operator import mul
from pathlib import Path

from wmethod import (
    EPS_TOKEN,
    EPSILON,
    Alphabet,
    EquivResult,
    Fsm,
    NotMinimalError,
    Rna,
    Suite,
    VecSpaceBasis,
    Wa,
    Word,
    backward_basis,
    forward_basis,
    is_minimal,
    lang_value,
    patterns_upto,
    run,
    symbolic_run,
    wa_lang,
    words_upto,
)
from wmethod import fsm as F
from wmethod import nominal as N
from wmethod import weighted as W
from wmethod.fsm import _run_from

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name: str):
    from wmethod.formats import parse_machine

    path = FIXTURES / name
    return parse_machine(path.read_text(), str(path))


def chain_dfa(n: int) -> str:
    """A dfa file: q -a-> q+1 mod n, q -b-> 0, only state 0 accepting; minimal."""
    trans = "".join(f"trans {q} a {(q + 1) % n}\ntrans {q} b 0\n" for q in range(n))
    return f"kind dfa\nalphabet a b\nstates {n}\ninitial 0\naccepting 0\n{trans}"


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
    ab = Alphabet(tuple("abc"[:syms]))

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


def reference_concat_orbit(a: N.OrbitSuite, b: N.OrbitSuite) -> N.OrbitSuite:
    """Orbit concatenation that renumbers every merged word by first
    occurrence with `SymbolicWord.from_atoms`. The reference for
    `wmethod.nominal.concat_orbit`, which numbers the classes directly."""
    out = set()
    for u in a:
        m = u.num_classes
        for v in b:
            for merge in N._injective_merges(m, v.num_classes):
                tail = tuple(merge.get(c, m + c) for c in v.pattern)
                out.add(N.SymbolicWord.from_atoms(u.pattern + tail))
    return N.OrbitSuite(tuple(out))


def reference_pair_configs(a: Rna):
    """Every pair of distinct states, with register overlaps enumerated by
    positions. The reference for `wmethod.nominal._pair_configs`, which
    takes the overlaps from `_injective_merges`."""
    n = len(a.locations)
    for l1 in range(n):
        r1 = a.arity(l1)
        regs1 = tuple(range(1, r1 + 1))
        for l2 in range(l1, n):
            r2 = a.arity(l2)
            for size in range(min(r1, r2) + 1):
                for positions2 in combinations(range(r2), size):
                    for positions1 in permutations(range(r1), size):
                        match = dict(zip(positions2, positions1))
                        regs2 = tuple(
                            regs1[match[j]] if j in match else r1 + 1 + j for j in range(r2)
                        )
                        if l1 != l2 or regs2 != regs1:
                            yield (l1, regs1), (l2, regs2)


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


def _coords(basis, v):
    """Coordinates of v in a linearly independent basis (must lie in its span)."""
    if not basis:
        if any(x != 0 for x in v):
            raise ValueError("vector outside the span of an empty basis")
        return ()
    n = len(v)
    k = len(basis)
    # augmented system: columns are basis vectors
    aug = [[basis[j][i] for j in range(k)] + [v[i]] for i in range(n)]
    piv_rows = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if pr is None:
            raise ValueError("basis vectors are not independent")
        aug[r], aug[pr] = aug[pr], aug[r]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c] / aug[r][c]
                for j in range(c, k + 1):
                    aug[i][j] -= f * aug[r][j]
        piv_rows.append(r)
        r += 1
    for i in range(r, n):
        if aug[i][k] != 0:
            raise ValueError("vector outside the span of the basis")
    return tuple(aug[piv_rows[c]][k] / aug[piv_rows[c]][c] for c in range(k))


def _mat_vec(m, v):
    return tuple(sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in m)


def _row_mat(r, m):
    n = len(r)
    return tuple(sum((r[i] * m[i][j] for i in range(n)), Fraction(0)) for j in range(n))


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def reference_minimize_wa(a: Wa) -> Wa:
    """Conjugate reduction by Fraction Gauss-Jordan: the coordinates of
    every image in the forward basis, then of every row image in the
    backward basis of the reduced machine (solving R M = M' R row by row).
    The reference for `wmethod.weighted.minimize_wa`, which restricts on
    the integer elimination."""
    fb = forward_basis(a)
    if fb.rank == 0:
        return Wa(a.alphabet, 0, (), tuple(() for _ in a.alphabet), ())
    basis = list(fb.vectors)
    k = len(basis)
    red_mats = []
    for m in a.mats:
        cols = [_coords(basis, _mat_vec(m, b)) for b in basis]
        red_mats.append(tuple(tuple(cols[j][i] for j in range(k)) for i in range(k)))
    red = Wa(
        a.alphabet,
        k,
        _coords(basis, a.s0),
        tuple(red_mats),
        tuple(_dot(a.f, b) for b in basis),
    )
    bb = backward_basis(red)
    if bb.rank == 0:
        return Wa(a.alphabet, 0, (), tuple(() for _ in a.alphabet), ())
    rows = list(bb.vectors)
    t = len(rows)
    quo_mats = []
    for m in red.mats:
        coeffs = [_coords(rows, _row_mat(r, m)) for r in rows]
        quo_mats.append(tuple(tuple(coeffs[i][j] for j in range(t)) for i in range(t)))
    s0 = tuple(_dot(r, red.s0) for r in rows)
    f = _coords(rows, red.f)
    return Wa(a.alphabet, t, s0, tuple(quo_mats), f)


def reference_parse_suite(text: str, alphabet: Alphabet, filename: str = "<string>") -> Suite:
    """The line-by-line suite reader: every token of every line looked up by name."""
    from wmethod.formats import ParseError

    words, lines = [], []
    for no, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0].startswith("#"):
            continue
        if toks == [EPS_TOKEN]:
            words.append(EPSILON)
            lines.append(EPS_TOKEN)
            continue
        try:
            words.append(alphabet.word(*toks))
        except ValueError as e:
            raise ParseError(filename, no, str(e)) from e
        lines.append(" ".join(toks))
    return Suite(alphabet, tuple(words), tuple(lines))


def plain_numeral(tok: str) -> bool:
    """Is tok the empty pattern's token or a class written as it renders?"""
    return tok == "-eps-" or re.fullmatch("0|[1-9][0-9]*", tok) is not None


def reference_parse_wa(text: str) -> Wa:
    """A well-formed wa file read into dense `Fraction` matrices through the
    public constructor: every weight by Fraction(), every omitted entry 0."""
    dim, entries = None, {}
    for raw in text.splitlines():
        toks = raw.split()
        if not toks or toks[0].startswith("#"):
            continue
        if toks[0] == "alphabet":
            alphabet = Alphabet(tuple(toks[1:]))
        elif toks[0] == "dim":
            dim = int(toks[1])
        elif toks[0] in ("init", "final"):
            entries[toks[0], int(toks[1])] = Fraction(toks[2])
        elif toks[0] == "trans":
            src, a, dst = int(toks[1]), alphabet.index(toks[2]), int(toks[3])
            entries[a, dst, src] = Fraction(toks[4])
    qs = range(dim)
    mats = [
        [[entries.get((a, dst, src), 0) for src in qs] for dst in qs]
        for a in range(len(alphabet))
    ]
    vec = lambda d: [entries.get((d, q), 0) for q in qs]
    return Wa(alphabet, dim, vec("init"), mats, vec("final"))


def reference_parse_patterns(text: str, filename: str = "<string>") -> N.OrbitSuite:
    """The line-by-line pattern reader: every token of every line read by int().
    Unlike parse_patterns it takes any spelling int() does, such as `01` or `+1`."""
    from wmethod.formats import ParseError

    pats, lines = [], []
    for no, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0].startswith("#"):
            continue
        lines.append(" ".join(toks))
        if toks == [EPS_TOKEN]:
            pats.append(N.EPS_PATTERN)
            continue
        try:
            classes = tuple(map(int, toks))
        except ValueError:
            raise ParseError(filename, no, f"pattern classes must be integers: {toks}") from None
        try:
            pats.append(N.SymbolicWord(classes))
        except ValueError as e:
            raise ParseError(filename, no, str(e)) from e
    return N.OrbitSuite(tuple(pats), tuple(lines))


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


def reference_char_set(m: Fsm) -> Suite:
    """The greedy characterization set computed round by round: every round
    re-sorts all extensions of the chosen words and runs each one from
    every state. The reference for `wmethod.fsm.char_set`."""
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
        else:
            raise AssertionError("no splitting word found for a minimal machine")
    return Suite(m.alphabet, tuple(chosen))


def dfa_as_wa(m: Fsm) -> Wa:
    """A DFA as a weighted automaton with 0/1 weights: s0 marks the initial
    state, M(a) moves each state to its a-successor (row target, column
    source) and f marks the accepting states, so the value of a word is 1
    if the DFA accepts it and 0 otherwise."""
    if m.kind != "dfa":
        raise ValueError("only a dfa embeds as a 0/1-weighted automaton")
    states = range(m.n_states)
    mats = tuple(
        tuple(tuple(int(m.delta[src][a] == dst) for src in states) for dst in states)
        for a in range(len(m.alphabet))
    )
    return Wa(m.alphabet, m.n_states, tuple(int(q == m.initial) for q in states), mats, m.output)


def arity0_rna_as_dfa(a: Rna) -> Fsm:
    """An RNA whose locations all have arity 0 as the one-letter DFA it is:
    every input is fresh, so each location has one rule, on the letter x."""
    if any(a.arity(q) for q in range(len(a.locations))):
        raise ValueError("every location must have arity 0")
    n = len(a.locations)
    delta = tuple((a.rules[q][0][0],) for q in range(n))
    out = tuple(int(q in a.accepting) for q in range(n))
    return Fsm("dfa", Alphabet(("x",)), n, a.initial, delta, out)


# The hand-written breadth-first loops that `wmethod.words.reach` replaced,
# kept as references for differential tests.


def reference_access(m: Fsm) -> dict[int, Word]:
    """Shortest access word of every reachable state, in BFS order."""
    access: dict[int, Word] = {m.initial: EPSILON}
    queue = deque([m.initial])
    while queue:
        q = queue.popleft()
        for a in range(len(m.alphabet)):
            t = m.delta[q][a]
            if t not in access:
                access[t] = access[q] + Word((a,))
                queue.append(t)
    return access


def reference_equiv(a: Fsm, b: Fsm) -> EquivResult:
    """Equivalence by product BFS, each pair checked when it is dequeued."""
    start = (a.initial, b.initial)
    access = {start: EPSILON}
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


def reference_reach(z, n_syms: int):
    """(w, integer state of w), in length-lex order, for every word w whose
    state is independent of the states of all smaller words."""
    ech = W._Echelon()
    if not ech.add(z.s0):
        return
    queue = deque([(EPSILON, (z.s0, z.d0))])
    yield queue[0]
    while queue:
        w, state = queue.popleft()
        for s in range(n_syms):
            nxt = z.step(state, s)
            if ech.add(nxt[0]):
                queue.append((w + Word((s,)), nxt))
                yield queue[-1]


def reference_forward_basis(a: Wa) -> VecSpaceBasis:
    found = list(reference_reach(a._ints, len(a.alphabet)))
    return VecSpaceBasis(
        tuple(tuple(Fraction(x, d) for x in v) for _, (v, d) in found),
        tuple(w for w, _ in found),
    )


def reference_difference(a: Wa, b: Wa):
    """Integer form of the machine whose value is a's minus b's: the two
    state spaces side by side, each part brought to the lcm of the two
    machines' denominators."""
    za, zb = a._ints, b._ints
    pad_a, pad_b = (0,) * a.dim, (0,) * b.dim

    def side_by_side(u, du, v, dv, sign):
        d = lcm(du, dv)
        return tuple(x * (d // du) for x in u) + tuple(sign * x * (d // dv) for x in v), d

    rows, dm = [], []
    for ra, da, rb, db in zip(za.rows, za.dm, zb.rows, zb.dm):
        d = lcm(da, db)
        top = tuple(tuple(x * (d // da) for x in r) + pad_b for r in ra)
        bottom = tuple(pad_a + tuple(x * (d // db) for x in r) for r in rb)
        rows.append(top + bottom)
        dm.append(d)
    return W._IntForm(
        *side_by_side(za.s0, za.d0, zb.s0, zb.d0, 1),
        tuple(rows),
        tuple(dm),
        *side_by_side(za.f, za.df, zb.f, zb.df, -1),
    )


def reference_equiv_wa(a: Wa, b: Wa) -> EquivResult:
    """Series equality by saturating the reachable space of the difference machine."""
    z = reference_difference(a, b)
    for w, (v, _) in reference_reach(z, len(a.alphabet)):
        if sum(map(mul, z.f, v)):
            return EquivResult(False, w)
    return EquivResult(True, None)


def reference_state_cover_rna(a: Rna) -> N.OrbitSuite:
    """Access patterns of every reachable location, in BFS order."""
    seen = {a.initial}
    access: list[tuple[int, ...]] = [()]
    queue = deque([(a.initial, (), ())])
    while queue:
        loc, regs, word = queue.popleft()
        fresh = max(word, default=0) + 1
        for x in (*regs, fresh):
            nloc, nregs = N._step(a, loc, regs, x)
            if nloc not in seen:
                seen.add(nloc)
                access.append(word + (x,))
                queue.append((nloc, nregs, word + (x,)))
    return N.OrbitSuite(tuple(N.SymbolicWord.from_atoms(w) for w in access))


def reference_pair_bfs(a: Rna, b: Rna, start_a, start_b):
    """Symbolic bisimulation between two concrete states; each configuration
    is checked when it is dequeued. Returns (equivalent, distinguishing
    letters)."""

    def cfg_key(sa, sb):
        (la, ra), (lb, rb) = sa, sb
        match = frozenset((i, j) for i, x in enumerate(ra) for j, y in enumerate(rb) if x == y)
        return la, lb, match

    start_atoms = set(start_a[1]) | set(start_b[1])
    queue = deque([(start_a, start_b, ())])
    visited = {cfg_key(start_a, start_b)}
    while queue:
        sa, sb, word = queue.popleft()
        if (sa[0] in a.accepting) != (sb[0] in b.accepting):
            return False, word
        fresh = max(start_atoms | set(word), default=0) + 1
        letters = []
        for x in (*sa[1], *sb[1], fresh):
            if x not in letters:
                letters.append(x)
        for x in letters:
            na = N._step(a, *sa, x)
            nb = N._step(b, *sb, x)
            key = cfg_key(na, nb)
            if key not in visited:
                visited.add(key)
                queue.append((na, nb, word + (x,)))
    return True, None


def reference_concat_suites(a: Suite, b: Suite) -> Suite:
    """Pairwise concatenation as Word sums, rendered only when written."""
    if a.alphabet != b.alphabet:
        raise ValueError("cannot concatenate suites over different alphabets")
    return Suite(a.alphabet, tuple(u + v for u in a for v in b))


def reference_prefix_close(t: Suite) -> Suite:
    """Prefix closure as a set of symbol tuples, rendered only when written."""
    out: set[tuple[int, ...]] = set()
    for w in t:
        for n in range(len(w.syms), -1, -1):
            if w.syms[:n] in out:
                break
            out.add(w.syms[:n])
    return Suite(t.alphabet, tuple(map(Word, out)))


# The weak-cover map and check, the char-set checks and the backward basis
# as they were written per family before `words.cover_map`,
# `words.verify_cover_map`, the merge enumeration of `nominal._merged_tails`
# and the block count of `fsm.is_char_set` replaced them; kept as the
# references of tests/test_differential.py.


def reference_verify_weak_cover(m: Fsm, p: Suite, delta_p) -> bool:
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


def reference_weak_cover_map(m: Fsm, p: Suite) -> dict:
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


def reference_is_char_set(m: Fsm, w: Suite) -> bool:
    """Does w distinguish every pair of states that any word distinguishes?"""
    if not w.contains_epsilon():
        raise ValueError("a characterization set must contain the empty word")
    full = F._refine_partition(m, list(range(m.n_states)))
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


def reference_verify_weak_cover_rna(a: Rna, p: N.OrbitSuite, delta_p) -> bool:
    """Check that delta_p closes p under one-letter extension.

    For every pattern w in p and extension choice c, the pattern
    delta_p(w, c) must reach the state reached by w extended with c up
    to a renaming of atoms, that is, the same location: registers hold
    pairwise distinct atoms, so the states at one location form one orbit.
    """
    if not p.contains_epsilon():
        raise ValueError("a weak state cover must contain the empty pattern")
    for w in p:
        for c in N.extension_choices(w):
            try:
                t = delta_p[(w, c)]
            except KeyError:
                raise ValueError(
                    f"delta_p is not total: missing entry for ({w.render()}, "
                    f"{'fresh' if c is None else c})"
                ) from None
            if t not in p:
                raise ValueError(f"delta_p value {t.render()} is outside the cover")
            ext = N.extend(w, c)
            if N.rna_run(a, N.instantiate(ext))[0] != N.rna_run(a, N.instantiate(t))[0]:
                return False
    return True


def reference_weak_cover_map_rna(a: Rna, p: N.OrbitSuite) -> dict:
    """A delta_p witnessing that p is a weak state cover, if one exists."""
    reached: dict = {}
    for t in p:
        loc, _ = N.rna_run(a, N.instantiate(t))
        reached.setdefault(loc, t)
    table = {}
    for w in p:
        for c in N.extension_choices(w):
            loc, _ = N.rna_run(a, N.instantiate(N.extend(w, c)))
            if loc not in reached:
                raise ValueError(
                    f"location {a.loc_name(loc)} reached by an extension of the cover "
                    "is not covered"
                )
            table[(w, c)] = reached[loc]
    return table


def _reference_instantiations(pat, pool):
    """All concrete instances of pat whose atoms come from pool or are fresh.

    Fresh atoms are drawn canonically above the pool, so the enumeration
    is finite and covers one representative per relevant orbit.
    """
    k = pat.num_classes
    fresh_base = max(pool, default=0)

    def assign(cls: int, chosen: dict, used: set):
        if cls > k:
            yield tuple(chosen[c] for c in pat.pattern)
            return
        options = [x for x in pool if x not in used]
        options.append(fresh_base + cls)  # distinct fresh atom per class
        for x in options:
            chosen[cls] = x
            used.add(x)
            yield from assign(cls + 1, chosen, used)
            used.discard(x)
            del chosen[cls]

    yield from assign(1, {}, set())


def _reference_w_distinguishes(a: Rna, sa, sb, w: N.OrbitSuite) -> bool:
    pool = []
    for x in (*sa[1], *sb[1]):
        if x not in pool:
            pool.append(x)
    for pat in w:
        for word in _reference_instantiations(pat, pool):
            la, _ = N._run_from(a, sa, word)
            lb, _ = N._run_from(a, sb, word)
            if (la in a.accepting) != (lb in a.accepting):
                return True
    return False


def reference_is_char_set_rna(a: Rna, w: N.OrbitSuite) -> bool:
    """Does w separate every pair of states that any data word separates?

    A pattern in w separates a pair if some instance of it over the pair's
    register atoms (plus fresh atoms) is accepted from one state and
    rejected from the other.
    """
    if not w.contains_epsilon():
        raise ValueError("a characterization set must contain the empty pattern")
    for sa, sb in N._pair_configs(a):
        eq, _ = N._pair_bfs(a, a, sa, sb)
        if not eq and not _reference_w_distinguishes(a, sa, sb, w):
            return False
    return True


def reference_backward_basis(a: Wa) -> VecSpaceBasis:
    """Basis of the observation row space span{f^T M(w)}, with the witnesses
    sorted length-lexicographically after the layer loop."""
    z = a._ints
    ech = W._Echelon()
    found: list = []
    if ech.add(z.f):
        found.append((EPSILON, (z.f, z.df)))
    layer = list(found)
    while layer:
        nxt: list = []
        for s in range(len(a.alphabet)):
            for w, state in layer:
                row = z.step_back(state, s)
                if ech.add(row[0]):
                    nxt.append((Word((s,)) + w, row))
        found += nxt
        layer = nxt
    found.sort(key=lambda e: (len(e[0].syms), e[0].syms))
    return W._basis(found)
