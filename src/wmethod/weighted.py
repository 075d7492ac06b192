"""Weighted automata over exact rationals.

A machine of dimension d has an input weight vector s0, one d x d
transition matrix per symbol (column = source state, row = target), and
an output weight vector f. The value of a word w is f^T M(w) s0 where
M(eps) is the identity and M(wa) = M(a) M(w).

Everything here is exact. Weights are `fractions.Fraction`; the kernels
run on an integer form of each machine (every part scaled by the least
common multiple of its denominators) and build `Fraction`s only for the
values and vectors they return. Ranks come from fraction-free Gaussian
elimination, and equivalence is decided by saturating the reachable
subspace of a difference machine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .words import (
    EPSILON,
    Alphabet,
    EquivResult,
    Suite,
    Verdict,
    Word,
    concat_suites,
    execute,
    words_upto,
)

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
IVec = tuple[int, ...]
IState = tuple[IVec, int]  # integer vector v and denominator d, standing for v / d

ZERO = Fraction(0)


def _vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def _mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(_vec(r) for r in rows)


def _mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in m)


def _row_mat(r: Vec, m: Mat) -> Vec:
    n = len(r)
    return tuple(sum((r[i] * m[i][j] for i in range(n)), ZERO) for j in range(n))


def _dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _scaled(entries: Iterable[Fraction]) -> tuple[IVec, int]:
    """Integers n and the least d > 0 with n_i = x_i * d for every entry x_i."""
    xs = tuple(entries)
    d = lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (d // x.denominator) for x in xs), d


class _Echelon:
    """Incremental row echelon form over the integers, for rank tracking.

    Rank is invariant under scaling, so elimination is fraction-free: a
    row is reduced by cross-multiplying with a pivot row, and every row
    is kept primitive by dividing out the gcd of its entries.
    """

    def __init__(self):
        self.rows: list[IVec] = []
        self.pivots: list[int] = []

    def add(self, v: Sequence[int]) -> bool:
        """Insert v; True iff it was independent of the rows so far."""
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                r = row[p]
                v = [r * x - c * y for x, y in zip(v, row)]
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        for p, x in enumerate(v):
            if x:
                self.rows.append(tuple(v))
                self.pivots.append(p)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def _coords(basis: Sequence[Vec], v: Vec) -> Vec:
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


@dataclass(frozen=True)
class Wa:
    """A weighted automaton over the rationals."""

    alphabet: Alphabet
    dim: int
    s0: Vec
    mats: tuple[Mat, ...]
    f: Vec

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        object.__setattr__(self, "s0", _vec(self.s0))
        object.__setattr__(self, "f", _vec(self.f))
        object.__setattr__(self, "mats", tuple(_mat(m) for m in self.mats))
        if len(self.s0) != self.dim or len(self.f) != self.dim:
            raise ValueError("weight vectors must have length dim")
        if len(self.mats) != len(self.alphabet):
            raise ValueError("one transition matrix per alphabet symbol required")
        for m in self.mats:
            if len(m) != self.dim or any(len(row) != self.dim for row in m):
                raise ValueError("transition matrices must be dim x dim")

    @cached_property
    def _ints(self) -> "_IntForm":
        rows, dm = [], []
        for m in self.mats:
            flat, d = _scaled(x for row in m for x in row)
            rows.append(tuple(flat[i * self.dim : (i + 1) * self.dim] for i in range(self.dim)))
            dm.append(d)
        return _IntForm(*_scaled(self.s0), tuple(rows), tuple(dm), *_scaled(self.f))


class _IntForm:
    """A weighted automaton as integers: s0 * d0, M_a * d_a (by rows) and
    f * d_f, each d the least common denominator of its part.

    A forward state (v, d) stands for M(w) s0 = v / d; a backward state
    (r, d) for f^T M(w) = r / d. (A plain class: a dataclass would add a
    millisecond to every import of the package.)
    """

    def __init__(
        self,
        s0: IVec,
        d0: int,
        rows: tuple[tuple[IVec, ...], ...],
        dm: tuple[int, ...],
        f: IVec,
        df: int,
    ):
        self.s0, self.d0, self.rows, self.dm, self.f, self.df = s0, d0, rows, dm, f, df

    @cached_property
    def cols(self) -> tuple[tuple[IVec, ...], ...]:
        return tuple(tuple(zip(*m)) for m in self.rows)

    def step(self, state: IState, a: int) -> IState:
        """The state of w.a from the state of w."""
        v, d = state
        return tuple(_idot(row, v) for row in self.rows[a]), d * self.dm[a]

    def step_back(self, state: IState, a: int) -> IState:
        """The backward state of a.w from the backward state of w."""
        r, d = state
        return tuple(_idot(r, col) for col in self.cols[a]), d * self.dm[a]

    def value(self, state: IState) -> Fraction:
        v, d = state
        return Fraction(_idot(self.f, v), self.df * d)


def _fractions(state: IState) -> Vec:
    v, d = state
    return tuple(Fraction(x, d) for x in v)


@dataclass(frozen=True)
class VecSpaceBasis:
    """Independent vectors with the words that produced them."""

    vectors: tuple[Vec, ...]
    witnesses: tuple[Word, ...]

    def __post_init__(self):
        if len(self.vectors) != len(self.witnesses):
            raise ValueError("vectors and witnesses must be parallel")

    @property
    def rank(self) -> int:
        return len(self.vectors)


def wa_lang(a: Wa, w: Word) -> Fraction:
    """f^T M(w) s0, computed exactly."""
    for s in w.syms:
        if not 0 <= s < len(a.alphabet):
            raise ValueError(f"symbol index {s} outside the alphabet")
    z = a._ints
    state = (z.s0, z.d0)
    for s in w.syms:
        state = z.step(state, s)
    return z.value(state)


def _basis(found: list[tuple[Word, IState]]) -> VecSpaceBasis:
    return VecSpaceBasis(tuple(_fractions(st) for _, st in found), tuple(w for w, _ in found))


def forward_basis(a: Wa) -> VecSpaceBasis:
    """Basis of span{M(w) s0} with length-lex minimal, prefix-closed witnesses."""
    z = a._ints
    ech = _Echelon()
    found: list[tuple[Word, IState]] = []
    if ech.add(z.s0):
        found.append((EPSILON, (z.s0, z.d0)))
    queue = deque(found)
    while queue:
        w, state = queue.popleft()
        for s in range(len(a.alphabet)):
            nxt = z.step(state, s)
            if ech.add(nxt[0]):
                found.append((w + Word((s,)), nxt))
                queue.append(found[-1])
    return _basis(found)


def backward_basis(a: Wa) -> VecSpaceBasis:
    """Basis of the observation row space span{f^T M(w)}.

    Witnesses are length-lex minimal; note that extending a witness w to
    bw corresponds to multiplying its row by M(b) on the right, so the
    witness set is closed under removing the first letter.
    """
    z = a._ints
    ech = _Echelon()
    found: list[tuple[Word, IState]] = []
    if ech.add(z.f):
        found.append((EPSILON, (z.f, z.df)))
    layer = list(found)
    while layer:
        nxt: list[tuple[Word, IState]] = []
        for s in range(len(a.alphabet)):
            for w, state in layer:
                row = z.step_back(state, s)
                if ech.add(row[0]):
                    nxt.append((Word((s,)) + w, row))
        found += nxt
        layer = nxt
    found.sort(key=lambda e: (len(e[0].syms), e[0].syms))
    return _basis(found)


def is_state_cover_wa(a: Wa, p: Suite) -> bool:
    """Does {M(w) s0 | w in p} span the whole state space (and eps in p)?"""
    if not p.contains_epsilon():
        return False
    z = a._ints
    ech = _Echelon()
    for v, _ in execute(p.plan, (z.s0, z.d0), z.step):
        ech.add(v)
    return ech.rank == a.dim


def is_char_set_wa(a: Wa, w: Suite) -> bool:
    """Do the observation rows of w span the full observation row space?"""
    if not w.contains_epsilon():
        return False
    z = a._ints
    ech = _Echelon()
    for v in w:
        row = (z.f, z.df)
        for s in reversed(v.syms):
            row = z.step_back(row, s)
        ech.add(row[0])
    return ech.rank == backward_basis(a).rank


def is_minimal_wa(a: Wa) -> bool:
    """Is s -> f^T M(.) s injective, i.e. the observation space full?"""
    return backward_basis(a).rank == a.dim


def minimize_wa(a: Wa) -> Wa:
    """Conjugate reduction: restrict to the reachable subspace, then
    quotient by the observation kernel. The result has the dimension of
    the Hankel factorization and recognizes the same series."""
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
        # solve R M = M' R row by row
        coeffs = [_coords(rows, _row_mat(r, m)) for r in rows]
        quo_mats.append(tuple(tuple(coeffs[i][j] for j in range(t)) for i in range(t)))
    s0 = tuple(_dot(r, red.s0) for r in rows)
    f = _coords(rows, red.f)
    return Wa(a.alphabet, t, s0, tuple(quo_mats), f)


def _difference(a: Wa, b: Wa) -> _IntForm:
    """Integer form of the machine whose value is a's minus b's: the two
    state spaces side by side. Each part of both machines is brought to
    the lcm of their two denominators, so both blocks scale alike."""
    za, zb = a._ints, b._ints
    pad_a, pad_b = (0,) * a.dim, (0,) * b.dim

    def side_by_side(u: IVec, du: int, v: IVec, dv: int, sign: int) -> tuple[IVec, int]:
        d = lcm(du, dv)
        return tuple(x * (d // du) for x in u) + tuple(sign * x * (d // dv) for x in v), d

    rows, dm = [], []
    for ra, da, rb, db in zip(za.rows, za.dm, zb.rows, zb.dm):
        d = lcm(da, db)
        top = tuple(tuple(x * (d // da) for x in r) + pad_b for r in ra)
        bottom = tuple(pad_a + tuple(x * (d // db) for x in r) for r in rb)
        rows.append(top + bottom)
        dm.append(d)
    return _IntForm(
        *side_by_side(za.s0, za.d0, zb.s0, zb.d0, 1),
        tuple(rows),
        tuple(dm),
        *side_by_side(za.f, za.df, zb.f, zb.df, -1),
    )


def equiv_wa(a: Wa, b: Wa) -> EquivResult:
    """Exact series equality; counterexample is the length-lex least word
    on which the values differ (length < dim(a) + dim(b))."""
    if a.alphabet != b.alphabet:
        raise ValueError("machine alphabets differ")
    z = _difference(a, b)
    if _idot(z.f, z.s0):
        return EquivResult(False, EPSILON)
    ech = _Echelon()
    queue: deque[tuple[Word, IState]] = deque()
    if ech.add(z.s0):
        queue.append((EPSILON, (z.s0, z.d0)))
    while queue:
        w, state = queue.popleft()
        for s in range(len(a.alphabet)):
            nxt = z.step(state, s)
            nw = w + Word((s,))
            if _idot(z.f, nxt[0]):
                return EquivResult(False, nw)
            if ech.add(nxt[0]):
                queue.append((nw, nxt))
    return EquivResult(True, None)


def suite_values_wa(a: Wa, t: Suite) -> list[Fraction]:
    """The exact value of every suite word, in suite order."""
    z = a._ints
    return [z.value(state) for state in execute(t.plan, (z.s0, z.d0), z.step)]


def agree_on_wa(spec: Wa, impl: Wa, t: Suite) -> list[Verdict]:
    """One exact-value verdict per suite word."""
    if spec.alphabet != impl.alphabet:
        raise ValueError("machine alphabets differ")
    if t.alphabet != spec.alphabet:
        raise ValueError("suite alphabet differs from the machines' alphabet")
    return [
        Verdict(w, s, i, s == i)
        for w, s, i in zip(t, suite_values_wa(spec, t), suite_values_wa(impl, t))
    ]


def in_fault_domain_wa(impl: Wa, p: Suite, k: int) -> bool:
    """Membership in the spanning fault domain: P . Sigma^{<=k} is a state
    cover for the implementation."""
    return is_state_cover_wa(impl, concat_suites(p, words_upto(p.alphabet, k)))
