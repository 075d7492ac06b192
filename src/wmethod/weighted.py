"""Weighted automata over exact rationals.

A machine of dimension d has an input weight vector s0, one d x d
transition matrix per symbol (column = source state, row = target), and
an output weight vector f. The value of a word w is f^T M(w) s0 where
M(eps) is the identity and M(wa) = M(a) M(w).

Everything here is exact. Weights are `fractions.Fraction`; the kernels
run on an integer form of each machine (every part scaled by the least
common multiple of its denominators) and build `Fraction`s only for the
values and vectors they return. A machine read from a file is made
straight from its integer form (`_int_form`, `Wa._of`), and its
`Fraction` weights are formed only when something asks for them. Ranks
and coordinates come from one fraction-free Gaussian elimination, on
which minimization runs too.
The forward basis and the equivalence oracle are breadth-first walks
(`words.reach`) that admit a word when its state, or its pair of states,
is independent of those of all smaller words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .words import (
    EPSILON,
    Alphabet,
    EquivResult,
    Suite,
    Word,
    check_fit,
    concat_suites,
    execute,
    reach,
    words_upto,
)

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
IVec = tuple[int, ...]
IState = tuple[IVec, int]  # integer vector v and denominator d, standing for v / d
Entries = dict[int, tuple[int, int]]  # index -> p/q as (p, q), in lowest terms with q > 0


def _vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def _mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(_vec(r) for r in rows)


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _scaled(entries: Iterable[Fraction]) -> tuple[IVec, int]:
    """Integers n and the least d > 0 with n_i = x_i * d for every entry x_i."""
    xs = tuple(entries)
    d = lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (d // x.denominator) for x in xs), d


def _times(entries: Entries, n: int, d: int) -> IVec:
    """d times the length-n vector holding the entries, and 0 elsewhere."""
    v = [0] * n
    for i, (p, q) in entries.items():
        v[i] = p * (d // q)
    return tuple(v)


class _Echelon:
    """Incremental row echelon form over the integers, for rank tracking.

    Rank is invariant under scaling, so elimination is fraction-free: a
    row is reduced by cross-multiplying with a pivot row, and every row
    is kept primitive by dividing out the gcd of its entries.
    """

    def __init__(self):
        self.rows: list[IVec] = []
        self.pivots: list[int] = []

    def reduce(self, v: Sequence[int]) -> Sequence[int]:
        """A nonzero multiple of v minus a combination of the rows, zero at
        every pivot."""
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                r = row[p]
                v = [r * x - c * y for x, y in zip(v, row)]
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        return v

    def add(self, v: Sequence[int]) -> bool:
        """Insert v; True iff it was independent of the rows so far."""
        v = self.reduce(v)
        for p, x in enumerate(v):
            if x:
                self.rows.append(tuple(v))
                self.pivots.append(p)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Wa:
    """A weighted automaton over the rationals.

    The constructor checks the shapes and takes every weight as a
    `Fraction`. A machine made by `_of` holds its integer form instead;
    its s0, mats and f are formed from it when first asked for (equality,
    hash, repr and serialization ask for them), equal to the constructor's.
    """

    alphabet: Alphabet
    dim: int
    s0: Vec
    mats: tuple[Mat, ...]
    f: Vec
    kind = "wa"  # not a field: the one kind of the family

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

    @classmethod
    def _of(cls, alphabet: Alphabet, dim: int, z: "_IntForm") -> "Wa":
        """The machine of integer form z, taken without checking. The caller
        guarantees that z has dimension dim, one matrix per symbol, and
        least common denominators d0, dm and df, as `_ints` makes them."""
        a = cls.__new__(cls)
        object.__setattr__(a, "alphabet", alphabet)
        object.__setattr__(a, "dim", dim)
        object.__setattr__(a, "_ints", z)
        return a

    def __getattr__(self, name: str):  # only for attributes not set
        z = self.__dict__.get("_ints")
        if z is None or name not in ("s0", "mats", "f"):
            raise AttributeError(name)
        object.__setattr__(self, "s0", _fractions((z.s0, z.d0)))
        object.__setattr__(self, "f", _fractions((z.f, z.df)))
        mats = tuple(tuple(_fractions((r, d)) for r in m) for m, d in zip(z.rows, z.dm))
        object.__setattr__(self, "mats", mats)
        return getattr(self, name)

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


def _int_form(dim: int, s0: Entries, mats: Sequence[dict[int, Entries]], f: Entries) -> _IntForm:
    """The integer form, as `Wa._ints` makes it, of the machine whose
    weights are given where they may be nonzero: s0 and f by state, and
    mats[a][dst][src] for src -> dst on symbol a. The rows of a matrix
    that hold no weight share one zero row."""
    lcd = lambda entries: lcm(*(q for _, q in entries))
    d0, df = lcd(s0.values()), lcd(f.values())
    zero = (0,) * dim
    rows, dm = [], []
    for m in mats:
        d = lcd(w for row in m.values() for w in row.values())
        rows.append(tuple(_times(m[t], dim, d) if t in m else zero for t in range(dim)))
        dm.append(d)
    return _IntForm(_times(s0, dim, d0), d0, tuple(rows), tuple(dm), _times(f, dim, df), df)


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


def _basis(found: list[tuple[Word, IState]]) -> VecSpaceBasis:
    return VecSpaceBasis(tuple(_fractions(st) for _, st in found), tuple(w for w, _ in found))


def forward_basis(a: Wa) -> VecSpaceBasis:
    """Basis of span{M(w) s0} with length-lex minimal, prefix-closed witnesses."""
    z = a._ints
    letters = range(len(a.alphabet))
    ech = _Echelon()
    found = reach(
        (z.s0, z.d0),
        lambda state: ((s, z.step(state, s)) for s in letters),
        lambda state: ech.add(state[0]),
    )
    return _basis([(Word(w), state) for w, state in found])


def backward_basis(a: Wa) -> VecSpaceBasis:
    """Basis of the observation row space span{f^T M(w)}.

    Witnesses are length-lex minimal and found in length-lex order: each
    layer extends the last layer's words v to bv, letter b outermost. The
    row of bv is the row of v times M(b), so witnesses are suffix-closed.
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
    return _basis(found)


def is_state_cover_wa(a: Wa, p: Suite) -> bool:
    """Does {M(w) s0 | w in p} span the whole state space (and eps in p)?
    The words are stepped only until the rank reaches dim."""
    if not p.contains_epsilon():
        return False
    z = a._ints
    ech = _Echelon()
    for v, _ in execute(p.plan, (z.s0, z.d0), z.step):
        if ech.add(v) and ech.rank == a.dim:
            return True
    return ech.rank == a.dim


def is_char_set_wa(a: Wa, w: Suite) -> bool:
    """Do the observation rows of w span the full observation row space?"""
    if not w.contains_epsilon():
        return False
    z = a._ints
    ech = _Echelon()
    for v in w:
        ech.add(reduce(z.step_back, reversed(v.syms), (z.f, z.df))[0])
    return ech.rank == backward_basis(a).rank


def is_minimal_wa(a: Wa) -> bool:
    """Is s -> f^T M(.) s injective, i.e. the observation space full?"""
    return backward_basis(a).rank == a.dim


def _restrict(a: Wa, basis: Sequence[Vec]) -> Wa:
    """a on the span of `basis`, an invariant subspace holding s0, in the
    coordinates of `basis`.

    Each basis vector b_j is scaled to integers b_j d_j, and the rows
    [b_j d_j | e_j | 0] go into one echelon form. A state v / d of the
    span reduces [v | 0 | -1] to a multiple of [0 | -mu | -1] with
    v = sum_j mu_j b_j d_j, so its j-th coordinate is mu_j d_j / d.
    """
    z = a._ints
    k = len(basis)
    ech = _Echelon()
    states = [_scaled(b) for b in basis]
    for j, (v, _) in enumerate(states):
        ech.add(v + tuple(int(i == j) for i in range(k)) + (0,))
    pad = (0,) * k + (-1,)

    def coords(state: IState) -> Vec:
        v, d = state
        r = ech.reduce(v + pad)
        return tuple(Fraction(x * dj, r[-1] * d) for x, (_, dj) in zip(r[len(v) : -1], states))

    return Wa(
        a.alphabet,
        k,
        coords((z.s0, z.d0)),
        tuple(
            tuple(zip(*[coords(z.step(s, x)) for s in states])) for x in range(len(a.alphabet))
        ),
        tuple(z.value(s) for s in states),
    )


def _transpose(a: Wa) -> Wa:
    """The machine with s0 and f swapped and every matrix transposed; its
    value on w is a's value on w reversed."""
    return Wa(a.alphabet, a.dim, a.f, tuple(tuple(zip(*m)) for m in a.mats), a.s0)


def minimize_wa(a: Wa) -> Wa:
    """Conjugate reduction: restrict to the reachable subspace, then
    quotient by the observation kernel. The quotient is the transpose of
    the transposed machine restricted to the observation row space. The
    result has the dimension of the Hankel factorization and recognizes
    the same series."""
    red = _restrict(a, forward_basis(a).vectors)
    return _transpose(_restrict(_transpose(red), backward_basis(red).vectors))


def equiv_wa(a: Wa, b: Wa) -> EquivResult:
    """Exact series equality; counterexample is the length-lex least word
    on which the values differ (length < dim(a) + dim(b)).

    The walk runs over pairs of integer states (va, da), (vb, db) and
    admits a pair when va db ++ vb da, which is da db times the pair of
    states side by side, is independent of those of smaller words. That
    is enough: the difference of the values is linear in that vector, so
    the least word on which they differ is one that is admitted.
    """
    check_fit(a, b)
    za, zb = a._ints, b._ints
    letters = range(len(a.alphabet))
    ech = _Echelon()

    def moves(pair: tuple[IState, IState]):
        sa, sb = pair
        return ((s, (za.step(sa, s), zb.step(sb, s))) for s in letters)

    def new(pair: tuple[IState, IState]) -> bool:
        (va, da), (vb, db) = pair
        return ech.add([x * db for x in va] + [x * da for x in vb])

    for w, ((va, da), (vb, db)) in reach(((za.s0, za.d0), (zb.s0, zb.d0)), moves, new):
        if _idot(za.f, va) * zb.df * db != _idot(zb.f, vb) * za.df * da:
            return EquivResult(False, Word(w))
    return EquivResult(True, None)


def in_fault_domain_wa(impl: Wa, p: Suite, k: int) -> bool:
    """Membership in the spanning fault domain: P . Sigma^{<=k} is a state
    cover for the implementation."""
    return is_state_cover_wa(impl, concat_suites(p, words_upto(p.alphabet, k)))
