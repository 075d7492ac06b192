"""Deterministic register automata over equality atoms, with orbit suites.

The alphabet is the infinite set of atoms, compared by equality only. A
machine is given by locations, each carrying a fixed number of registers
(always holding pairwise distinct atoms), and exactly one rule per
location and guard: the input either equals one of the registers or is
fresh. This is the standard concrete presentation of orbit-finite
automata for the equality symmetry; acceptance is invariant under
permuting atoms, so a test suite only needs one representative per orbit
of data words. An orbit of words is represented by its equality pattern:
positions labelled 1, 2, ... by first occurrence (the empty pattern for
the empty word). A suite of patterns is a `words.Suite` (`OrbitSuite`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count, permutations
from operator import attrgetter, itemgetter
from typing import Iterator, Mapping, Sequence

from .words import (
    EPS_TOKEN,
    EquivResult,
    NotMinimalError,
    Suite,
    Verdict,
    check_w_inputs,
    cover_map,
    execute,
    reach,
    sequences_upto,
    unseen,
    verify_cover_map,
)

Atom = int

X_SOURCE = 0  # assignment source standing for the input letter


class OracleLimitError(RuntimeError):
    """Bounded exploration of the equivalence oracle was exceeded."""


@dataclass(frozen=True)
class SymbolicWord:
    """One orbit of data words: the equality pattern of its positions."""

    pattern: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pattern", tuple(self.pattern))
        seen: list[int] = []
        for c in self.pattern:
            if c == len(seen) + 1:
                seen.append(c)
            elif not 1 <= c <= len(seen):
                raise ValueError(
                    f"pattern {self.pattern} is not canonical: classes must be "
                    "numbered by first occurrence"
                )

    @classmethod
    def from_atoms(cls, atoms: Sequence[Atom]) -> "SymbolicWord":
        """The orbit of a concrete data word."""
        relabel: dict[Atom, int] = {}
        pat = []
        for x in atoms:
            if x not in relabel:
                relabel[x] = len(relabel) + 1
            pat.append(relabel[x])
        return cls(tuple(pat))

    @classmethod
    def _of(cls, pattern: tuple[int, ...]) -> "SymbolicWord":
        """A pattern canonical by construction, taken without checking."""
        s = cls.__new__(cls)
        object.__setattr__(s, "pattern", pattern)
        return s

    @property
    def num_classes(self) -> int:
        return max(self.pattern, default=0)

    def __len__(self) -> int:
        return len(self.pattern)

    def __lt__(self, other: "SymbolicWord") -> bool:
        return (len(self.pattern), self.pattern) < (len(other.pattern), other.pattern)

    def render(self) -> str:
        return " ".join(map(str, self.pattern)) if self.pattern else EPS_TOKEN


EPS_PATTERN = SymbolicWord(())


class OrbitSuite(Suite):
    """A deduplicated set of orbit patterns in canonical order: a `Suite`
    whose items are SymbolicWords, over the atoms rather than a finite
    alphabet (`alphabet` is None)."""

    _seq = attrgetter("pattern")
    _word = SymbolicWord

    def __init__(self, patterns=(), texts=None, planned=None):
        super().__init__(None, patterns, texts, planned)

    def _check(self, seqs: list[tuple]) -> None:
        pass  # every SymbolicWord checked its pattern when it was made

    _render = staticmethod(SymbolicWord.render)

    @property
    def patterns(self) -> tuple[SymbolicWord, ...]:
        return self.words


@dataclass(frozen=True)
class Rna:
    """A deterministic register automaton over equality atoms.

    rules[loc] has exactly arity(loc)+1 entries: entry g < arity is the
    rule fired when the input equals register g+1, the last entry is the
    fresh-input rule. Each rule is (target, assignment); assignment lists
    one source per target register, either X_SOURCE (the input letter) or
    a 1-based source register index. Each rule is checked by `check_rule`,
    which the file parser also uses to report a bad rule at its line.
    """

    locations: tuple[tuple[str, int], ...]
    initial: int
    accepting: frozenset[int]
    rules: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "locations", tuple((str(n), int(r)) for n, r in self.locations))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(
            self,
            "rules",
            tuple(tuple((t, tuple(asg)) for t, asg in rs) for rs in self.rules),
        )
        n = len(self.locations)
        if not n:
            raise ValueError("machine needs at least one location")
        names = [nm for nm, _ in self.locations]
        if len(set(names)) != n:
            raise ValueError("location names must be distinct")
        if not 0 <= self.initial < n:
            raise ValueError("initial location out of range")
        if self.locations[self.initial][1] != 0:
            raise ValueError("initial location must have no registers")
        if any(not 0 <= q < n for q in self.accepting):
            raise ValueError("accepting location out of range")
        if len(self.rules) != n:
            raise ValueError("need one rule group per location")
        for loc, (name, arity) in enumerate(self.locations):
            group = self.rules[loc]
            if len(group) != arity + 1:
                raise ValueError(
                    f"location {name}: need {arity + 1} rules (one per register guard "
                    "plus fresh), got {0}".format(len(group))
                )
            for g, (target, asg) in enumerate(group):
                check_rule(self.locations, loc, g, target, asg)

    def arity(self, loc: int) -> int:
        return self.locations[loc][1]

    def loc_name(self, loc: int) -> str:
        return self.locations[loc][0]


def check_rule(locations, loc: int, guard: int, target: int, assignment) -> None:
    """Raise ValueError unless `loc`'s rule on `guard` (a 0-based register, or the arity
    for fresh) moves to a location and fills its registers with distinct atoms."""
    name, arity = locations[loc]
    if not 0 <= target < len(locations):
        raise ValueError(f"location {name}: rule target out of range")
    t_name, t_arity = locations[target]
    if len(assignment) != t_arity:
        raise ValueError(
            f"location {name}: assignment must fill all {t_arity} registers of {t_name}"
        )
    for s in assignment:
        if not 0 <= s <= arity:
            raise ValueError(f"location {name}: assignment source {s} invalid")
    # on guard "x == reg g+1" the input aliases that register
    aliased = [guard + 1 if s == X_SOURCE and guard < arity else s for s in assignment]
    if len(set(aliased)) != len(aliased):
        raise ValueError(f"location {name}: assignment would duplicate an atom in registers")


State = tuple[int, tuple[Atom, ...]]


def _step(a: Rna, loc: int, regs: tuple[Atom, ...], x: Atom) -> State:
    """The state after reading x at (loc, regs). The registers fill all
    of loc's arity, so the rule is the matching register's, else fresh."""
    target, asg = a.rules[loc][regs.index(x) if x in regs else len(regs)]
    return target, tuple([x if s == X_SOURCE else regs[s - 1] for s in asg])


class _Row(dict):
    """A state met in one run of `a`: maps each atom read from it to the
    successor's row, stepped on first use. `table` holds the run's rows by
    state, so `_step` runs once per distinct (state, atom) edge."""

    __slots__ = ("a", "state", "table")

    @classmethod
    def at(cls, a: Rna, state: State, table: dict) -> "_Row":
        row = table[state] = cls()
        row.a, row.state, row.table = a, state, table
        return row

    def __missing__(self, x: Atom) -> "_Row":
        nxt = _step(self.a, *self.state, x)
        if nxt not in self.table:
            _Row.at(self.a, nxt, self.table)
        self[x] = row = self.table[nxt]
        return row


def _run_from(a: Rna, state: State, atoms: Sequence[Atom]) -> State:
    loc, regs = state
    for x in atoms:
        loc, regs = _step(a, loc, regs, x)
    return loc, regs


def rna_run(a: Rna, atoms: Sequence[Atom]) -> State:
    """Deterministic run on a concrete data word; returns (location, registers)."""
    return _run_from(a, (a.initial, ()), atoms)


def rna_accepts(a: Rna, atoms: Sequence[Atom]) -> bool:
    loc, _ = rna_run(a, atoms)
    return loc in a.accepting


def instantiate(s: SymbolicWord) -> tuple[Atom, ...]:
    """Canonical representative of the orbit: class i becomes atom i."""
    return s.pattern


def symbolic_run(a: Rna, s: SymbolicWord) -> tuple[int, bool]:
    """Run on the canonical instance; by equivariance the outcome is the
    same for every instance of the orbit. Returns (location, accepting)."""
    loc, _ = rna_run(a, instantiate(s))
    return loc, loc in a.accepting


def _injective_merges(m: int, n: int) -> Iterator[dict[int, int]]:
    """All injective partial maps from classes 1..n into classes 1..m."""
    for size in range(min(m, n) + 1):
        for sub in combinations(range(1, n + 1), size):
            for img in permutations(range(1, m + 1), size):
                yield dict(zip(sub, img))


def _merged_tails(m: int, v: SymbolicWord) -> Iterator[tuple[int, ...]]:
    """v relabelled to follow a pattern with m classes, once per injective
    merge of its classes into those m.

    The classes of v left unmerged get m+1, m+2, ... in ascending order.
    v is canonical, so that is their first-occurrence order, and the
    tail appended to any canonical pattern with m classes is canonical.
    """
    n = v.num_classes
    for merge in _injective_merges(m, n):
        fresh = count(m + 1)
        label = [0] + [merge[c] if c in merge else next(fresh) for c in range(1, n + 1)]
        yield tuple(map(label.__getitem__, v.pattern))


def concat_orbit(a: OrbitSuite, b: OrbitSuite) -> OrbitSuite:
    """Orbit decomposition of {uv | u in a, v in b}.

    Concatenating two orbits does not give one orbit: every way of
    identifying classes of the second word with classes of the first
    (injectively, possibly not at all) yields a distinct orbit. The
    relabelled tails depend on u only through its number of classes.
    """
    out: set[tuple[int, ...]] = set()
    tails: dict[int, list[tuple[int, ...]]] = {}
    for u in a:
        m = u.num_classes
        if m not in tails:
            tails[m] = [t for v in b for t in _merged_tails(m, v)]
        out.update(map(u.pattern.__add__, tails[m]))
    return OrbitSuite(tuple(map(SymbolicWord._of, out)))


def patterns_upto(k: int) -> OrbitSuite:
    """All orbit patterns of length at most k: a pattern with m classes
    extends by each class 1..m and by the fresh class m+1."""
    pats = sequences_upto(k, lambda p: range(1, max(p, default=0) + 2))
    return OrbitSuite(tuple(map(SymbolicWord._of, pats)))


FRESH = None  # extension choice: a letter distinct from all classes of the pattern

Choice = int | None


def extension_choices(w: SymbolicWord) -> list[Choice]:
    """The possible orbits of one-letter extensions of w: equal to one of
    its classes, or fresh."""
    return [*range(1, w.num_classes + 1), FRESH]


def extend(w: SymbolicWord, c: Choice) -> SymbolicWord:
    x = c if c is not None else w.num_classes + 1
    return SymbolicWord(w.pattern + (x,))


def _extensions(w: SymbolicWord) -> list[tuple[Choice, SymbolicWord]]:
    return [(c, extend(w, c)) for c in extension_choices(w)]


def _cover_args(a: Rna) -> tuple:
    """The cover map's view of a: a pattern's extensions, the location of
    its canonical instance (the pattern itself), and its text. Registers
    hold distinct atoms, so the states at one location form one orbit."""
    return _extensions, lambda t: rna_run(a, t.pattern)[0], SymbolicWord.render


def verify_weak_cover_rna(
    a: Rna,
    p: OrbitSuite,
    delta_p: Mapping[tuple[SymbolicWord, Choice], SymbolicWord],
) -> bool:
    """Check that delta_p closes p under one-letter extension: delta_p(w, c)
    reaches the location of w extended with c."""
    return verify_cover_map(p, *_cover_args(a), delta_p)


def state_cover_rna(a: Rna) -> OrbitSuite:
    """Access patterns reaching every reachable location (BFS order).

    Since registers hold distinct atoms, the orbits of states coincide
    with locations: the walk admits a state at a new location. The result
    is prefix-closed and contains the empty pattern.
    """

    def moves(state: tuple[int, tuple[Atom, ...], Atom]):  # top + 1 is a fresh atom
        loc, regs, top = state
        for x in (*regs, top + 1):
            yield x, (*_step(a, loc, regs, x), max(top, x))

    found = reach((a.initial, (), 0), moves, unseen(itemgetter(0)))
    return OrbitSuite(tuple(SymbolicWord.from_atoms(w) for w, _ in found))


def weak_cover_map_rna(
    a: Rna, p: OrbitSuite
) -> dict[tuple[SymbolicWord, Choice], SymbolicWord]:
    """A delta_p witnessing that p is a weak state cover, if one exists."""
    return cover_map(p, *_cover_args(a))


def w_suite_rna(p: OrbitSuite, k: int, w: OrbitSuite) -> OrbitSuite:
    """Orbit version of the W test suite: P . A^{<=k+1} . W."""
    check_w_inputs(p, k, w)
    return concat_orbit(concat_orbit(p, patterns_upto(k + 1)), w)


def agree_on_rna(spec: Rna, impl: Rna, t: OrbitSuite) -> list[Verdict]:
    """One verdict per orbit pattern; by equivariance each verdict covers
    every concrete instance of its orbit."""
    return list(map(Verdict, t, suite_values_rna(spec, t), suite_values_rna(impl, t)))


def suite_values_rna(a: Rna, t: OrbitSuite) -> Iterator[bool]:
    """Acceptance of the canonical instance of every pattern, lazily, in
    suite order (see `symbolic_run`). The run steps `_Row`s of a table
    local to this call by dict lookup, so a canonical instance that meets
    a state and atom already met reuses the successor."""
    rows = execute(t.plan, _Row.at(a, (a.initial, ()), {}), dict.__getitem__)
    return (row.state[0] in a.accepting for row in rows)


def _pair_bfs(
    a: Rna,
    b: Rna,
    start_a: State,
    start_b: State,
    max_configs: int | None = None,
) -> tuple[bool, tuple[Atom, ...] | None]:
    """Symbolic bisimulation check between two concrete states.

    A breadth-first walk over pairs of runs admits a pair at a new
    configuration: the pair of locations plus the matching of registers
    holding equal atoms, which determines all future joint behavior.
    Returns (equivalent, distinguishing letters), the letters from the
    first configuration found whose acceptance differs. With
    `max_configs`, a verdict must come within that many configurations,
    counting the start, or OracleLimitError is raised.
    """

    def moves(cfg: tuple[State, State, Atom]):
        sa, sb, top = cfg
        for x in dict.fromkeys((*sa[1], *sb[1], top + 1)):
            yield x, (_step(a, *sa, x), _step(b, *sb, x), max(top, x))

    def key(cfg: tuple[State, State, Atom]):
        (la, ra), (lb, rb), _ = cfg
        match = ((i, j) for i, x in enumerate(ra) for j, y in enumerate(rb) if x == y)
        return la, lb, frozenset(match)

    top = max((*start_a[1], *start_b[1]), default=0)  # top + 1 is a fresh atom
    found = reach((start_a, start_b, top), moves, unseen(key))
    for n, (word, (sa, sb, _)) in enumerate(found, start=1):
        if max_configs is not None and n > max_configs:
            raise OracleLimitError(
                f"equivalence exploration exceeded {max_configs} configurations"
            )
        if (sa[0] in a.accepting) != (sb[0] in b.accepting):
            return False, word
    return True, None


def equiv_rna(a: Rna, b: Rna, max_configs: int | None = None) -> EquivResult:
    """Exact language equivalence; the counterexample is a shortest pattern."""
    eq, word = _pair_bfs(a, b, (a.initial, ()), (b.initial, ()), max_configs)
    if eq:
        return EquivResult(True, None)
    return EquivResult(False, SymbolicWord.from_atoms(word))


def _pair_configs(a: Rna) -> Iterator[tuple[State, State]]:
    """Canonical concrete representatives of all pairs of distinct states."""
    n = len(a.locations)
    for l1 in range(n):
        r1 = a.arity(l1)
        regs1 = tuple(range(1, r1 + 1))
        for l2 in range(l1, n):
            r2 = a.arity(l2)
            for merge in _injective_merges(r1, r2):
                regs2 = tuple(merge.get(j, r1 + j) for j in range(1, r2 + 1))
                if l1 == l2 and regs2 == regs1:
                    continue  # the identical state, not a pair
                yield (l1, regs1), (l2, regs2)


def is_minimal_rna(a: Rna) -> bool:
    """No two distinct states (any locations, any register overlap) are
    language-equivalent."""
    for sa, sb in _pair_configs(a):
        eq, _ = _pair_bfs(a, a, sa, sb)
        if eq:
            return False
    return True


def _w_distinguishes(a: Rna, sa: State, sb: State, w: OrbitSuite) -> bool:
    """Is some instance of a pattern of w over the pair's m distinct atoms
    accepted from one state and rejected from the other? In a merged tail,
    class c <= m is the c-th atom, and each class above m a fresh atom."""
    pool = list(dict.fromkeys((*sa[1], *sb[1])))
    m, top = len(pool), max(pool, default=0)
    for pat in w:
        atoms = [0, *pool, *range(top + 1, top + 1 + pat.num_classes)]
        for tail in _merged_tails(m, pat):
            word = [atoms[c] for c in tail]
            la, _ = _run_from(a, sa, word)
            lb, _ = _run_from(a, sb, word)
            if (la in a.accepting) != (lb in a.accepting):
                return True
    return False


def is_char_set_rna(a: Rna, w: OrbitSuite) -> bool:
    """Does w separate every pair of states that any data word separates?

    A pattern in w separates a pair if some instance of it over the pair's
    register atoms (plus fresh atoms) is accepted from one state and
    rejected from the other.
    """
    if not w.contains_epsilon():
        raise ValueError("a characterization set must contain the empty pattern")
    for sa, sb in _pair_configs(a):
        eq, _ = _pair_bfs(a, a, sa, sb)
        if not eq and not _w_distinguishes(a, sa, sb, w):
            return False
    return True


def char_set_rna(a: Rna) -> OrbitSuite:
    """A characterization suite for a minimal machine: the empty pattern
    plus, for every pair of distinct states, the orbit of a shortest word
    separating it. The first equivalent pair shows the machine is not minimal."""
    pats = {EPS_PATTERN}
    for sa, sb in _pair_configs(a):
        eq, word = _pair_bfs(a, a, sa, sb)
        if eq:
            raise NotMinimalError("machine is not minimal; equivalent states cannot be separated")
        pats.add(SymbolicWord.from_atoms(word))
    return OrbitSuite(tuple(pats))
