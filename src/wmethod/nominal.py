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
the empty word).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterator, Mapping, Sequence

from .words import EquivResult, NotMinimalError, Plan, Verdict, execute, prefix_plan

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

    @property
    def num_classes(self) -> int:
        return max(self.pattern, default=0)

    def __len__(self) -> int:
        return len(self.pattern)

    def __lt__(self, other: "SymbolicWord") -> bool:
        return (len(self.pattern), self.pattern) < (len(other.pattern), other.pattern)

    def render(self) -> str:
        return " ".join(str(c) for c in self.pattern) if self.pattern else "-eps-"


EPS_PATTERN = SymbolicWord(())


@dataclass(frozen=True)
class OrbitSuite:
    """A deduplicated set of orbit patterns in canonical order."""

    patterns: tuple[SymbolicWord, ...] = ()

    def __post_init__(self):
        canon = sorted(set(self.patterns), key=lambda s: (len(s.pattern), s.pattern))
        object.__setattr__(self, "patterns", tuple(canon))

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[SymbolicWord]:
        return iter(self.patterns)

    @cached_property
    def _member_set(self) -> frozenset[SymbolicWord]:
        return frozenset(self.patterns)

    def __contains__(self, s: SymbolicWord) -> bool:
        return s in self._member_set

    def contains_epsilon(self) -> bool:
        return EPS_PATTERN in self._member_set

    @cached_property
    def plan(self) -> Plan:
        """The prefix-sharing execution plan of the canonical instances."""
        return prefix_plan([s.pattern for s in self.patterns])


@dataclass(frozen=True)
class Rna:
    """A deterministic register automaton over equality atoms.

    rules[loc] has exactly arity(loc)+1 entries: entry g < arity is the
    rule fired when the input equals register g+1, the last entry is the
    fresh-input rule. Each rule is (target, assignment); assignment lists
    one source per target register, either X_SOURCE (the input letter) or
    a 1-based source register index.
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
                if not 0 <= target < n:
                    raise ValueError(f"location {name}: rule target out of range")
                t_arity = self.locations[target][1]
                if len(asg) != t_arity:
                    raise ValueError(
                        f"location {name}: assignment must fill all {t_arity} registers "
                        f"of {self.locations[target][0]}"
                    )
                for s in asg:
                    if not 0 <= s <= arity:
                        raise ValueError(f"location {name}: assignment source {s} invalid")
                # on guard "x == reg g+1" the input aliases that register
                aliased = [g + 1 if s == X_SOURCE and g < arity else s for s in asg]
                if len(set(aliased)) != len(aliased):
                    raise ValueError(
                        f"location {name}: assignment would duplicate an atom in registers"
                    )

    def arity(self, loc: int) -> int:
        return self.locations[loc][1]

    def loc_name(self, loc: int) -> str:
        return self.locations[loc][0]

    def loc_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.locations):
            if n == name:
                return i
        raise ValueError(f"unknown location {name!r}")


State = tuple[int, tuple[Atom, ...]]


def _step(a: Rna, loc: int, regs: tuple[Atom, ...], x: Atom) -> State:
    arity = a.arity(loc)
    guard = arity  # fresh unless the input matches a register
    for i, v in enumerate(regs):
        if v == x:
            guard = i
            break
    target, asg = a.rules[loc][guard]
    new_regs = tuple(x if s == X_SOURCE else regs[s - 1] for s in asg)
    return target, new_regs


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


def concat_orbit(a: OrbitSuite, b: OrbitSuite) -> OrbitSuite:
    """Orbit decomposition of {uv | u in a, v in b}.

    Concatenating two orbits does not give one orbit: every way of
    identifying classes of the second word with classes of the first
    (injectively, possibly not at all) yields a distinct orbit.
    """
    out: set[SymbolicWord] = set()
    for u in a:
        m = u.num_classes
        for v in b:
            n = v.num_classes
            for merge in _injective_merges(m, n):
                tail = tuple(merge.get(c, m + c) for c in v.pattern)
                out.add(SymbolicWord.from_atoms(u.pattern + tail))
    return OrbitSuite(tuple(out))


def patterns_upto(k: int) -> OrbitSuite:
    """All orbit patterns of length at most k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    acc = [EPS_PATTERN]
    layer: list[tuple[int, ...]] = [()]
    for _ in range(k):
        nxt = []
        for p in layer:
            top = max(p, default=0)
            for c in range(1, top + 2):
                nxt.append(p + (c,))
        acc.extend(SymbolicWord(p) for p in nxt)
        layer = nxt
    return OrbitSuite(tuple(acc))


FRESH = None  # extension choice: a letter distinct from all classes of the pattern

Choice = int | None


def extension_choices(w: SymbolicWord) -> list[Choice]:
    """The possible orbits of one-letter extensions of w: equal to one of
    its classes, or fresh."""
    return [*range(1, w.num_classes + 1), FRESH]


def extend(w: SymbolicWord, c: Choice) -> SymbolicWord:
    x = c if c is not None else w.num_classes + 1
    return SymbolicWord(w.pattern + (x,))


def verify_weak_cover_rna(
    a: Rna,
    p: OrbitSuite,
    delta_p: Mapping[tuple[SymbolicWord, Choice], SymbolicWord],
) -> bool:
    """Check that delta_p closes p under one-letter extension.

    For every pattern w in p and extension choice c, the pattern
    delta_p(w, c) must reach the state reached by w extended with c: the
    same location, with registers matchable to the concrete register
    atoms (registers hold pairwise distinct atoms, so a location match
    plus the forced register renaming is exactly state equality on some
    instance of the target orbit).
    """
    if not p.contains_epsilon():
        raise ValueError("a weak state cover must contain the empty pattern")
    for w in p:
        for c in extension_choices(w):
            try:
                t = delta_p[(w, c)]
            except KeyError:
                raise ValueError(
                    f"delta_p is not total: missing entry for ({w.render()}, "
                    f"{'fresh' if c is None else c})"
                ) from None
            if t not in p:
                raise ValueError(f"delta_p value {t.render()} is outside the cover")
            ext = extend(w, c)
            loc_a, regs_a = rna_run(a, instantiate(ext))
            loc_b, regs_b = rna_run(a, instantiate(t))
            if loc_a != loc_b:
                return False
            # forced register renaming: class at register j of the target
            # run must map to the atom at register j of the extended run
            theta: dict[int, Atom] = {}
            used: set[Atom] = set()
            ok = True
            for cls, atom in zip(regs_b, regs_a):
                if theta.get(cls, atom) != atom or (cls not in theta and atom in used):
                    ok = False
                    break
                theta[cls] = atom
                used.add(atom)
            if not ok:
                return False
    return True


def state_cover_rna(a: Rna) -> OrbitSuite:
    """Access patterns reaching every reachable location (BFS order).

    Since registers hold distinct atoms, the orbits of states coincide
    with locations; the result is prefix-closed and contains the empty
    pattern.
    """
    seen = {a.initial}
    access: list[tuple[Atom, ...]] = [()]
    queue: deque[tuple[int, tuple[Atom, ...], tuple[Atom, ...]]] = deque()
    queue.append((a.initial, (), ()))
    while queue:
        loc, regs, word = queue.popleft()
        fresh = max(word, default=0) + 1
        for x in (*regs, fresh):
            nloc, nregs = _step(a, loc, regs, x)
            if nloc not in seen:
                seen.add(nloc)
                access.append(word + (x,))
                queue.append((nloc, nregs, word + (x,)))
    return OrbitSuite(tuple(SymbolicWord.from_atoms(w) for w in access))


def weak_cover_map_rna(
    a: Rna, p: OrbitSuite
) -> dict[tuple[SymbolicWord, Choice], SymbolicWord]:
    """A delta_p witnessing that p is a weak state cover, if one exists."""
    reached: dict[int, SymbolicWord] = {}
    for t in p:
        loc, _ = rna_run(a, instantiate(t))
        reached.setdefault(loc, t)
    table = {}
    for w in p:
        for c in extension_choices(w):
            loc, _ = rna_run(a, instantiate(extend(w, c)))
            if loc not in reached:
                raise ValueError(
                    f"location {a.loc_name(loc)} reached by an extension of the cover "
                    "is not covered"
                )
            table[(w, c)] = reached[loc]
    return table


def w_suite_rna(p: OrbitSuite, k: int, w: OrbitSuite) -> OrbitSuite:
    """Orbit version of the W test suite: P . A^{<=k+1} . W."""
    if not p.contains_epsilon():
        raise ValueError("P must contain the empty pattern")
    if not w.contains_epsilon():
        raise ValueError("W must contain the empty pattern")
    return concat_orbit(concat_orbit(p, patterns_upto(k + 1)), w)


def agree_on_rna(spec: Rna, impl: Rna, t: OrbitSuite) -> list[Verdict]:
    """One verdict per orbit pattern; by equivariance each verdict covers
    every concrete instance of its orbit."""
    return [
        Verdict(s, acc_s, acc_i, acc_s == acc_i)
        for s, acc_s, acc_i in zip(t, suite_values_rna(spec, t), suite_values_rna(impl, t))
    ]


def suite_values_rna(a: Rna, t: OrbitSuite) -> list[bool]:
    """Acceptance of the canonical instance of every pattern (see `symbolic_run`)."""
    states = execute(t.plan, (a.initial, ()), lambda st, x: _step(a, st[0], st[1], x))
    return [loc in a.accepting for loc, _ in states]


def _pair_bfs(
    a: Rna,
    b: Rna,
    start_a: State,
    start_b: State,
    max_configs: int | None = None,
) -> tuple[bool, tuple[Atom, ...] | None]:
    """Symbolic bisimulation check between two concrete states.

    Explores pairs of runs; a configuration is the pair of locations plus
    the matching of registers holding equal atoms, which determines all
    future joint behavior. Returns (equivalent, distinguishing letters).
    """

    def cfg_key(sa: State, sb: State):
        (la, ra), (lb, rb) = sa, sb
        match = frozenset(
            (i, j) for i, x in enumerate(ra) for j, y in enumerate(rb) if x == y
        )
        return la, lb, match

    start_atoms = set(start_a[1]) | set(start_b[1])
    queue: deque[tuple[State, State, tuple[Atom, ...]]] = deque()
    queue.append((start_a, start_b, ()))
    visited = {cfg_key(start_a, start_b)}
    while queue:
        sa, sb, word = queue.popleft()
        if (sa[0] in a.accepting) != (sb[0] in b.accepting):
            return False, word
        if max_configs is not None and len(visited) > max_configs:
            raise OracleLimitError(
                f"equivalence exploration exceeded {max_configs} configurations"
            )
        fresh = max(start_atoms | set(word), default=0) + 1
        letters = []
        for x in (*sa[1], *sb[1], fresh):
            if x not in letters:
                letters.append(x)
        for x in letters:
            na = _step(a, *sa, x)
            nb = _step(b, *sb, x)
            key = cfg_key(na, nb)
            if key not in visited:
                visited.add(key)
                queue.append((na, nb, word + (x,)))
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
            for size in range(min(r1, r2) + 1):
                for positions2 in combinations(range(r2), size):
                    for positions1 in permutations(range(r1), size):
                        match = dict(zip(positions2, positions1))
                        regs2 = tuple(
                            regs1[match[j]] if j in match else r1 + 1 + j
                            for j in range(r2)
                        )
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


def _instantiations(pat: SymbolicWord, pool: Sequence[Atom]) -> Iterator[tuple[Atom, ...]]:
    """All concrete instances of pat whose atoms come from pool or are fresh.

    Fresh atoms are drawn canonically above the pool, so the enumeration
    is finite and covers one representative per relevant orbit.
    """
    k = pat.num_classes
    fresh_base = max(pool, default=0)

    def assign(cls: int, chosen: dict[int, Atom], used: set[Atom]):
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


def _w_distinguishes(a: Rna, sa: State, sb: State, w: OrbitSuite) -> bool:
    pool = []
    for x in (*sa[1], *sb[1]):
        if x not in pool:
            pool.append(x)
    for pat in w:
        for word in _instantiations(pat, pool):
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
    separating it."""
    if not is_minimal_rna(a):
        raise NotMinimalError("machine is not minimal; equivalent states cannot be separated")
    pats = {EPS_PATTERN}
    for sa, sb in _pair_configs(a):
        eq, word = _pair_bfs(a, a, sa, sb)
        if eq:  # pragma: no cover - excluded by minimality
            raise AssertionError("equivalent pair in a minimal machine")
        pats.add(SymbolicWord.from_atoms(word))
    return OrbitSuite(tuple(pats))
