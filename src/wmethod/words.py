"""Words, alphabets, test suites, and run verdicts.

Suites are always kept deduplicated and in canonical order
(length-lexicographic by symbol index), so generated files are
diff-stable and set-level operations behave deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

EPS_TOKEN = "-eps-"


class NotMinimalError(ValueError):
    """Raised when an operation needs a canonical (reachable and minimal) machine."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of distinct input symbol names."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"symbol {name!r} not in alphabet {self.symbols}") from None

    def word(self, *names: str) -> Word:
        """Build a word from symbol names, e.g. ``ab.word('1', '1', 'c')``."""
        return Word(tuple(self.index(n) for n in names))


@dataclass(frozen=True)
class Word:
    """A finite sequence of symbol indices into some alphabet."""

    syms: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "syms", tuple(self.syms))

    def __len__(self) -> int:
        return len(self.syms)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.syms + other.syms)

    def __lt__(self, other: "Word") -> bool:
        # canonical length-lexicographic order
        return (len(self.syms), self.syms) < (len(other.syms), other.syms)

    def prefixes(self) -> Iterator["Word"]:
        for i in range(len(self.syms) + 1):
            yield Word(self.syms[:i])

    def render(self, alphabet: Alphabet) -> str:
        if not self.syms:
            return EPS_TOKEN
        return " ".join(alphabet.symbols[i] for i in self.syms)


EPSILON = Word(())

# One entry per word: (index of the longest earlier word that is a proper
# prefix of it, or -1 for the root; the word's symbols; that prefix's length).
Plan = tuple[tuple[int, tuple, int], ...]
State = TypeVar("State")


def _common_prefix(u: Sequence, v: Sequence, lo: int, hi: int) -> int:
    """Length of the common prefix of u and v, known to lie in [lo, hi]."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if u[lo:mid] == v[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def prefix_plan(words: Sequence[tuple]) -> Plan:
    """Plan the execution of distinct words given in canonical order.

    A compressed trie of the words seen so far finds each word's longest
    proper prefix among the earlier words. The canonical order puts every
    prefix before the words extending it, and no earlier word is longer,
    so a new word always ends in a fresh leaf. Edge labels are slices of
    the words themselves, and the trie has at most two nodes per word.
    A word whose one-shorter prefix is a word hangs its leaf under that
    word's node, found by hashing. Any other word walks down from the
    previous such walk's path, at their longest common prefix, and so
    visits only nodes below that depth. Time and memory are linear in
    the number of symbols.
    """
    plan = []
    # node: (index of a word through the node, the node's depth, children by next symbol)
    root: tuple[int, int, dict] = (-1, 0, {})
    nodes = {(): (-1, root)}  # word -> (its index, its node); -1 is the root
    # the last walk's trie path; each node comes with the deepest word node
    # at or above it, as (its index, its length)
    path = [(root, -1, 0)]
    prev: tuple = ()
    for i, w in enumerate(words):
        if not w:  # the empty word is the root's own state
            plan.append((-1, w, 0))
            continue
        hit = nodes.get(w[:-1])
        if hit is not None:
            anchor, start = hit[0], len(w) - 1
            depth, kids = start, hit[1][2]
        else:
            common = _common_prefix(prev, w, 0, min(len(prev), len(w)))
            while path[-1][0][1] > common:
                path.pop()
            while True:
                node, anchor, start = path[-1]
                depth, kids = node[1], node[2]
                child = kids.get(w[depth])
                if child is None:
                    break
                label, end = words[child[0]], child[1]
                if w[depth:end] == label[depth:end]:
                    is_word = end == len(label)
                    path.append((child, child[0], end) if is_word else (child, anchor, start))
                    continue
                split = _common_prefix(w, label, depth + 1, end - 1)
                child = (i, split, {label[split]: child})
                kids[w[depth]] = child
                depth, kids = split, child[2]
                path.append((child, anchor, start))
                break
        leaf = (i, len(w), {})
        kids[w[depth]] = leaf
        nodes[w] = (i, leaf)
        if hit is None:
            path.append((leaf, i, len(w)))
            prev = w
        plan.append((anchor, w, start))
    return tuple(plan)


def execute(plan: Plan, init: State, step: Callable[[State, object], State]) -> list[State]:
    """The state reached by every planned word, in plan order.

    Each word starts from the state of its planned prefix, so a symbol
    shared with an earlier suite word is stepped only once.
    """
    states: list[State] = []
    for parent, syms, start in plan:
        s = init if parent < 0 else states[parent]
        for a in syms[start:]:
            s = step(s, a)
        states.append(s)
    return states


@dataclass(frozen=True)
class Suite:
    """A deduplicated set of words over one alphabet, in canonical order.

    The constructor canonicalizes: duplicates are dropped and the words
    are sorted length-lexicographically. Storing the image of whatever
    produced the words is deliberate; agreement of two machines on a
    suite only depends on this image.
    """

    alphabet: Alphabet
    words: tuple[Word, ...] = field(default=())

    def __post_init__(self):
        n = len(self.alphabet)
        for w in self.words:
            for s in w.syms:
                if not 0 <= s < n:
                    raise ValueError(f"symbol index {s} out of range for alphabet of size {n}")
        canon = sorted(set(self.words), key=lambda w: (len(w.syms), w.syms))
        object.__setattr__(self, "words", tuple(canon))

    @classmethod
    def of(cls, alphabet: Alphabet, words: Iterable[Word | tuple[int, ...]]) -> "Suite":
        return cls(alphabet, tuple(w if isinstance(w, Word) else Word(tuple(w)) for w in words))

    @classmethod
    def from_names(cls, alphabet: Alphabet, entries: Iterable[Iterable[str]]) -> "Suite":
        return cls(alphabet, tuple(alphabet.word(*names) for names in entries))

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    @cached_property
    def _member_set(self) -> frozenset[Word]:
        return frozenset(self.words)

    def __contains__(self, w: Word) -> bool:
        return w in self._member_set

    def contains_epsilon(self) -> bool:
        return EPSILON in self._member_set

    @cached_property
    def plan(self) -> Plan:
        """The prefix-sharing execution plan of the words (see `prefix_plan`)."""
        return prefix_plan([w.syms for w in self.words])


@dataclass(frozen=True)
class EquivResult:
    """Outcome of an equivalence oracle. The counterexample is a Word (a
    SymbolicWord for register automata), None when equivalent."""

    equivalent: bool
    counterexample: object = None

    def __bool__(self) -> bool:
        return self.equivalent


@dataclass(frozen=True)
class Verdict:
    """Outcome of executing one test against spec and implementation.

    `word` is the executed Word (or, for nominal suites, the orbit
    pattern standing for all its instances).
    """

    word: object
    spec_out: object
    impl_out: object
    passed: bool

    def __post_init__(self):
        if self.passed != (self.spec_out == self.impl_out):
            raise ValueError("verdict pass flag inconsistent with outputs")


def words_upto(alphabet: Alphabet, k: int) -> Suite:
    """All words of length at most k, in canonical order."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = len(alphabet)
    out: list[Word] = []
    layer: list[tuple[int, ...]] = [()]
    out.append(EPSILON)
    for _ in range(k):
        layer = [w + (a,) for w in layer for a in range(n)]
        out.extend(Word(w) for w in layer)
    return Suite(alphabet, tuple(out))


def concat_suites(a: Suite, b: Suite) -> Suite:
    """Pairwise concatenation {u.v | u in a, v in b}, deduplicated."""
    if a.alphabet != b.alphabet:
        raise ValueError("cannot concatenate suites over different alphabets")
    return Suite(a.alphabet, tuple(u + v for u in a for v in b))


def w_suite(p: Suite, alphabet: Alphabet, k: int, w: Suite) -> Suite:
    """The W test suite of order k: P . Sigma^{<=k+1} . W.

    Both P and W must contain the empty word; a state cover and a
    characterization set always do.
    """
    if len(p) == 0 or len(w) == 0:
        raise ValueError("P and W must be nonempty")
    if not p.contains_epsilon():
        raise ValueError("P must contain the empty word")
    if not w.contains_epsilon():
        raise ValueError("W must contain the empty word")
    return concat_suites(concat_suites(p, words_upto(alphabet, k + 1)), w)


def prefix_close(t: Suite) -> Suite:
    """Smallest prefix-closed superset of t."""
    out: set[Word] = set()
    for w in t:
        out.update(w.prefixes())
    return Suite(t.alphabet, tuple(out))
