"""Words, alphabets, test suites, run verdicts, the two walks every
family shares (the suite executor and the breadth-first `reach`), and
the weak state cover map and check of the fsm and rna families.

Suites are always kept deduplicated and in canonical order
(length-lexicographic by symbol index), so generated files are
diff-stable and set-level operations behave deterministically. Orbit
suites (`nominal.OrbitSuite`) are Suites too: they override only how an
item's symbols are read (`_seq`), checked (`_check`) and rendered
(`_render`), and share the A^{<=k} enumeration and the W preconditions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter, itemgetter, lt
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

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
        for s in self.symbols:
            # a suite-file line is its symbol names joined by single spaces
            if s == EPS_TOKEN or s[:1] in ("", "#") or " " in s or not s.isprintable():
                raise ValueError(
                    f"symbol {s!r} cannot be written in a suite file: names are printable, "
                    f"hold no space, are not {EPS_TOKEN} and do not start with #"
                )

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    def index(self, name: str) -> int:
        (i,) = self.word(name).syms
        return i

    def word(self, *names: str) -> Word:
        """Build a word from symbol names, e.g. ``ab.word('1', '1', 'c')``."""
        try:
            return Word(tuple(map(self._index.__getitem__, names)))
        except KeyError as e:
            raise ValueError(f"symbol {e.args[0]!r} not in alphabet {self.symbols}") from None


@dataclass(frozen=True)
class Word:
    """A finite sequence of symbol indices into some alphabet."""

    syms: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "syms", tuple(self.syms))

    @classmethod
    def _of(cls, syms: tuple[int, ...]) -> "Word":
        """A word of a symbol tuple, taken without coercion."""
        w = cls.__new__(cls)
        object.__setattr__(w, "syms", syms)
        return w

    def __len__(self) -> int:
        return len(self.syms)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.syms + other.syms)

    def __lt__(self, other: "Word") -> bool:
        # canonical length-lexicographic order
        return (len(self.syms), self.syms) < (len(other.syms), other.syms)

    def render(self, alphabet: Alphabet) -> str:
        if not self.syms:
            return EPS_TOKEN
        symbols = alphabet.symbols
        return " ".join([symbols[i] for i in self.syms])


EPSILON = Word(())


def canonical(items: tuple, seqs: Sequence[tuple]) -> tuple:
    """The items deduplicated and in canonical order; seqs[i] holds the
    symbols of items[i], and equal symbols mean equal items.

    One linear scan checks whether the (length, symbols) keys strictly
    increase. Then the items are already canonical and distinct, and the
    same tuple is returned; otherwise they are deduplicated and sorted,
    lexicographically and then stably by length.
    """
    keys = zip(map(len, seqs), seqs)
    later = zip(map(len, seqs), seqs)
    next(later, None)  # so that each key meets the next one
    if all(map(lt, keys, later)):
        return items
    by_seq = dict(zip(seqs, items))
    order = sorted(by_seq)
    order.sort(key=len)
    return tuple(map(by_seq.__getitem__, order))


# One entry per word: (anchor, the index of the longest earlier word that is a
# proper prefix of it, or -1 for the root; tail, its symbols after the anchor's).
Plan = tuple[tuple[int, tuple], ...]
State = TypeVar("State")


def prefix_walk(keys: Sequence, sep: tuple | str = ()) -> tuple[list[int], list[int]]:
    """Each key's longest proper prefix among the keys, found in one pass.

    Returns `(anchors, order)`: `anchors[i]` is the index of the longest
    key k such that k + sep starts keys[i] (-1 if there is none), and
    `order` lists the indices with the keys sorted. Symbol tuples use
    sep=(); suite-file lines use sep=" ", so that only whole tokens count.

    Sorting puts every prefix of a key before it, and every key between
    a prefix u and a key extending u extends u as well. So a stack of the
    keys seen so far, each a proper prefix of the next, holds after
    popping the ones that do not start the current key exactly the
    current key's prefixes among the keys. The empty key is the root's
    own and never an anchor. Time is one sort plus work linear in the
    total length of the keys.
    """
    anchors = [-1] * len(keys)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    top, head = -1, sep[:0]  # the innermost prefix, as (index, key + sep); -1 is the root
    stack = []  # the enclosing ones
    for i in order:
        k = keys[i]
        while k[: len(head)] != head:
            top, head = stack.pop()
        anchors[i] = top
        if k:
            stack.append((top, head))
            top, head = i, k + sep
    return anchors, order


def prefix_plan(words: Sequence[tuple]) -> Plan:
    """Plan the execution of distinct words given in canonical order.

    Each word starts from its longest proper prefix among the words
    (`prefix_walk`); the canonical order makes every anchor an earlier
    word.
    """
    return _anchored(words, prefix_walk(words)[0])


def _anchored(words: Sequence[tuple], anchors: list[int]) -> Plan:
    """The plan of each word's tail after its anchor, built in the `anchors` list."""
    for i, a in enumerate(anchors):
        anchors[i] = (a, words[i][len(words[a]) :] if a >= 0 else words[i])
    return tuple(anchors)


def execute(plan: Plan, init: State, step: Callable[[State, object], State]) -> Iterator[State]:
    """Yield the state reached by every planned word, in plan order.

    Each word steps its tail from the state of its anchor, so a symbol
    shared with an earlier suite word is stepped only once. Every anchor
    comes before its word in the plan, so the states are computed lazily:
    a caller that stops at some word steps none of the later ones.
    """
    states: list[State] = []
    for anchor, tail in plan:
        s = init if anchor < 0 else states[anchor]
        for a in tail:
            s = step(s, a)
        states.append(s)
        yield s


def reach(
    start: State,
    moves: Callable[[State], Iterable[tuple[object, State]]],
    new: Callable[[State], bool],
) -> Iterator[tuple[tuple, State]]:
    """The breadth-first walk behind every state cover and every oracle.

    Yields (word, state) for every state that `new` admits, the start
    first, each as it is discovered; discovery order is expansion order.
    `moves(state)` gives (letter, successor) pairs in the order they are
    tried, and a word is the tuple of letters that reached its state. The
    walk is lazy: a consumer that stops at the start calls `moves` never.
    """
    if not new(start):
        return
    queue = deque([((), start)])
    yield queue[0]
    while queue:
        word, state = queue.popleft()
        for letter, nxt in moves(state):
            if new(nxt):
                queue.append((word + (letter,), nxt))
                yield queue[-1]


def cover_map(p: Suite, extensions, state, render) -> dict:
    """A delta_p witnessing that p is a weak state cover, if one exists.

    `extensions(w)` gives the (letter, extended word) pairs of a word w,
    `state(w)` the key of the state that w reaches, and `render(w)` its
    text. Each (w, letter) maps to the first word of p that reaches the
    extension's state; an extension to a state that no word of p reaches
    raises ValueError.
    """
    reached: dict = {}
    for w in p:
        reached.setdefault(state(w), w)
    table = {}
    for w in p:
        for letter, ext in extensions(w):
            q = state(ext)
            if q not in reached:
                raise ValueError(f"the state of the extension {render(ext)} is not covered")
            table[(w, letter)] = reached[q]
    return table


def verify_cover_map(p: Suite, extensions, state, render, delta_p: Mapping) -> bool:
    """Check the weak state cover square for the arguments of `cover_map`:
    every delta_p(w, letter) is a word of p reaching its extension's state.
    p must hold the empty word, and delta_p an entry in p for each pair."""
    if not p.contains_epsilon():
        raise ValueError("a weak state cover must contain the empty word")
    for w in p:
        for letter, ext in extensions(w):
            try:
                v = delta_p[(w, letter)]
            except KeyError:
                raise ValueError(f"delta_p is not total: no entry for {render(ext)}") from None
            if v not in p:
                raise ValueError(f"delta_p value {render(v)} is outside the cover")
            if state(v) != state(ext):
                return False
    return True


def unseen(key: Callable[[State], Hashable] = lambda state: state) -> Callable[[State], bool]:
    """A `reach` admission test: true the first time a state's key is met."""
    seen: set = set()

    def new(state: State) -> bool:
        size = len(seen)
        seen.add(key(state))
        return len(seen) > size

    return new


@dataclass(frozen=True)
class Suite:
    """A deduplicated set of words over one alphabet, in canonical order.

    The constructor checks that every symbol is in range of the alphabet
    and canonicalizes: duplicates are dropped and the words are sorted
    length-lexicographically. Storing the image of whatever produced the
    words is deliberate; agreement of two machines on a suite only
    depends on this image. Suites whose construction already guarantees
    both (a suite file read through the alphabet's name table, the
    products and prefix closures of suites over one alphabet) are made
    by `_made`, which checks nothing.

    The reader makes a canonical file's suite of its lines and plan; its
    words, words[anchor] + tail, are formed when first asked for (iteration,
    membership, equality, hash, repr), and never by len(), contains_epsilon() or execution.
    """

    alphabet: Alphabet
    # a default factory sets no class attribute: missing words reach __getattr__
    words: tuple[Word, ...] = field(default_factory=tuple)
    # Optional: the suite-file line of each word, as read, or as joined from
    # its factors' lines, and the words' execution plan, as the reader found
    # it. Kept only when the words came in canonical order, so that lines()
    # need not render them again and plan is the reader's or walks the lines.
    texts: tuple[str, ...] | None = field(default=None, compare=False, repr=False)
    planned: Plan | None = field(default=None, compare=False, repr=False)

    _seq = attrgetter("syms")
    _word = Word  # the item type: _word._of(symbols) is an item, made unchecked

    def __post_init__(self):
        words = tuple(self.words)
        seqs = list(map(self._seq, words))
        self._check(seqs)
        canon = canonical(words, seqs)
        object.__setattr__(self, "words", canon)
        if canon is not words:
            object.__setattr__(self, "texts", None)
            object.__setattr__(self, "planned", None)

    @classmethod
    def _made(cls, alphabet: Alphabet | None, words: tuple | None, texts=None, planned=None):
        """A suite of the given fields, taken without checking. The caller
        guarantees that every symbol is in range of the alphabet and that
        the words are distinct and in canonical order, or None, to be formed on demand."""
        t = cls.__new__(cls)
        object.__setattr__(t, "alphabet", alphabet)
        if words is not None:
            object.__setattr__(t, "words", words)
        object.__setattr__(t, "texts", texts)
        object.__setattr__(t, "planned", planned)
        return t

    def __getattr__(self, name: str):  # only for attributes not set
        if name != "words":
            raise AttributeError(name)
        seqs: list[tuple] = []
        for anchor, tail in self.planned:
            seqs.append(seqs[anchor] + tail if anchor >= 0 else tail)
        object.__setattr__(self, "words", tuple(map(self._word._of, seqs)))
        return self.words

    def _check(self, seqs: list[tuple]) -> None:
        valid = range(len(self.alphabet))
        if not set().union(*seqs).issubset(valid):
            bad = next(s for syms in seqs for s in syms if s not in valid)
            raise ValueError(f"symbol index {bad} out of range for alphabet of size {len(valid)}")

    def _render(self, w: Word) -> str:
        return w.render(self.alphabet)

    @classmethod
    def of(cls, alphabet: Alphabet, words: Iterable[Word | tuple[int, ...]]) -> "Suite":
        return cls(alphabet, tuple(w if isinstance(w, Word) else Word(tuple(w)) for w in words))

    @classmethod
    def from_names(cls, alphabet: Alphabet, entries: Iterable[Iterable[str]]) -> "Suite":
        return cls(alphabet, tuple(alphabet.word(*names) for names in entries))

    def __len__(self) -> int:
        return len(self.texts if self.texts is not None else self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    @cached_property
    def _member_set(self) -> frozenset[Word]:
        return frozenset(self.words)

    def __contains__(self, w: Word) -> bool:
        return w in self._member_set

    def contains_epsilon(self) -> bool:
        # the empty word sorts first, and its line is EPS_TOKEN
        if self.texts is not None:
            return self.texts[:1] == (EPS_TOKEN,)
        return bool(self.words) and len(self.words[0]) == 0

    @cached_property
    def plan(self) -> Plan:
        """The prefix-sharing execution plan of the words (see `prefix_plan`),
        walked on their lines when the suite carries them, as a file's are."""
        if self.planned is not None:
            return self.planned
        seqs = list(map(self._seq, self.words))
        if self.texts is None:
            return prefix_plan(seqs)
        keys = ["" if line == EPS_TOKEN else line for line in self.texts]
        return _anchored(seqs, prefix_walk(keys, " ")[0])

    def lines(self) -> Iterable[str]:
        """The rendering of every word, in suite order: one suite-file line each."""
        if self.texts is not None:
            return self.texts
        return map(self._render, self.words)


@dataclass(frozen=True)
class EquivResult:
    """Outcome of an equivalence oracle. The counterexample is a Word (a
    SymbolicWord for register automata), None when equivalent."""

    equivalent: bool
    counterexample: object = None

    def __bool__(self) -> bool:
        return self.equivalent


class Verdict(NamedTuple):
    """Outcome of executing one test against spec and implementation.

    `word` is the executed Word (or, for nominal suites, the orbit
    pattern standing for all its instances). The test passes iff the two
    outputs are equal.
    """

    word: object
    spec_out: object
    impl_out: object

    @property
    def passed(self) -> bool:
        return self.spec_out == self.impl_out


def sequences_upto(k: int, letters: Callable[[tuple], Iterable]) -> list[tuple]:
    """All sequences of length at most k, in canonical order, built layer by
    layer: sequence s extends by each of letters(s), in ascending order."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out: list[tuple] = [()]
    layer: list[tuple] = [()]
    for _ in range(k):
        layer = [s + (a,) for s in layer for a in letters(s)]
        out += layer
    return out


def words_upto(alphabet: Alphabet, k: int) -> Suite:
    """All words of length at most k, in canonical order."""
    letters = range(len(alphabet))
    return Suite(alphabet, tuple(map(Word, sequences_upto(k, lambda _: letters))))


def _lined(alphabet: Alphabet, words: dict[str, tuple]) -> Suite:
    """The words that `words` maps their lines to, in canonical order, with
    their lines: sorted on the symbols, then stably on length. The symbols
    come from suites over `alphabet`, and a line names exactly one word, so
    the distinct lines make distinct words and the suite is made unchecked."""
    lines = sorted(words, key=words.__getitem__)
    lines.sort(key=dict(zip(words, map(len, words.values()))).__getitem__)
    return Suite._made(alphabet, tuple(map(Word._of, map(words.__getitem__, lines))), tuple(lines))


def concat_suites(a: Suite, b: Suite) -> Suite:
    """Pairwise concatenation {u.v | u in a, v in b}, deduplicated. Each factor
    word is rendered once, a product's line is joined from its factors', and
    products are deduplicated on their lines: a line names one word."""
    if a.alphabet != b.alphabet:
        raise ValueError("cannot concatenate suites over different alphabets")
    if a.alphabet is None:
        raise ValueError("word suites only: orbit suites concatenate with concat_orbit")
    tails = list(zip(b.lines(), map(attrgetter("syms"), b)))
    out: dict[str, tuple] = {}
    for u, line in zip(a, a.lines()):
        us = u.syms
        head = line + " " if us else ""
        for tail, vs in tails:
            text = head + tail if vs else line
            if text not in out:
                out[text] = us + vs
    return _lined(a.alphabet, out)


def check_w_inputs(p: Suite, k: int, w: Suite) -> None:
    """The W suite's preconditions, for words and orbit patterns: k >= 0 and
    the empty word in P and in W (a state cover and a char set hold it)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not p.contains_epsilon():
        raise ValueError("P must contain the empty word")
    if not w.contains_epsilon():
        raise ValueError("W must contain the empty word")


def w_suite(p: Suite, alphabet: Alphabet, k: int, w: Suite) -> Suite:
    """The W test suite of order k: P . Sigma^{<=k+1} . W."""
    check_w_inputs(p, k, w)
    return concat_suites(concat_suites(p, words_upto(alphabet, k + 1)), w)


def prefix_close(t: Suite) -> Suite:
    """Smallest prefix-closed superset of t.

    The set stays prefix-closed as it grows, so a word's prefixes are
    added from the longest down, up to the first one already in it. Tokens
    hold no space, so a prefix's line is its word's cut at a space.
    """
    if t.alphabet is None:
        raise ValueError("word suites only: orbit suites are not prefix-closed")
    out = {EPS_TOKEN: ()} if t.words else {}
    for w, line in zip(t, t.lines()):
        syms = w.syms
        for n in range(len(syms), 0, -1):
            if line in out:
                break
            out[line] = syms[:n]
            line = line[: line.rfind(" ")]
    return _lined(t.alphabet, out)
