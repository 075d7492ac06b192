"""Machines, evaluators and output checks written apart from wmethod.

Nothing here imports the program. The benchmark builds its inputs with
these classes and writes them with their own `text()` methods, and every
CLI output is checked against computations made here: steppers, an exact
rank routine, orbit concatenation and equivalence oracles of our own.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

EPS = "-eps-"


class CheckError(Exception):
    """A CLI output disagrees with the reference computation."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def canonical_key(word: tuple) -> tuple:
    return (len(word), word)


# ------------------------------------------------------------- exact rank


class _Span:
    """Incremental exact basis, by Gaussian elimination over Fractions."""

    def __init__(self):
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def add(self, v) -> bool:
        """Insert v; True iff it enlarged the span."""
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                c = v[p] / row[p]
                v = [x - c * y for x, y in zip(v, row)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        self.rows.append(v)
        self.pivots.append(p)
        return True


def rank(vectors) -> int:
    span = _Span()
    return sum(span.add(v) for v in vectors)


# ------------------------------------------------------------ word machines


class Fsm:
    """A complete DFA or Mealy machine; out[q] is 0/1 (dfa) or a row of
    output tokens, one per symbol (mealy)."""

    def __init__(self, kind: str, symbols: tuple[str, ...], delta, out, initial: int = 0):
        self.kind = kind
        self.symbols = tuple(symbols)
        self.delta = [tuple(r) for r in delta]
        self.out = [tuple(r) if kind == "mealy" else r for r in out]
        self.initial = initial

    @property
    def size(self) -> int:
        return len(self.delta)

    def state(self, word, q: int | None = None) -> int:
        q = self.initial if q is None else q
        for a in word:
            q = self.delta[q][a]
        return q

    def obs(self, q: int) -> str:
        """The observation at a state, rendered as `wmethod run` prints it."""
        return ",".join(self.out[q]) if self.kind == "mealy" else str(self.out[q])

    def value_str(self, word) -> str:
        return self.obs(self.state(word))

    def equivalent(self, other: "Fsm") -> bool:
        start = (self.initial, other.initial)
        seen = {start}
        queue = deque([start])
        while queue:
            p, q = queue.popleft()
            if self.obs(p) != other.obs(q):
                return False
            for a in range(len(self.symbols)):
                nxt = (self.delta[p][a], other.delta[q][a])
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return True

    def text(self) -> str:
        n = self.size
        lines = [f"kind {self.kind}", "alphabet " + " ".join(self.symbols),
                 f"states {n}", f"initial {self.initial}"]
        if self.kind == "dfa":
            lines.append("accepting " + " ".join(str(q) for q in range(n) if self.out[q]))
        else:
            lines += [f"output {q} {s} {self.out[q][a]}"
                      for q in range(n) for a, s in enumerate(self.symbols)]
        lines += [f"trans {q} {s} {self.delta[q][a]}"
                  for q in range(n) for a, s in enumerate(self.symbols)]
        return "\n".join(lines) + "\n"


class Wa:
    """A rational weighted automaton; mats[a][dst][src] is the weight of
    the src -> dst transition on symbol a."""

    def __init__(self, symbols: tuple[str, ...], s0, mats, f):
        self.symbols = tuple(symbols)
        self.s0 = tuple(Fraction(x) for x in s0)
        self.mats = [[[Fraction(x) for x in row] for row in m] for m in mats]
        self.f = tuple(Fraction(x) for x in f)

    @property
    def size(self) -> int:
        return len(self.s0)

    def value(self, word) -> Fraction:
        """f^T M(w_n) ... M(w_1) s0, multiplied from the right end of the word."""
        return sum((x * y for x, y in zip(self.obs_row(word), self.s0)), Fraction(0))

    def value_str(self, word) -> str:
        return str(self.value(word))

    def obs_row(self, word) -> list[Fraction]:
        """The row vector f^T M(w_n) ... M(w_1)."""
        d = self.size
        r = list(self.f)
        for a in reversed(word):
            m = self.mats[a]
            r = [sum((r[i] * m[i][j] for i in range(d)), Fraction(0)) for j in range(d)]
        return r

    def state_vector(self, word) -> list[Fraction]:
        """The column vector M(w_n) ... M(w_1) s0."""
        v = list(self.s0)
        for a in word:
            v = self._apply(a)(v)
        return v

    def reachable_rank(self) -> int:
        """Dimension of span{M(w) s0 | w}, by saturation."""
        return _saturate(self.s0, [self._apply(a) for a in range(len(self.symbols))])

    def observable_rank(self) -> int:
        """Dimension of span{f^T M(w) | w}, by saturation on transposes."""
        d = self.size
        transposed = [[[m[i][j] for i in range(d)] for j in range(d)] for m in self.mats]
        steps = [(lambda v, mt=mt: [sum((x * y for x, y in zip(row, v)), Fraction(0))
                                    for row in mt]) for mt in transposed]
        return _saturate(self.f, steps)

    def _apply(self, a: int):
        m = self.mats[a]
        return lambda v: [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m]

    def equivalent(self, other: "Wa") -> bool:
        """Series equality: f.v == f'.v' on a basis of the joint reachable space."""
        d = self.size
        span = _Span()
        start = list(self.s0) + list(other.s0)
        queue = deque([start]) if span.add(start) else deque()
        weights = list(self.f) + [-x for x in other.f]
        if sum((x * y for x, y in zip(weights, start)), Fraction(0)):
            return False
        while queue:
            v = queue.popleft()
            for a in range(len(self.symbols)):
                nv = self._apply(a)(v[:d]) + other._apply(a)(v[d:])
                if sum((x * y for x, y in zip(weights, nv)), Fraction(0)):
                    return False
                if span.add(nv):
                    queue.append(nv)
        return True

    def text(self) -> str:
        d = self.size
        lines = ["kind wa", "alphabet " + " ".join(self.symbols), f"dim {d}"]
        lines += [f"init {q} {v}" for q, v in enumerate(self.s0) if v]
        lines += [f"final {q} {v}" for q, v in enumerate(self.f) if v]
        lines += [f"trans {src} {s} {dst} {self.mats[a][dst][src]}"
                  for a, s in enumerate(self.symbols)
                  for src in range(d) for dst in range(d) if self.mats[a][dst][src]]
        return "\n".join(lines) + "\n"


def _saturate(start, steps) -> int:
    span = _Span()
    queue = deque([start]) if span.add(start) else deque()
    while queue:
        v = queue.popleft()
        for step in steps:
            nv = step(v)
            if span.add(nv):
                queue.append(nv)
    return len(span.rows)


# ----------------------------------------------------------- register automata


class Rna:
    """A deterministic register automaton over equality atoms.

    rules[loc][g] for g < arity fires when the input equals register g+1,
    rules[loc][arity] on a fresh input; a rule is (target, sources) with
    source 0 for the input letter and r >= 1 for register r.
    """

    def __init__(self, locs, accepting, rules, initial: int = 0):
        self.locs = [tuple(x) for x in locs]
        self.accepting = frozenset(accepting)
        self.rules = [[(t, tuple(s)) for t, s in group] for group in rules]
        self.initial = initial

    @property
    def size(self) -> int:
        return len(self.locs)

    def arity(self, loc: int) -> int:
        return self.locs[loc][1]

    def step(self, loc: int, regs: tuple, x) -> tuple[int, tuple]:
        g = regs.index(x) if x in regs else len(regs)
        target, sources = self.rules[loc][g]
        return target, tuple(x if s == 0 else regs[s - 1] for s in sources)

    def location(self, atoms) -> int:
        loc, regs = self.initial, ()
        for x in atoms:
            loc, regs = self.step(loc, regs, x)
        return loc

    def value_str(self, pattern) -> str:
        # the canonical instance of a pattern uses class i as atom i
        return str(self.location(pattern) in self.accepting)

    def reachable_locations(self) -> set[int]:
        seen = {self.initial}
        stack = [self.initial]
        while stack:
            for target, _ in self.rules[stack.pop()]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen

    def separable(self, other: "Rna", sa, sb) -> bool:
        """Does some data word separate state sa of self from sb of other?"""
        start = _normal(sa, sb)
        seen = {start}
        queue = deque([start])
        while queue:
            (la, ra), (lb, rb) = queue.popleft()
            if (la in self.accepting) != (lb in other.accepting):
                return True
            fresh = len(set(ra) | set(rb)) + 1
            for x in sorted(set(ra) | set(rb)) + [fresh]:
                nxt = _normal(self.step(la, ra, x), other.step(lb, rb, x))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    def equivalent(self, other: "Rna") -> bool:
        return not self.separable(other, (self.initial, ()), (other.initial, ()))

    def is_minimal(self) -> bool:
        """No two distinct states, over any locations and register overlaps,
        accept the same data words."""
        for l1 in range(self.size):
            regs1 = tuple(range(1, self.arity(l1) + 1))
            for l2 in range(l1, self.size):
                for regs2 in _fills(self.arity(l2), regs1, len(regs1) + 1):
                    if (l1, regs1) == (l2, regs2):
                        continue
                    if not self.separable(self, (l1, regs1), (l2, regs2)):
                        return False
        return True

    def text(self) -> str:
        names = [n for n, _ in self.locs]
        lines = ["kind rna"] + [f"loc {n} {r}" for n, r in self.locs]
        lines.append(f"initial {names[self.initial]}")
        if self.accepting:
            lines.append("accepting " + " ".join(names[q] for q in sorted(self.accepting)))
        for loc, (name, arity) in enumerate(self.locs):
            for g, (target, sources) in enumerate(self.rules[loc]):
                guard = "fresh" if g == arity else f"eq {g + 1}"
                regs = "".join(" x" if s == 0 else f" r{s}" for s in sources)
                lines.append(f"trans {name} {guard} {names[target]}{regs}")
        return "\n".join(lines) + "\n"


def _normal(sa, sb):
    """Rename the atoms of a pair of states by first occurrence."""
    names: dict = {}
    for x in sa[1] + sb[1]:
        names.setdefault(x, len(names) + 1)
    return ((sa[0], tuple(names[x] for x in sa[1])),
            (sb[0], tuple(names[x] for x in sb[1])))


def _fills(n: int, pool: tuple, fresh: int):
    """Every tuple of n distinct atoms from pool or fresh atoms (fresh + j at place j)."""
    def rec(j: int, used: frozenset):
        if j == n:
            yield ()
            return
        for x in pool:
            if x not in used:
                for rest in rec(j + 1, used | {x}):
                    yield (x,) + rest
        for rest in rec(j + 1, used):
            yield (fresh + j,) + rest
    yield from rec(0, frozenset())


# ------------------------------------------------------------------ patterns


def canon_pattern(atoms) -> tuple[int, ...]:
    names: dict = {}
    return tuple(names.setdefault(x, len(names) + 1) for x in atoms)


def all_patterns(max_len: int) -> list[tuple[int, ...]]:
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [p + (c,) for p in layer for c in range(1, max(p, default=0) + 2)]
        out += layer
    return out


def concat_patterns(xs, ys) -> set[tuple[int, ...]]:
    """Orbits of {uv}: each class of v is either a class of u (injectively) or new."""
    out = set()
    for u in xs:
        m = max(u, default=0)
        for v in ys:
            n = max(v, default=0)
            for fill in _fills(n, tuple(range(1, m + 1)), m + 1):
                out.add(canon_pattern(u + tuple(fill[c - 1] for c in v)))
    return out


def all_words(n_symbols: int, max_len: int) -> list[tuple[int, ...]]:
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [w + (a,) for w in layer for a in range(n_symbols)]
        out += layer
    return out


# ---------------------------------------------------------------- file reading


def parse_word(toks, index: dict) -> tuple:
    if toks == [EPS]:
        return ()
    try:
        return tuple(index[t] for t in toks)
    except KeyError as e:
        raise CheckError(f"unknown symbol {e} in output") from None


def parse_pattern(toks) -> tuple:
    if toks == [EPS]:
        return ()
    try:
        return tuple(int(t) for t in toks)
    except ValueError:
        raise CheckError(f"bad pattern {toks}") from None


def read_suite(text: str, symbols: tuple | None) -> list[tuple]:
    """Words (or, with symbols None, patterns) of a suite file, in file order."""
    index = {s: i for i, s in enumerate(symbols)} if symbols is not None else None
    words = []
    for line in text.splitlines():
        toks = line.split()
        _require(bool(toks), "blank line in suite file")
        words.append(parse_word(toks, index) if index is not None else parse_pattern(toks))
    return words


def render(word, symbols: tuple | None) -> str:
    if not word:
        return EPS
    return " ".join(symbols[a] for a in word) if symbols is not None else " ".join(map(str, word))


# ------------------------------------------------------------------ the checks


def check_suite_file(words: list, expected: set, what: str) -> None:
    """The file holds exactly `expected`, in canonical order, once each."""
    for u, v in zip(words, words[1:]):
        _require(canonical_key(u) < canonical_key(v),
                 f"{what}: suite not in canonical order or duplicated at {v}")
    got = set(words)
    for diff, how in ((expected - got, "missing"), (got - expected, "unexpected")):
        if diff:
            raise CheckError(f"{what}: {len(diff)} words {how}, "
                             f"e.g. {min(diff, key=canonical_key)}")


def prefix_closure(words) -> set:
    return {w[:i] for w in words for i in range(len(w) + 1)}


def check_cover(m, p: list, what: str) -> None:
    _require(() in p, f"{what}: state cover lacks the empty word")
    if isinstance(m, Fsm):
        _require({m.state(w) for w in p} == set(range(m.size)),
                 f"{what}: state cover misses a state")
    elif isinstance(m, Wa):
        _require(rank([m.state_vector(w) for w in p]) == m.size,
                 f"{what}: state cover does not span the state space")
    else:
        _require({m.location(w) for w in p} >= m.reachable_locations(),
                 f"{what}: state cover misses a reachable location")


def check_charset(m, w: list, what: str) -> None:
    _require(() in w, f"{what}: characterization set lacks the empty word")
    if isinstance(m, Fsm):
        rows = {tuple(m.obs(m.state(v, q)) for v in w) for q in range(m.size)}
        _require(len(rows) == m.size, f"{what}: characterization set leaves two states together")
    elif isinstance(m, Wa):
        _require(rank([m.obs_row(v) for v in w]) == m.size,
                 f"{what}: characterization set does not span the observation space")


def reference_suite(m, p: list, k: int, w: list) -> set:
    """P . Sigma^{<=k+1} . W, formed here."""
    if isinstance(m, Rna):
        return concat_patterns(concat_patterns(p, all_patterns(k + 1)), w)
    middle = all_words(len(m.symbols), k + 1)
    return {u + x + v for u in p for x in middle for v in w}


def in_domain(spec, impl, p: list, k: int) -> bool:
    """Is impl inside the fault domain the order-k suite is complete for?"""
    if isinstance(spec, Fsm):
        return impl.size <= spec.size + k
    if isinstance(spec, Wa):
        words = [u + x for u in p for x in all_words(len(spec.symbols), k)]
        return rank([impl.state_vector(v) for v in words]) == impl.size
    reached = {impl.location(u) for u in p}
    return all(impl.location(u + (c,)) in reached
               for u in p for c in range(1, max(u, default=0) + 2))


def check_run(rc: int, out: str, spec, impl, suite: list, what: str) -> bool:
    """Each verdict line matches our evaluation; returns whether all passed."""
    symbols = getattr(spec, "symbols", None)
    lines = out.splitlines()
    _require(len(lines) == len(suite), f"{what}: {len(lines)} verdict lines for {len(suite)} tests")
    all_pass = True
    for line, word in zip(lines, suite):
        toks = line.split()
        _require(len(toks) >= 4, f"{what}: malformed verdict line {line!r}")
        _require(" ".join(toks[1:-2]) == render(word, symbols),
                 f"{what}: verdict for {toks[1:-2]} where {render(word, symbols)!r} was due")
        s, i = spec.value_str(word), impl.value_str(word)
        _require(toks[-2:] == [s, i], f"{what}: line {line!r}, expected outputs {s} {i}")
        _require(toks[0] == ("PASS" if s == i else "FAIL"), f"{what}: wrong status in {line!r}")
        all_pass = all_pass and s == i
    _require(rc == (0 if all_pass else 1), f"{what}: exit {rc} with all_pass={all_pass}")
    return all_pass


def check_equiv(rc: int, out: str, spec, impl, run_passed: bool, domain: bool, what: str) -> None:
    symbols = getattr(spec, "symbols", None)
    toks = out.split()
    truth = spec.equivalent(impl)
    if toks == ["equivalent"]:
        _require(rc == 0, f"{what}: exit {rc} on an equivalent verdict")
        _require(truth, f"{what}: reported equivalent, but the machines differ")
    else:
        _require(toks[:1] == ["inequivalent"] and len(toks) >= 2 and rc == 1,
                 f"{what}: malformed equiv output {out!r} (exit {rc})")
        index = {s: i for i, s in enumerate(symbols)} if symbols is not None else None
        cex = parse_word(toks[1:], index) if index is not None else parse_pattern(toks[1:])
        _require(spec.value_str(cex) != impl.value_str(cex),
                 f"{what}: counterexample {render(cex, symbols)!r} does not separate the machines")
    if domain:
        _require((toks == ["equivalent"]) == run_passed,
                 f"{what}: in-domain implementation, run passed={run_passed} but equiv says {out.strip()!r}")


def check_faultsim(rc: int, out: str, n_mutants: int, suite_size: int, what: str) -> dict:
    """Exit 0, verdict pass, and per-mutant lines that sum to the summary."""
    lines = out.splitlines()
    _require(rc == 0, f"{what}: exit {rc}")
    _require(len(lines) >= 2, f"{what}: report too short")
    head = lines[0].split()
    _require(head[:1] == ["faultsim"] and head[-2:] == ["suite-size", str(suite_size)],
             f"{what}: header {lines[0]!r}, expected suite-size {suite_size}")
    counts = {"killed": 0, "survived-equiv": 0, "survived-inequiv": 0, "timeouts": 0}
    body = lines[1:-1]
    _require(0 < len(body) <= n_mutants, f"{what}: {len(body)} mutant lines for {n_mutants} asked")
    for i, line in enumerate(body):
        toks = line.split()
        _require(toks[:2] == ["mutant", str(i)] and toks[2] in ("in-domain", "out-domain"),
                 f"{what}: malformed mutant line {line!r}")
        oracle = toks[-1]
        _require(toks[-2] == "oracle" and oracle in ("equiv", "inequiv", "timeout"),
                 f"{what}: malformed oracle in {line!r}")
        if toks[3] == "killed-by":
            counts["killed"] += 1
            _require(oracle != "equiv", f"{what}: mutant killed but oracle-equivalent: {line!r}")
        else:
            _require(toks[3] == "survived", f"{what}: malformed fate in {line!r}")
            if oracle != "timeout":
                counts[f"survived-{oracle}"] += 1
            _require(not (toks[2] == "in-domain" and oracle == "inequiv"),
                     f"{what}: in-domain inequivalent survivor: {line!r}")
        counts["timeouts"] += oracle == "timeout"
    summary = lines[-1].split()
    expect = (["summary", "total", str(len(body))]
              + [x for key, n in counts.items() for x in (key, str(n))] + ["verdict", "pass"])
    _require(summary == expect, f"{what}: summary {lines[-1]!r}, expected {' '.join(expect)!r}")
    return counts
