"""Text formats for machines, word suites, and pattern suites.

One file describes one machine. Lines hold whitespace-separated tokens;
blank lines and lines starting with `#` are ignored. The first directive
must be `kind dfa|moore|mealy|wa|rna`, which selects the family. Errors
carry the offending line number and are never repaired silently: a bad
state, location or rule at the line that names it, an item the file
never gives at its last line. Numbers are written in ASCII digits. A
weighted automaton is read straight into its integer form, each weight
as a reduced pair of integers, never as a `Fraction`. Word and pattern
suite files go through one prefix reader (`_read_suite`).
"""

from __future__ import annotations

import re
from math import gcd

from .fsm import Fsm
from .nominal import OrbitSuite, Rna, SymbolicWord, X_SOURCE, check_rule
from .weighted import Wa, _int_form
from .words import EPS_TOKEN, Alphabet, Suite, canonical, prefix_walk

# ASCII digits only: int() and Fraction() alone would also take `1_1` and non-ASCII digits
_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


class ParseError(Exception):
    """A syntax or consistency error at a specific line of a file."""

    def __init__(self, file: str, line: int, message: str):
        super().__init__(f"{file}:{line}: {message}")
        self.file = file
        self.line = line
        self.message = message


def _directives(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if toks and not toks[0].startswith("#"):
            yield no, toks


def parse_machine(text: str, filename: str = "<string>") -> Fsm | Wa | Rna:
    """Parse one machine file, dispatching on its `kind` directive."""
    items = list(_directives(text))
    if not items:
        raise ParseError(filename, 1, "empty file: expected a `kind` directive")
    no, toks = items[0]
    if toks[0] != "kind" or len(toks) != 2:
        raise ParseError(filename, no, "first directive must be `kind <family>`")
    kind = toks[1]
    last = items[-1][0]
    try:
        if kind in ("dfa", "moore", "mealy"):
            return _parse_fsm(kind, items[1:], filename, last)
        if kind == "wa":
            return _parse_wa(items[1:], filename, last)
        if kind == "rna":
            return _parse_rna(items[1:], filename, last)
    except ValueError as e:
        raise ParseError(filename, last, str(e)) from e
    raise ParseError(filename, no, f"unknown machine kind {kind!r}")


def _args(toks: list[str], usage: str, filename: str, no: int) -> list[str]:
    """The arguments of a directive whose form is `usage`, checked by count."""
    if len(toks) != len(usage.split()):
        raise ParseError(filename, no, f"{toks[0]}: `{usage}`")
    return toks[1:]


def _once(value, d: str, filename: str, no: int) -> None:
    """Reject a second occurrence of a directive that sets one value."""
    if value is not None:
        raise ParseError(filename, no, f"duplicate {d} directive")


def _int(tok: str, filename: str, no: int, what: str) -> int:
    """An integer in ASCII digits, with an optional sign. (A token holds no
    space, so an ASCII token without `_` that int() reads is such a numeral.)"""
    if tok.isascii() and "_" not in tok:
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(filename, no, f"{what}: expected an integer, got {tok!r}")


def _rational(tok: str, filename: str, no: int) -> tuple[int, int]:
    """A weight p or p/q as the pair (p, q) in lowest terms, q > 0."""
    if not _RATIONAL.fullmatch(tok):
        raise ParseError(filename, no, f"bad rational {tok!r} (use p or p/q, sign on p only)")
    p, _, q = tok.partition("/")
    p, q = int(p), int(q or 1)
    if not q:
        raise ParseError(filename, no, f"bad rational {tok!r}: zero denominator")
    g = gcd(p, q)
    return p // g, q // g


def _alphabet(toks: list[str], filename: str, no: int) -> Alphabet:
    try:
        return Alphabet(tuple(toks[1:]))
    except ValueError as e:
        raise ParseError(filename, no, str(e)) from None


def _symbol(alphabet: Alphabet, tok: str, filename: str, no: int) -> int:
    try:
        return alphabet._index[tok]
    except KeyError:
        raise ParseError(filename, no, f"unknown symbol {tok!r}") from None


def _count(toks: list[str], filename: str, no: int) -> int:
    """The positive count of a `states n` or `dim n` directive."""
    (arg,) = _args(toks, f"{toks[0]} count", filename, no)
    n = _int(arg, filename, no, toks[0])
    if n <= 0:
        raise ParseError(filename, no, f"{toks[0]} must be positive")
    return n


def _in_range(refs, n: int, count: str, filename: str) -> None:
    """Report the first of the (line, what, state) refs outside 0..n-1 at its line."""
    for no, what, q in refs:
        if not 0 <= q < n:
            raise ParseError(filename, no, f"{what} {q} out of range for `{count} {n}`")


def _total(found: dict, rows, what, filename: str, last: int) -> list:
    """found[k] for every key of every row; a missing key is reported at the last line."""
    try:
        return [[found[k] for k in row] for row in rows]
    except KeyError as e:
        raise ParseError(filename, last, f"missing {what(e.args[0])}") from None


def _parse_fsm(kind: str, items, filename: str, last: int) -> Fsm:
    alphabet = None
    n_states = initial = None
    outputs: dict = {}  # accepting states map to 1
    delta: dict[tuple[int, int], int] = {}
    states: list[tuple[int, str, int]] = []  # (line, what, state) of every state named
    for no, toks in items:
        d = toks[0]
        if d == "alphabet":
            _once(alphabet, d, filename, no)
            alphabet = _alphabet(toks, filename, no)
        elif d == "states":
            _once(n_states, d, filename, no)
            n_states = _count(toks, filename, no)
        elif d == "initial":
            _once(initial, d, filename, no)
            (arg,) = _args(toks, "initial state", filename, no)
            initial = _int(arg, filename, no, "initial")
            states.append((no, "initial state", initial))
        elif d == "accepting":
            if kind != "dfa":
                raise ParseError(filename, no, "accepting is only valid for dfa")
            qs = [_int(t, filename, no, "accepting") for t in toks[1:]]
            outputs.update(dict.fromkeys(qs, 1))
            states += [(no, "accepting state", q) for q in qs]
        elif d == "output":
            if kind == "dfa":
                raise ParseError(filename, no, "dfa uses `accepting`, not `output`")
            if kind == "moore":
                if len(toks) != 3:
                    raise ParseError(filename, no, "moore output: `output state value`")
                key = q = _int(toks[1], filename, no, "output state")
                value = toks[2]
            else:
                if len(toks) != 4 or alphabet is None:
                    raise ParseError(
                        filename, no, "mealy output: `output state symbol value` after alphabet"
                    )
                q = _int(toks[1], filename, no, "output state")
                key = (q, _symbol(alphabet, toks[2], filename, no))
                value = toks[3]
            if not value.isprintable():
                raise ParseError(filename, no, f"output value {value!r} is not printable")
            if key in outputs:
                raise ParseError(filename, no, f"duplicate output for {toks[1]}")
            outputs[key] = value
            states.append((no, "output state", q))
        elif d == "trans":
            if len(toks) != 4:
                raise ParseError(filename, no, "trans: `trans src symbol dst`")
            if alphabet is None:
                raise ParseError(filename, no, "trans before alphabet directive")
            src = _int(toks[1], filename, no, "trans source")
            a = _symbol(alphabet, toks[2], filename, no)
            dst = _int(toks[3], filename, no, "trans target")
            key = (src, a)
            if key in delta:
                raise ParseError(filename, no, f"duplicate transition for state {src}")
            delta[key] = dst
            states += [(no, "trans source", src), (no, "trans target", dst)]
        else:
            raise ParseError(filename, no, f"unknown directive {d!r}")
    for name, val in (("alphabet", alphabet), ("states", n_states), ("initial", initial)):
        if val is None:
            raise ParseError(filename, last, f"missing {name} directive")
    _in_range(states, n_states, "states", filename)
    syms = alphabet.symbols

    def grid(found: dict, what: str) -> list:
        """found's values, one row per state over the alphabet."""
        on = lambda k: f"{what} for state {k[0]} on {syms[k[1]]!r}"
        keys = ([(q, a) for a in range(len(syms))] for q in range(n_states))
        return _total(found, keys, on, filename, last)

    rows = grid(delta, "transition")
    if kind == "dfa":
        out = [outputs.get(q, 0) for q in range(n_states)]
    elif kind == "moore":
        out = _total(outputs, [range(n_states)], "output for state {}".format, filename, last)[0]
    else:
        out = grid(outputs, "output")
    return Fsm(kind, alphabet, n_states, initial, rows, out)


def _parse_wa(items, filename: str, last: int) -> Wa:
    alphabet = None
    dim = None
    init: dict[int, tuple[int, int]] = {}  # weights as (p, q), from _rational
    final: dict[int, tuple[int, int]] = {}
    trans: dict[tuple[int, int, int], tuple[int, int]] = {}
    states: list[tuple[int, str, int]] = []  # (line, what, state) of every state named
    for no, toks in items:
        d = toks[0]
        if d == "alphabet":
            _once(alphabet, d, filename, no)
            alphabet = _alphabet(toks, filename, no)
        elif d == "dim":
            _once(dim, d, filename, no)
            dim = _count(toks, filename, no)
        elif d in ("init", "final"):
            state, weight = _args(toks, f"{d} state weight", filename, no)
            q = _int(state, filename, no, f"{d} state")
            vec = init if d == "init" else final
            if q in vec:
                raise ParseError(filename, no, f"duplicate {d} weight for state {q}")
            vec[q] = _rational(weight, filename, no)
            states.append((no, f"{d} state", q))
        elif d == "trans":
            if len(toks) != 5 or alphabet is None:
                raise ParseError(filename, no, "trans: `trans src sym dst weight` after alphabet")
            src = _int(toks[1], filename, no, "trans source")
            a = _symbol(alphabet, toks[2], filename, no)
            dst = _int(toks[3], filename, no, "trans target")
            key = (src, a, dst)
            if key in trans:
                raise ParseError(filename, no, "duplicate transition weight")
            trans[key] = _rational(toks[4], filename, no)
            states += [(no, "trans source", src), (no, "trans target", dst)]
        else:
            raise ParseError(filename, no, f"unknown directive {d!r}")
    if alphabet is None or dim is None:
        raise ParseError(filename, last, "missing alphabet or dim directive")
    _in_range(states, dim, "dim", filename)
    mats: list[dict] = [{} for _ in alphabet.symbols]  # mats[a][dst][src]
    for (src, a, dst), w in trans.items():
        mats[a].setdefault(dst, {})[src] = w
    return Wa._of(alphabet, dim, _int_form(dim, init, mats, final))


def _parse_rna(items, filename: str, last: int) -> Rna:
    locs: list[tuple[str, int]] = []
    index: dict[str, int] = {}
    initial = None
    accepting: list[tuple[str, int]] = []
    raw_trans: list[tuple[int, str, int | None, str, tuple[str, ...]]] = []
    for no, toks in items:
        d = toks[0]
        if d == "loc":
            name, arity = _args(toks, "loc name arity", filename, no)
            if name in index:
                raise ParseError(filename, no, f"duplicate location {name!r}")
            arity = _int(arity, filename, no, "arity")
            if arity < 0:
                raise ParseError(filename, no, "arity must be nonnegative")
            index[name] = len(locs)
            locs.append((name, arity))
        elif d == "initial":
            _once(initial, d, filename, no)
            (name,) = _args(toks, "initial location", filename, no)
            initial = (name, no)
        elif d == "accepting":
            accepting += [(name, no) for name in toks[1:]]
        elif d == "trans":
            if len(toks) < 3:
                raise ParseError(filename, no, "trans: `trans src guard target sources...`")
            src = toks[1]
            if toks[2] == "fresh":
                guard, rest = None, toks[3:]
            elif toks[2] == "eq":
                if len(toks) < 4:
                    raise ParseError(filename, no, "eq guard needs a register index")
                guard, rest = _int(toks[3], filename, no, "guard register"), toks[4:]
            else:
                raise ParseError(filename, no, f"unknown guard {toks[2]!r}")
            if not rest:
                raise ParseError(filename, no, "trans is missing its target location")
            raw_trans.append((no, src, guard, rest[0], tuple(rest[1:])))
        else:
            raise ParseError(filename, no, f"unknown directive {d!r}")
    if not locs:
        raise ParseError(filename, last, "no locations declared")
    if initial is None:
        raise ParseError(filename, last, "missing initial directive")

    def loc_of(name: str, no: int) -> int:
        if name not in index:
            raise ParseError(filename, no, f"unknown location {name!r}")
        return index[name]

    init_idx = loc_of(*initial)
    if locs[init_idx][1] != 0:
        raise ParseError(filename, initial[1], "initial location must have arity 0")
    acc_idx = frozenset(loc_of(*a) for a in accepting)
    rules: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}  # in file order
    for no, src, guard, target, sources in raw_trans:
        si = loc_of(src, no)
        arity = locs[si][1]
        g = arity if guard is None else guard - 1
        if guard is not None and not 1 <= guard <= arity:
            raise ParseError(filename, no, f"guard register {guard} out of range for {src!r}")
        ti = loc_of(target, no)
        asg = []
        for tok in sources:
            if tok == "x":
                asg.append(X_SOURCE)
            elif tok[:1] == "r" and (k := _int(tok[1:], filename, no, "assignment register")) > 0:
                asg.append(k)
            else:
                raise ParseError(filename, no, f"bad assignment source {tok!r} (use x or rK)")
        if (si, g) in rules:
            raise ParseError(filename, no, f"duplicate rule for {src!r} and this guard")
        rules[(si, g)] = (ti, tuple(asg))

    def missing(k: tuple[int, int]) -> str:
        name, arity = locs[k[0]]
        return f"rule for {name!r} on guard " + ("fresh" if k[1] == arity else f"eq {k[1] + 1}")

    keys = ([(i, g) for g in range(arity + 1)] for i, (_, arity) in enumerate(locs))
    groups = _total(rules, keys, missing, filename, last)
    try:
        return Rna(locs, init_idx, acc_idx, groups)
    except ValueError:
        # only a rule can be ill formed here: report the first one in the file
        for (no, *_), (key, rule) in zip(raw_trans, rules.items()):
            try:
                check_rule(locs, *key, *rule)
            except ValueError as e:
                raise ParseError(filename, no, str(e)) from None
        raise


# --------------------------------------------------------------- serializers


def serialize_machine(m: Fsm | Wa | Rna) -> str:
    if isinstance(m, Fsm):
        return _serialize_fsm(m)
    if isinstance(m, Wa):
        return _serialize_wa(m)
    if isinstance(m, Rna):
        return _serialize_rna(m)
    raise TypeError(f"cannot serialize {type(m).__name__}")


def _serialize_fsm(m: Fsm) -> str:
    lines = [
        f"kind {m.kind}",
        "alphabet " + " ".join(m.alphabet.symbols),
        f"states {m.n_states}",
        f"initial {m.initial}",
    ]
    if m.kind == "dfa":
        acc = [str(q) for q in range(m.n_states) if m.output[q] == 1]
        if acc:
            lines.append("accepting " + " ".join(acc))
    elif m.kind == "moore":
        lines += [f"output {q} {m.output[q]}" for q in range(m.n_states)]
    else:
        lines += [
            f"output {q} {m.alphabet.symbols[a]} {m.output[q][a]}"
            for q in range(m.n_states)
            for a in range(len(m.alphabet))
        ]
    lines += [
        f"trans {q} {m.alphabet.symbols[a]} {m.delta[q][a]}"
        for q in range(m.n_states)
        for a in range(len(m.alphabet))
    ]
    return "\n".join(lines) + "\n"


def _serialize_wa(m: Wa) -> str:
    lines = ["kind wa", "alphabet " + " ".join(m.alphabet.symbols), f"dim {m.dim}"]
    lines += [f"init {q} {v}" for q, v in enumerate(m.s0) if v != 0]
    lines += [f"final {q} {v}" for q, v in enumerate(m.f) if v != 0]
    for a, sym in enumerate(m.alphabet.symbols):
        for src in range(m.dim):
            for dst in range(m.dim):
                v = m.mats[a][dst][src]
                if v != 0:
                    lines.append(f"trans {src} {sym} {dst} {v}")
    return "\n".join(lines) + "\n"


def _serialize_rna(m: Rna) -> str:
    lines = ["kind rna"]
    lines += [f"loc {name} {arity}" for name, arity in m.locations]
    lines.append(f"initial {m.loc_name(m.initial)}")
    if m.accepting:
        lines.append("accepting " + " ".join(sorted(m.loc_name(q) for q in m.accepting)))
    for i, (name, arity) in enumerate(m.locations):
        for g, (target, asg) in enumerate(m.rules[i]):
            guard = "fresh" if g == arity else f"eq {g + 1}"
            srcs = " ".join("x" if s == X_SOURCE else f"r{s}" for s in asg)
            line = f"trans {name} {guard} {m.loc_name(target)}"
            lines.append(line + (f" {srcs}" if srcs else ""))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- suite files


def serialize_suite(t: Suite) -> str:
    """One word (or pattern) per line, `-eps-` for the empty one."""
    if not isinstance(t, Suite):
        raise TypeError(f"cannot serialize {type(t).__name__}")
    return "".join(line + "\n" for line in t.lines())


def _read_suite(cls, alphabet, text: str, filename: str, lookup, grow, checks) -> Suite:
    """The `cls` suite over `alphabet` of a file with one item per line, read by prefix.

    Each line is anchored at its longest proper prefix among the lines
    (`prefix_walk` over the sorted texts; tokens are printable and hold no
    space, so the anchors are exactly the longest prefix items). The text
    after the anchor's is normalized (tokens joined by single spaces), or
    the file is read again with every line normalized. Its tokens go
    through `lookup` and make the line's tail in the plan; `grow`, if
    given, checks it against the anchor's largest symbol. If a lookup or
    a tail fails, each line check in turn runs over the file in order, and
    the first line one rejects is reported. A line's code is its anchor's
    and chr of each tail symbol (below 0x110000), so codes compare as the
    symbols do. If the (length, code) keys strictly increase, the suite is
    the lines and plan, its items formed on demand; otherwise every item
    is formed, deduplicated and sorted.
    """
    lines = [line for line in text.splitlines() if line[:1] not in ("", "#")]
    keys = ["" if line == EPS_TOKEN else line for line in lines]
    anchors, order = prefix_walk(keys, " ")
    plan: list = [None] * len(keys)
    codes, tops = [""] * (len(keys) + 1), [0] * (len(keys) + 1)  # the root's at index -1
    try:
        for i in order:
            a = anchors[i]
            rest = keys[i][len(keys[a]) + 1 if a >= 0 else 0 :]
            toks = rest.split()
            if " ".join(toks) != rest:  # read the file again with every line normalized
                text = "\n".join(" ".join(line.split()) for line in text.splitlines())
                return _read_suite(cls, alphabet, text, filename, lookup, grow, checks)
            tail = tuple(map(lookup, toks))
            if grow:
                tops[i] = grow(tops[a], tail)
            plan[i] = (a, tail)
            codes[i] = codes[a] + "".join(map(chr, tail))
    except (KeyError, ValueError):
        for check in checks:
            for no, line in enumerate(text.splitlines(), start=1):
                toks = line.split()
                try:
                    if toks and toks[0][0] != "#" and toks != [EPS_TOKEN]:
                        check(toks)
                except ValueError as e:
                    raise ParseError(filename, no, str(e)) from e
        raise
    codes.pop()
    kept = canonical(codes, codes)  # the distinct codes, sorted, if not already
    if kept is codes:
        return cls._made(alphabet, None, tuple(lines), tuple(plan))
    return cls._made(alphabet, tuple(cls._word._of(tuple(map(ord, code))) for code in kept))


def parse_suite(text: str, alphabet: Alphabet, filename: str = "<string>") -> Suite:
    """A word suite file: one word per line, its symbols named by the
    alphabet. A file in canonical order keeps its lines and plan. Every
    symbol is an alphabet index, so the suite is made unchecked."""
    check = [lambda toks: alphabet.word(*toks)]
    return _read_suite(Suite, alphabet, text, filename, alphabet._index.__getitem__, None, check)


def _class(tok: str) -> int:
    """A pattern class, written as it renders: ASCII digits, no sign, no leading zero."""
    if tok.isascii() and tok.isdigit() and (tok[0] != "0" or tok == "0"):
        return int(tok)
    raise ValueError(f"pattern class {tok!r} is not a plain decimal numeral")


class _Classes(dict):
    """Each token read so far and its class, so `_class` checks a token once."""

    def __missing__(self, tok: str) -> int:
        self[tok] = c = _class(tok)
        return c


def _pattern(toks: list[str]) -> SymbolicWord:
    """A line's classes as int() reads them, checked to be canonical."""
    try:
        classes = tuple(map(int, toks))
    except ValueError:
        raise ValueError(f"pattern classes must be integers: {toks}") from None
    return SymbolicWord(classes)


def _grow(top: int, tail: tuple) -> int:
    """The largest class after `tail`, top before it; each class is an earlier one or the next."""
    for c in tail:
        if not 0 < c <= top + 1:
            raise ValueError("pattern is not canonical")
        top = max(top, c)
    return top


def parse_patterns(text: str, filename: str = "<string>") -> OrbitSuite:
    """A pattern suite file: one orbit pattern per line, as class numbers.
    Classes that are not integers or not canonical are reported before
    one that is not a plain numeral. A canonical file keeps its lines and
    plan. Every tail is checked to extend its anchor's pattern canonically
    (`_grow`), so the suite is made unchecked. Each distinct token is
    checked once, through a `_Classes` of this call."""
    checks = [_pattern, lambda toks: list(map(_class, toks))]
    return _read_suite(OrbitSuite, None, text, filename, _Classes().__getitem__, _grow, checks)
