"""Seeded inputs and the CLI session of each workload.

A workload is a list of specifications, each with implementations made by
the benchmark's own mutators (never by `wmethod`'s mutant generators, so
a change to the faultsim mutant stream cannot change what `run` and
`equiv` receive). Machine sizes are fixed per workload and only the
structure is drawn from the seed, so that every seed asks for about the
same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from reference import Fsm, Rna, Wa

WORKLOADS = ("fsm-chain", "wa-mutants", "rna-orbits")


@dataclass
class Spec:
    name: str
    machine: object
    k: int
    impls: list = field(default_factory=list)
    prefix_closed: bool = False
    mutants: int = 0
    extra_states: int = 0
    faultsim_seed: int = 0


@dataclass
class Command:
    kind: str  # gen | run | equiv | faultsim
    argv: list[str]
    spec: int
    impl: int | None = None


@dataclass
class Workload:
    name: str
    seed: int
    specs: list[Spec]
    ext: str

    def paths(self, workdir: Path, i: int) -> dict[str, Path]:
        s = self.specs[i]
        return {
            "spec": workdir / f"{s.name}.{self.ext}",
            "suite": workdir / f"{s.name}.suite",
            **{f"impl{j}": workdir / f"{s.name}_i{j}.{self.ext}" for j in range(len(s.impls))},
        }

    def write(self, workdir: Path) -> None:
        for i, s in enumerate(self.specs):
            p = self.paths(workdir, i)
            p["spec"].write_text(s.machine.text(), encoding="utf-8")
            for j, impl in enumerate(s.impls):
                p[f"impl{j}"].write_text(impl.text(), encoding="utf-8")

    def session(self, workdir: Path) -> list[Command]:
        """gen for each spec, run and equiv for each implementation, faultsim for each spec."""
        cmds: list[Command] = []
        for i, s in enumerate(self.specs):
            p = self.paths(workdir, i)
            argv = ["gen", "--k", str(s.k), "-o", str(p["suite"])]
            argv += ["--prefix-closed"] if s.prefix_closed else []
            cmds.append(Command("gen", argv + [str(p["spec"])], i))
        for i, s in enumerate(self.specs):
            p = self.paths(workdir, i)
            for j in range(len(s.impls)):
                impl = str(p[f"impl{j}"])
                cmds.append(Command("run", ["run", str(p["spec"]), impl, str(p["suite"])], i, j))
                cmds.append(Command("equiv", ["equiv", str(p["spec"]), impl], i, j))
        for i, s in enumerate(self.specs):
            argv = ["--seed", str(s.faultsim_seed), "faultsim", "--k", str(s.k),
                    "--mutants", str(s.mutants), "--extra-states", str(s.extra_states)]
            cmds.append(Command("faultsim", argv + [str(self.paths(workdir, i)["spec"])], i))
        return cmds


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "fsm-chain":
        return Workload(name, seed, _fsm_chain(rng, tiny), "aut")
    if name == "wa-mutants":
        return Workload(name, seed, _wa_mutants(rng, tiny), "wa")
    if name == "rna-orbits":
        return Workload(name, seed, _rna_orbits(rng, tiny), "rna")
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ------------------------------------------------------------------ fsm-chain
#
# Chain machines (q -a-> q+1 mod n, b -> 0, one marked state) are minimal
# and need a characterization word for almost every state, so W and the
# suite grow with n: about 2n^2 words of length about n. The seed picks
# the marked state, which leaves the suite size unchanged.

FSM_SIZES = (("dfa", 72, False), ("mealy", 32, True))
FSM_TINY = (("dfa", 6, False), ("mealy", 5, True))
FSM_MUTANTS = 3


def _chain(kind: str, n: int, mark: int) -> Fsm:
    delta = [((q + 1) % n, 0) for q in range(n)]
    if kind == "dfa":
        out = [int(q == mark) for q in range(n)]
    else:
        out = [("1" if q == mark else "0", "0") for q in range(n)]
    return Fsm(kind, ("a", "b"), delta, out)


def _fsm_redirect(m: Fsm, rng: random.Random) -> Fsm:
    q, a = rng.randrange(m.size), rng.randrange(len(m.symbols))
    delta = [list(r) for r in m.delta]
    delta[q][a] = rng.choice([t for t in range(m.size) if t != delta[q][a]])
    return Fsm(m.kind, m.symbols, delta, m.out, m.initial)


def _fsm_flip(m: Fsm, rng: random.Random) -> Fsm:
    # never the initial state: `wmethod equiv` prints an empty-word
    # counterexample as `None` (see CHANGES.md)
    q = rng.choice([q for q in range(m.size) if q != m.initial])
    out = list(m.out)
    if m.kind == "dfa":
        out[q] = 1 - out[q]
    else:
        a = rng.randrange(len(m.symbols))
        row = list(out[q])
        row[a] = "1" if row[a] == "0" else "0"
        out[q] = tuple(row)
    return Fsm(m.kind, m.symbols, m.delta, out, m.initial)


def _fsm_add_state(m: Fsm, rng: random.Random) -> Fsm:
    """A copy of one state, entered by one redirected transition: equivalent, n+1 states."""
    q, a = rng.randrange(m.size), rng.randrange(len(m.symbols))
    c = m.delta[q][a]
    delta = [list(r) for r in m.delta] + [list(m.delta[c])]
    delta[q][a] = m.size
    return Fsm(m.kind, m.symbols, delta, list(m.out) + [m.out[c]], m.initial)


def _fsm_chain(rng: random.Random, tiny: bool) -> list[Spec]:
    specs = []
    for kind, n, prefix_closed in FSM_TINY if tiny else FSM_SIZES:
        m = _chain(kind, n, rng.randrange(n))
        s = Spec(f"{kind}{n}", m, k=1, prefix_closed=prefix_closed,
                 mutants=FSM_MUTANTS, extra_states=1, faultsim_seed=rng.randrange(10**6))
        s.impls = [_fsm_add_state(m, rng), _fsm_redirect(m, rng), _fsm_flip(m, rng)]
        specs.append(s)
    return specs


# ----------------------------------------------------------------- wa-mutants
#
# Many small random weighted automata: dimensions 2-5 in a fixed rotation,
# k alternating 0 and 1, weights from a small pool that includes halves.
# The cost of exact arithmetic depends on the weights drawn, so the machines
# come from a pool that does not depend on the seed; the seed draws a
# renumbering of the states of each (which leaves the series, the spanning
# witnesses and so the suite unchanged), the implementations and the
# faultsim mutant stream.

WA_SPECS = 24
WA_TINY = 4
WA_MUTANTS = 4
WA_WEIGHTS = tuple(Fraction(x) for x in ("0", "0", "0", "1", "-1", "1/2", "-1/2", "2"))


def _random_wa(dim: int, rng: random.Random) -> Wa:
    """A random WA whose reachable and observable spaces are both full."""
    for _ in range(100_000):
        def vec():
            return [rng.choice(WA_WEIGHTS) for _ in range(dim)]
        m = Wa(("a", "b"), vec(), [[vec() for _ in range(dim)] for _ in range(2)], vec())
        if m.reachable_rank() == dim and m.observable_rank() == dim:
            return m
    raise RuntimeError(f"no minimal weighted automaton of dimension {dim}")


def _wa_relabel(m: Wa, rng: random.Random) -> Wa:
    """The same machine with state q renumbered new[q]."""
    new = rng.sample(range(m.size), m.size)

    def vec(v):
        out = [None] * m.size
        for q, x in enumerate(v):
            out[new[q]] = x
        return out

    def mat(x):
        out = [[None] * m.size for _ in range(m.size)]
        for dst, row in enumerate(x):
            for src, w in enumerate(row):
                out[new[dst]][new[src]] = w
        return out

    return Wa(m.symbols, vec(m.s0), [mat(x) for x in m.mats], vec(m.f))


def _wa_perturb(m: Wa, rng: random.Random) -> Wa:
    mats = [[list(r) for r in x] for x in m.mats]
    a, i, j = rng.randrange(len(mats)), rng.randrange(m.size), rng.randrange(m.size)
    mats[a][i][j] += rng.choice((Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)))
    return Wa(m.symbols, m.s0, mats, m.f)


def _wa_conjugate(m: Wa, rng: random.Random) -> Wa:
    """T m T^-1 with T = I + c E_ij: different weights, the same series."""
    d = m.size
    i, j = rng.sample(range(d), 2)
    c = rng.choice((Fraction(-1), Fraction(1)))

    def t(v):  # T v
        v = list(v)
        v[i] += c * v[j]
        return v

    def mat(x):  # T x T^-1: add c * row j to row i, then -c * column i to column j
        rows = [list(r) for r in x]
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        for r in rows:
            r[j] -= c * r[i]
        return rows

    f = list(m.f)  # f^T T^-1: column i times -c added to column j
    f[j] -= c * f[i]
    return Wa(m.symbols, t(m.s0), [mat(x) for x in m.mats], f)


def _wa_add_state(m: Wa, rng: random.Random) -> Wa:
    d = m.size + 1
    small = (Fraction(-1), Fraction(0), Fraction(0), Fraction(1))
    mats = [[list(r) + [rng.choice(small)] for r in x] + [[rng.choice(small) for _ in range(d)]]
            for x in m.mats]
    return Wa(m.symbols, list(m.s0) + [Fraction(0)], mats, list(m.f) + [rng.choice(small)])


def _wa_mutants(rng: random.Random, tiny: bool) -> list[Spec]:
    specs = []
    for i in range(WA_TINY if tiny else WA_SPECS):
        dim, k = 2 + i % 4, (i // 4) % 2
        m = _wa_relabel(_random_wa(dim, random.Random(f"wa-pool:{i}")), rng)
        s = Spec(f"wa{i}", m, k=k, mutants=WA_MUTANTS, extra_states=1,
                 faultsim_seed=rng.randrange(10**6))
        s.impls = [_wa_conjugate(m, rng), _wa_perturb(m, rng), _wa_add_state(m, rng)]
        specs.append(s)
    return specs


# ----------------------------------------------------------------- rna-orbits
#
# Random minimal register automata over a fixed rotation of arity
# profiles; every location is reachable, and minimality is checked here
# with our own bisimulation. Random machines differ widely in the size of
# their characterization sets, so the machines come from a pool that does
# not depend on the seed; the seed draws an isomorphic copy of each
# (locations renamed, acceptance maybe complemented), the implementations
# and the faultsim mutant stream.

RNA_ARITIES = ((0, 1, 2), (0, 1, 2, 3), (0, 2, 1), (0, 1, 1, 2), (0, 1, 3, 2), (0, 2, 2, 1))
RNA_TINY = ((0, 1), (0, 1, 2))
RNA_MUTANTS = 20


def _rna_rule(arities, loc: int, g: int, rng: random.Random):
    r = arities[loc]
    sources = [0] + [s for s in range(1, r + 1) if s != g + 1]
    target = rng.choice([t for t, a in enumerate(arities) if a <= len(sources)])
    return target, tuple(rng.sample(sources, arities[target]))


def _random_rna(arities, rng: random.Random) -> Rna:
    locs = [(f"L{i}", r) for i, r in enumerate(arities)]
    for _ in range(100_000):
        rules = [[_rna_rule(arities, loc, g, rng) for g in range(r + 1)]
                 for loc, r in enumerate(arities)]
        accepting = {q for q in range(len(locs)) if rng.random() < 0.5}
        m = Rna(locs, accepting, rules)
        if len(m.reachable_locations()) == m.size and m.is_minimal():
            return m
    raise RuntimeError(f"no reachable minimal machine with arities {arities}")


def _rna_relabel(m: Rna, rng: random.Random) -> Rna:
    """An isomorphic copy: shuffled location names and, on a coin flip, the
    complementary acceptance, which keeps every distinction. The order of
    locations and registers stays, so the program explores the same state
    pairs in the same order and finds covers and characterization sets of
    the same patterns."""
    names = rng.sample(range(m.size), m.size)
    accepting = set(m.accepting)
    if rng.random() < 0.5:
        accepting = set(range(m.size)) - accepting
    return Rna([(f"L{names[l]}", r) for l, (_, r) in enumerate(m.locs)], accepting, m.rules)


def _rna_flip(m: Rna, rng: random.Random) -> Rna:
    # never the initial location, for the reason given at _fsm_flip
    loc = rng.choice([q for q in range(m.size) if q != m.initial])
    return Rna(m.locs, m.accepting ^ {loc}, m.rules, m.initial)


def _rna_retarget(m: Rna, rng: random.Random) -> Rna:
    arities = [r for _, r in m.locs]
    loc = rng.randrange(m.size)
    g = rng.randrange(arities[loc] + 1)
    rules = [list(group) for group in m.rules]
    rules[loc][g] = _rna_rule(arities, loc, g, rng)
    return Rna(m.locs, m.accepting, rules, m.initial)


def _rna_add_state(m: Rna, rng: random.Random) -> Rna:
    """A copy of one location, entered by one retargeted rule: equivalent."""
    loc = rng.randrange(m.size)
    g = rng.randrange(m.arity(loc) + 1)
    c, sources = m.rules[loc][g]
    rules = [list(group) for group in m.rules] + [list(m.rules[c])]
    rules[loc][g] = (m.size, sources)
    accepting = m.accepting | ({m.size} if c in m.accepting else set())
    return Rna(m.locs + [("copy", m.arity(c))], accepting, rules, m.initial)


def _rna_orbits(rng: random.Random, tiny: bool) -> list[Spec]:
    specs = []
    for i, arities in enumerate(RNA_TINY if tiny else RNA_ARITIES * 2):
        m = _rna_relabel(_random_rna(arities, random.Random(f"rna-pool:{i}")), rng)
        s = Spec(f"rna{i}", m, k=1, mutants=RNA_MUTANTS, faultsim_seed=rng.randrange(10**6))
        s.impls = [_rna_add_state(m, rng), _rna_flip(m, rng), _rna_retarget(m, rng)]
        specs.append(s)
    return specs
