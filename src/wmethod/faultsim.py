"""Mutant generation and randomized completeness experiments.

A completeness experiment draws mutants of a specification inside the
fault domain the W suite is complete for, executes the suite on each
mutant, and checks every survivor against the exact equivalence oracle.
A surviving in-domain mutant that the oracle rejects would disprove
completeness; the experiment fails in that case.

The specification's values are computed once. A mutant's values are
computed lazily, so each mutant runs the suite only up to its first
differing word, the one the report names; a survivor runs every word.
`run` (the agree_values path) still executes every word.

Reports are plain text, ordered by mutant index, and byte-identical for
identical mutation specs (the PRNG seed is part of the report header).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import fsm as F
from . import nominal as N
from . import weighted as W
from .family import family_of
from .nominal import OracleLimitError
from .words import NotMinimalError, Suite

@dataclass(frozen=True)
class MutationSpec:
    """Parameters of a reproducible mutant stream; the family is the
    specification's."""

    max_extra_states: int
    n_mutants: int
    seed: int

    def __post_init__(self):
        if self.max_extra_states < 0 or self.n_mutants < 0:
            raise ValueError("max_extra_states and n_mutants must be nonnegative")


# ---------------------------------------------------------------- fsm mutants


def redirect_transition(m: F.Fsm, q: int, a: int, target: int) -> F.Fsm:
    delta = [list(row) for row in m.delta]
    delta[q][a] = target
    return F.Fsm(m.kind, m.alphabet, m.n_states, m.initial, tuple(map(tuple, delta)), m.output)


def set_output(m: F.Fsm, q: int, value, a: int | None = None) -> F.Fsm:
    if m.kind == "mealy":
        out = [list(row) for row in m.output]
        out[q][a] = value
        return F.Fsm(m.kind, m.alphabet, m.n_states, m.initial, m.delta, tuple(map(tuple, out)))
    out = list(m.output)
    out[q] = value
    return F.Fsm(m.kind, m.alphabet, m.n_states, m.initial, m.delta, tuple(out))


def _alt_output(m: F.Fsm, current, rng: random.Random):
    if m.kind == "dfa":
        return 1 - current
    values = sorted(
        {v for row in (m.output if m.kind == "mealy" else [m.output]) for v in row} - {current},
        key=str,
    )
    return rng.choice(values) if values else f"mut{rng.randrange(10)}"


def _grow_states(m: F.Fsm, extra: int, rng: random.Random) -> F.Fsm:
    n = m.n_states + extra
    delta = [list(row) for row in m.delta]
    out = list(m.output)
    syms = len(m.alphabet)
    for q in range(m.n_states, n):
        delta.append([rng.randrange(n) for _ in range(syms)])
        if m.kind == "mealy":
            pool = sorted({v for row in m.output for v in row}, key=str)
            out.append([rng.choice(pool) for _ in range(syms)])
        elif m.kind == "dfa":
            out.append(rng.randrange(2))
        else:
            pool = sorted(set(m.output), key=str)
            out.append(rng.choice(pool))
    # wire one existing transition into the new region so it can matter
    q, a = rng.randrange(m.n_states), rng.randrange(syms)
    delta[q][a] = rng.randrange(m.n_states, n)
    if m.kind == "mealy":
        out = tuple(tuple(r) for r in out)
    else:
        out = tuple(out)
    return F.Fsm(m.kind, m.alphabet, n, m.initial, tuple(map(tuple, delta)), out)


def gen_mutants_fsm(spec: F.Fsm, ms: MutationSpec) -> list[F.Fsm]:
    """Deterministic stream of mutants with at most n + max_extra_states states."""
    if not F.is_minimal(spec):
        raise NotMinimalError("mutants are generated from a minimal specification")
    rng = random.Random(ms.seed)
    syms = len(spec.alphabet)
    mutants = []
    for _ in range(ms.n_mutants):
        ops = ["redirect", "output"] + (["grow"] if ms.max_extra_states > 0 else [])
        op = rng.choice(ops)
        if op == "redirect":
            q, a = rng.randrange(spec.n_states), rng.randrange(syms)
            mutants.append(redirect_transition(spec, q, a, rng.randrange(spec.n_states)))
        elif op == "output":
            q = rng.randrange(spec.n_states)
            a = rng.randrange(syms) if spec.kind == "mealy" else None
            cur = spec.output[q][a] if spec.kind == "mealy" else spec.output[q]
            mutants.append(set_output(spec, q, _alt_output(spec, cur, rng), a))
        else:
            mutants.append(_grow_states(spec, rng.randint(1, ms.max_extra_states), rng))
    return mutants


# ----------------------------------------------------------------- wa mutants


def _perturb_entry(a: W.Wa, rng: random.Random) -> W.Wa:
    s = rng.randrange(len(a.alphabet))
    i, j = rng.randrange(a.dim), rng.randrange(a.dim)
    eps = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
    mats = [[list(row) for row in m] for m in a.mats]
    mats[s][i][j] += eps
    return W.Wa(a.alphabet, a.dim, a.s0, tuple(tuple(map(tuple, m)) for m in mats), a.f)


def _append_state(a: W.Wa, rng: random.Random) -> W.Wa:
    d = a.dim + 1
    small = [Fraction(x) for x in (-1, 0, 0, 1)]
    mats = []
    for m in a.mats:
        rows = [list(row) + [rng.choice(small)] for row in m]
        rows.append([rng.choice(small) for _ in range(d)])
        mats.append(tuple(map(tuple, rows)))
    return W.Wa(a.alphabet, d, a.s0 + (Fraction(0),), tuple(mats), a.f + (rng.choice(small),))


def gen_mutants_wa(spec: W.Wa, ms: MutationSpec, p: Suite, k: int) -> list[W.Wa]:
    """In-domain mutants: a single perturbed entry or one appended state,
    resampled until P . Sigma^{<=k} spans the mutant's state space."""
    rng = random.Random(ms.seed)
    mutants = []
    attempts = 0
    while len(mutants) < ms.n_mutants and attempts < 100 * max(ms.n_mutants, 1):
        attempts += 1
        grow = ms.max_extra_states > 0 and rng.random() < 0.3
        cand = _append_state(spec, rng) if grow else _perturb_entry(spec, rng)
        if W.in_fault_domain_wa(cand, p, k):
            mutants.append(cand)
    return mutants


# ---------------------------------------------------------------- rna mutants


def _random_assignment(arity: int, target_arity: int, guard: int, rng: random.Random):
    # sources: registers 1..arity plus the input letter; on guard "eq g"
    # the letter aliases register g+1, so using both would duplicate atoms
    sources = [N.X_SOURCE] + list(range(1, arity + 1))
    if guard < arity:
        sources.remove(guard + 1)
    if target_arity > len(sources):
        return None
    return tuple(rng.sample(sources, target_arity))


def gen_mutants_rna(spec: N.Rna, ms: MutationSpec, p: N.OrbitSuite) -> list[N.Rna]:
    """In-domain mutants: one flipped accepting bit or one retargeted rule;
    candidates with no weak state cover under p are discarded."""
    rng = random.Random(ms.seed)
    nloc = len(spec.locations)
    mutants = []
    attempts = 0
    while len(mutants) < ms.n_mutants and attempts < 100 * max(ms.n_mutants, 1):
        attempts += 1
        if rng.random() < 0.5:
            loc = rng.randrange(nloc)
            acc = set(spec.accepting)
            acc.symmetric_difference_update({loc})
            cand = N.Rna(spec.locations, spec.initial, frozenset(acc), spec.rules)
        else:
            loc = rng.randrange(nloc)
            arity = spec.arity(loc)
            guard = rng.randrange(arity + 1)
            target = rng.randrange(nloc)
            asg = _random_assignment(arity, spec.arity(target), guard, rng)
            if asg is None:
                continue
            rules = [list(g) for g in spec.rules]
            rules[loc][guard] = (target, asg)
            cand = N.Rna(spec.locations, spec.initial, spec.accepting, tuple(map(tuple, rules)))
        try:
            N.weak_cover_map_rna(cand, p)
        except ValueError:
            continue
        mutants.append(cand)
    return mutants


# ------------------------------------------------------------------ reporting


@dataclass(frozen=True)
class MutantResult:
    index: int
    in_domain: bool
    killed_by: str | None  # rendered word/pattern, None if the suite passed
    oracle: str  # 'equiv' | 'inequiv' | 'timeout'


@dataclass(frozen=True)
class ExperimentReport:
    family: str
    seed: int
    k: int
    suite_size: int
    results: tuple[MutantResult, ...]

    @property
    def ok(self) -> bool:
        """No in-domain mutant survived while being inequivalent (or unchecked)."""
        return not any(
            r.in_domain and r.killed_by is None and r.oracle != "equiv" for r in self.results
        )

    def render(self) -> str:
        lines = [
            f"faultsim family {self.family} seed {self.seed} k {self.k} "
            f"suite-size {self.suite_size}"
        ]
        killed = survived_eq = survived_ineq = timeouts = 0
        for r in self.results:
            dom = "in-domain" if r.in_domain else "out-domain"
            if r.killed_by is not None:
                fate = f"killed-by {r.killed_by}"
                killed += 1
            else:
                fate = "survived"
                if r.oracle == "equiv":
                    survived_eq += 1
                elif r.oracle == "inequiv":
                    survived_ineq += 1
            if r.oracle == "timeout":
                timeouts += 1
            lines.append(f"mutant {r.index} {dom} {fate} oracle {r.oracle}")
        lines.append(
            f"summary total {len(self.results)} killed {killed} "
            f"survived-equiv {survived_eq} survived-inequiv {survived_ineq} "
            f"timeouts {timeouts} verdict {'pass' if self.ok else 'FAIL'}"
        )
        return "\n".join(lines) + "\n"


def _mutants(family: str, spec, k: int, ms: MutationSpec, p) -> list[tuple[object, bool]]:
    """The mutant stream with each mutant's fault-domain membership: the
    one per-family step of an experiment."""
    if family == "fsm":
        return [(m, m.n_states <= spec.n_states + k) for m in gen_mutants_fsm(spec, ms)]
    if family == "wa":  # gen_mutants_wa and gen_mutants_rna only return in-domain mutants
        return [(m, True) for m in gen_mutants_wa(spec, ms, p, k)]
    return [(m, True) for m in gen_mutants_rna(spec, ms, p)]


def completeness_experiment(spec, k: int, ms: MutationSpec) -> ExperimentReport:
    """Generate mutants, execute the W suite of order k, oracle-check survivors."""
    fam = family_of(spec)
    _, p, w = fam.analyze(spec, False)
    suite = fam.suite(p, k, w)
    expected = list(fam.values(spec, suite))
    results = []
    for idx, (mut, in_domain) in enumerate(_mutants(fam.name, spec, k, ms, p)):
        # the mutant's values are lazy: it runs only up to its first differing word
        got = fam.values(mut, suite)
        word = next((t for t, x, y in zip(suite, expected, got) if x != y), None)
        try:
            oracle = "equiv" if fam.equiv(spec, mut).equivalent else "inequiv"
        except OracleLimitError:
            oracle = "timeout"
        killed_by = fam.render(word, spec) if word is not None else None
        results.append(MutantResult(idx, in_domain, killed_by, oracle))
    return ExperimentReport(fam.name, ms.seed, k, len(suite), tuple(results))
