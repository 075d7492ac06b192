"""The three machine families behind one set of operations.

Each family (FSMs, weighted automata, register automata) offers the
same operations: a canonical form of a specification, its state cover
and characterization set, the W suite, suite files, execution, the
equivalence oracle, minimization and word rendering. `family_of` is the
one place that maps a machine type to its family; the CLI and the
completeness experiments go through it instead of branching on types.

Operations call the family modules through their module attributes at
call time, so a function patched into a module is the one that runs.
"""

from __future__ import annotations

from . import formats as Fm
from . import fsm as F
from . import nominal as N
from . import weighted as W
from . import words as Wd
from .words import NotMinimalError, Suite


class _WordFamily:
    """Operations shared by the families whose suites are words over an alphabet."""

    def read_suite(self, text: str, m, filename: str) -> Suite:
        return Fm.parse_suite(text, m.alphabet, filename)

    def suite(self, p: Suite, k: int, w: Suite) -> Suite:
        return Wd.w_suite(p, p.alphabet, k, w)

    def prefix_close(self, t: Suite) -> Suite:
        return Wd.prefix_close(t)

    def render(self, word, m) -> str:
        return word.render(m.alphabet)


class _FsmFamily(_WordFamily):
    name = "fsm"

    def canonical(self, m: F.Fsm, allow: bool) -> F.Fsm:
        """m if it is reachable and minimal; otherwise its minimization if
        allowed, else NotMinimalError."""
        mm = F.minimize(m)
        if mm.n_states == m.n_states:
            return m
        if allow:
            return mm
        raise NotMinimalError("specification has unreachable or equivalent states; minimize first")

    def cover(self, m: F.Fsm) -> Suite:
        return F.state_cover(m)

    def charset(self, m: F.Fsm) -> Suite:
        return F.char_set(m)

    def values(self, m: F.Fsm, t: Suite) -> list:
        return F.suite_values(m, t)

    def agree(self, spec: F.Fsm, impl: F.Fsm, t: Suite):
        return F.agree_on(spec, impl, t)

    def equiv(self, a: F.Fsm, b: F.Fsm):
        return F.equiv(a, b)

    def minimize(self, m: F.Fsm) -> F.Fsm:
        return F.minimize(m)


class _WaFamily(_WordFamily):
    name = "wa"

    def canonical(self, m: W.Wa, allow: bool) -> W.Wa:
        rank = W.forward_basis(m).rank
        if W.is_minimal_wa(m) and rank == m.dim:
            return m
        if allow:
            return self.minimize(m)
        if rank < m.dim:
            raise NotMinimalError(
                f"state space not reachable (rank {rank} < dim {m.dim}); minimize first"
            )
        raise NotMinimalError("specification is not minimal; minimize first")

    def cover(self, m: W.Wa) -> Suite:
        fb = W.forward_basis(m)
        if fb.rank < m.dim:
            raise NotMinimalError(
                f"state space not spanned from the initial vector "
                f"(rank {fb.rank} < dim {m.dim}); minimize first"
            )
        return Suite(m.alphabet, fb.witnesses)

    def charset(self, m: W.Wa) -> Suite:
        w = Suite(m.alphabet, W.backward_basis(m).witnesses)
        if not w.contains_epsilon():
            raise NotMinimalError("output vector is zero; no characterization set exists")
        return w

    def values(self, m: W.Wa, t: Suite) -> list:
        return W.suite_values_wa(m, t)

    def agree(self, spec: W.Wa, impl: W.Wa, t: Suite):
        return W.agree_on_wa(spec, impl, t)

    def equiv(self, a: W.Wa, b: W.Wa):
        return W.equiv_wa(a, b)

    def minimize(self, m: W.Wa) -> W.Wa:
        mm = W.minimize_wa(m)
        if mm.dim == 0:
            raise NotMinimalError("machine recognizes the zero series")
        return mm


class _RnaFamily:
    name = "rna"

    def canonical(self, m: N.Rna, allow: bool) -> N.Rna:
        if N.is_minimal_rna(m):
            return m
        raise NotMinimalError(
            "specification is not minimal (no minimizer exists for rna machines)"
        )

    def cover(self, m: N.Rna) -> N.OrbitSuite:
        return N.state_cover_rna(m)

    def charset(self, m: N.Rna) -> N.OrbitSuite:
        return N.char_set_rna(m)

    def suite(self, p: N.OrbitSuite, k: int, w: N.OrbitSuite) -> N.OrbitSuite:
        return N.w_suite_rna(p, k, w)

    def prefix_close(self, t: N.OrbitSuite) -> N.OrbitSuite:
        raise ValueError("--prefix-closed applies to word suites, not orbit patterns")

    def read_suite(self, text: str, m: N.Rna, filename: str) -> N.OrbitSuite:
        return Fm.parse_patterns(text, filename)

    def values(self, m: N.Rna, t: N.OrbitSuite) -> list:
        return N.suite_values_rna(m, t)

    def agree(self, spec: N.Rna, impl: N.Rna, t: N.OrbitSuite):
        return N.agree_on_rna(spec, impl, t)

    def equiv(self, a: N.Rna, b: N.Rna):
        return N.equiv_rna(a, b)

    def minimize(self, m: N.Rna) -> N.Rna:
        raise ValueError("minimization is not supported for rna machines")

    def render(self, word: N.SymbolicWord, m: N.Rna) -> str:
        return word.render()


FSM = _FsmFamily()
WA = _WaFamily()
RNA = _RnaFamily()


def family_of(m):
    """The family of machine m."""
    if isinstance(m, F.Fsm):
        return FSM
    if isinstance(m, W.Wa):
        return WA
    if isinstance(m, N.Rna):
        return RNA
    raise TypeError(f"unsupported machine type {type(m).__name__}")
