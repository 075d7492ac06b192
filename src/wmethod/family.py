"""The three machine families behind one set of operations.

Each family (FSMs, weighted automata, register automata) offers the
same operations: the analysis of a specification (its state cover and
characterization set, whose walks also decide that it is canonical),
each of the two alone and a check of each, the W suite, suite files,
execution, the equivalence oracle, minimization, and the rendering of
words and of output values. `family_of` is the one place that maps a
machine type to its family; the CLI and the completeness experiments go
through it instead of branching on types.

Operations call the family modules through their module attributes at
call time, so a function patched into a module is the one that runs.
"""

from __future__ import annotations

from typing import Iterator

from . import formats as Fm
from . import fsm as F
from . import nominal as N
from . import weighted as W
from . import words as Wd
from .words import NotMinimalError, Suite


def _is_weak_cover(cover_map, m, p) -> bool:
    """Does p hold the empty word, and does cover_map find for every
    one-letter extension of p a word of p reaching the same state?"""
    if not p.contains_epsilon():
        return False
    try:
        cover_map(m, p)
    except ValueError:  # an extension reaches a state that no word of p reaches
        return False
    return True


class _Rendered(dict):
    """Output value -> its text, each distinct value rendered once: a mealy
    output row joined by commas, any other value by str. The outputs of one
    run come from one family's parser, so values that are equal have one
    type and one rendering."""

    def __missing__(self, v) -> str:
        text = self[v] = ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
        return text


class _WordFamily:
    """Operations shared by the families whose suites are words over an alphabet."""

    def analyze(self, m, allow: bool) -> tuple:
        """(spec, P, W): m with its state cover and characterization set.
        The walks that build them raise NotMinimalError on an unreachable
        or non-minimal m; if allowed, its minimization is analyzed instead."""
        try:
            return self._analyze(m)
        except NotMinimalError:
            if not allow:
                raise
        return self._analyze(self.minimize(m))

    def _analyze(self, m) -> tuple:
        return m, self.cover(m), self.charset(m)

    def read_suite(self, text: str, m, filename: str) -> Suite:
        return Fm.parse_suite(text, m.alphabet, filename)

    def suite(self, p: Suite, k: int, w: Suite) -> Suite:
        return Wd.w_suite(p, p.alphabet, k, w)

    def prefix_close(self, t: Suite) -> Suite:
        return Wd.prefix_close(t)

    def render(self, word, m) -> str:
        return word.render(m.alphabet)

    def value_text(self):
        """The function that renders an output value for `run`'s report."""
        return str


class _FsmFamily(_WordFamily):
    name = "fsm"

    def cover(self, m: F.Fsm) -> Suite:
        return F.state_cover(m)

    def charset(self, m: F.Fsm) -> Suite:
        return F.char_set(m)

    def is_cover(self, m: F.Fsm, p: Suite) -> bool:
        return _is_weak_cover(F.weak_cover_map, m, p)

    def is_charset(self, m: F.Fsm, w: Suite) -> bool:
        return w.contains_epsilon() and F.is_char_set(m, w)

    def values(self, m: F.Fsm, t: Suite) -> Iterator:
        return F.suite_values(m, t)

    def agree_values(self, spec: F.Fsm, impl: F.Fsm, t: Suite):
        return F.agree_values(spec, impl, t)

    def equiv(self, a: F.Fsm, b: F.Fsm):
        return F.equiv(a, b)

    def minimize(self, m: F.Fsm) -> F.Fsm:
        return F.minimize(m)

    def value_text(self):
        # few distinct outputs, repeated (mealy rows): render each once per run
        return _Rendered().__getitem__


class _WaFamily(_WordFamily):
    name = "wa"

    def _analyze(self, m: W.Wa) -> tuple:
        spec, p, w = super()._analyze(m)
        if len(w) < m.dim:
            raise NotMinimalError(
                f"observation space not full (rank {len(w)} < dim {m.dim}); minimize first"
            )
        return spec, p, w

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

    def is_cover(self, m: W.Wa, p: Suite) -> bool:
        return W.is_state_cover_wa(m, p)

    def is_charset(self, m: W.Wa, w: Suite) -> bool:
        return W.is_char_set_wa(m, w)

    def values(self, m: W.Wa, t: Suite) -> Iterator:
        return W.suite_values_wa(m, t)

    def agree_values(self, spec: W.Wa, impl: W.Wa, t: Suite):
        return W.agree_values_wa(spec, impl, t)

    def equiv(self, a: W.Wa, b: W.Wa):
        return W.equiv_wa(a, b)

    def minimize(self, m: W.Wa) -> W.Wa:
        mm = W.minimize_wa(m)
        if mm.dim == 0:
            raise NotMinimalError("machine recognizes the zero series")
        return mm


class _RnaFamily:
    name = "rna"

    def analyze(self, m: N.Rna, allow: bool) -> tuple:
        """(m, P, W); char_set_rna raises NotMinimalError at the first
        equivalent state pair; no minimizer exists, and with allow it says so."""
        try:
            return m, self.cover(m), self.charset(m)
        except NotMinimalError as e:
            if not allow:
                raise
            raise NotMinimalError(f"{e} (rna machines cannot be minimized)") from None

    def cover(self, m: N.Rna) -> N.OrbitSuite:
        return N.state_cover_rna(m)

    def charset(self, m: N.Rna) -> N.OrbitSuite:
        return N.char_set_rna(m)

    def is_cover(self, m: N.Rna, p: N.OrbitSuite) -> bool:
        return _is_weak_cover(N.weak_cover_map_rna, m, p)

    def is_charset(self, m: N.Rna, w: N.OrbitSuite) -> bool:
        return w.contains_epsilon() and N.is_char_set_rna(m, w)

    def suite(self, p: N.OrbitSuite, k: int, w: N.OrbitSuite) -> N.OrbitSuite:
        return N.w_suite_rna(p, k, w)

    def prefix_close(self, t: N.OrbitSuite) -> N.OrbitSuite:
        raise ValueError("--prefix-closed applies to word suites, not orbit patterns")

    def read_suite(self, text: str, m: N.Rna, filename: str) -> N.OrbitSuite:
        return Fm.parse_patterns(text, filename)

    def values(self, m: N.Rna, t: N.OrbitSuite) -> Iterator:
        return N.suite_values_rna(m, t)

    def agree_values(self, spec: N.Rna, impl: N.Rna, t: N.OrbitSuite):
        return self.values(spec, t), self.values(impl, t)  # nothing to check

    def equiv(self, a: N.Rna, b: N.Rna):
        return N.equiv_rna(a, b)

    def minimize(self, m: N.Rna) -> N.Rna:
        raise ValueError("minimization is not supported for rna machines")

    def render(self, word: N.SymbolicWord, m: N.Rna) -> str:
        return word.render()

    def value_text(self):
        return str


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
