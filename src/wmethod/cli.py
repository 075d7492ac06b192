"""Command-line front end.

Exit codes are the process-level contract:
  0  success / machines equivalent / all tests pass
  1  failing tests or inequivalence found
  2  usage or parse error
  3  precondition violated (e.g. the specification is not minimal)
"""

from __future__ import annotations

import argparse
import sys

from . import fsm as F
from . import nominal as N
from . import weighted as W
from .faultsim import MutationSpec, completeness_experiment
from .formats import (
    ParseError,
    parse_machine,
    parse_patterns,
    parse_suite,
    serialize_machine,
    serialize_suite,
)
from .words import NotMinimalError, Suite, Verdict, prefix_close, w_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


class Precondition(Exception):
    pass


class Usage(Exception):
    pass


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise Usage(f"cannot read {path}: {e.strerror}") from e
    return parse_machine(text, filename=path)


def _family(m) -> str:
    if isinstance(m, F.Fsm):
        return "fsm"
    if isinstance(m, W.Wa):
        return "wa"
    return "rna"


def _render_out(v) -> str:
    if isinstance(v, tuple):  # mealy output row
        return ",".join(str(x) for x in v)
    return str(v)


def _print_verdicts(verdicts: list[Verdict], m, out) -> bool:
    all_pass = True
    for v in verdicts:
        word = v.word.render(m.alphabet) if isinstance(m, (F.Fsm, W.Wa)) else v.word.render()
        status = "PASS" if v.passed else "FAIL"
        print(f"{status} {word} {_render_out(v.spec_out)} {_render_out(v.impl_out)}", file=out)
        all_pass = all_pass and v.passed
    return all_pass


def _fsm_minimal_for_gen(m: F.Fsm) -> bool:
    return F.minimize(m).n_states == m.n_states


def _ensure_minimal(m, allow: bool):
    """Return a minimal machine or raise Precondition (exit 3)."""
    fam = _family(m)
    if fam == "fsm":
        if _fsm_minimal_for_gen(m):
            return m
        if allow:
            return F.minimize(m)
        raise Precondition("specification is not minimal (pass --allow-nonminimal to minimize)")
    if fam == "wa":
        reachable = W.forward_basis(m).rank == m.dim
        if W.is_minimal_wa(m) and reachable:
            return m
        if allow:
            mm = W.minimize_wa(m)
            if mm.dim == 0:
                raise Precondition("specification recognizes the zero series")
            return mm
        if not reachable:
            raise Precondition(
                f"state space not reachable (rank {W.forward_basis(m).rank} < dim {m.dim}); "
                "pass --allow-nonminimal to minimize"
            )
        raise Precondition("specification is not minimal (pass --allow-nonminimal to minimize)")
    if N.is_minimal_rna(m):
        return m
    raise Precondition("specification is not minimal (no minimizer exists for rna machines)")


def _covers(m, cover_file: str | None, charset_file: str | None):
    """State cover and characterization suite, computed or loaded."""
    fam = _family(m)
    if fam == "rna":
        p = (
            parse_patterns(_read(cover_file), cover_file)
            if cover_file
            else N.state_cover_rna(m)
        )
        w = (
            parse_patterns(_read(charset_file), charset_file)
            if charset_file
            else N.char_set_rna(m)
        )
        return p, w
    if cover_file:
        p = parse_suite(_read(cover_file), m.alphabet, cover_file)
    else:
        p = F.state_cover(m) if fam == "fsm" else Suite(m.alphabet, W.forward_basis(m).witnesses)
    if charset_file:
        w = parse_suite(_read(charset_file), m.alphabet, charset_file)
    else:
        w = F.char_set(m) if fam == "fsm" else Suite(m.alphabet, W.backward_basis(m).witnesses)
    return p, w


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise Usage(f"cannot read {path}: {e.strerror}") from e


def cmd_gen(args, out) -> int:
    spec = _ensure_minimal(_load(args.spec), args.allow_nonminimal)
    p, w = _covers(spec, args.cover, args.charset)
    if _family(spec) == "rna":
        suite = N.w_suite_rna(p, args.k, w)
        # orbit patterns have no useful prefix closure on files; the flag
        # only applies to word suites
        if args.prefix_closed:
            raise Usage("--prefix-closed applies to word suites, not orbit patterns")
    else:
        suite = w_suite(p, spec.alphabet, args.k, w)
        if args.prefix_closed:
            suite = prefix_close(suite)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(serialize_suite(suite))
    if not args.quiet:
        print(f"|P| = {len(p)}", file=out)
        print(f"|W| = {len(w)}", file=out)
        print(f"|suite| = {len(suite)}", file=out)
    return EXIT_OK


def cmd_run(args, out) -> int:
    spec = _load(args.spec)
    impl = _load(args.impl)
    if _family(spec) != _family(impl):
        raise Usage(f"family mismatch: {_family(spec)} vs {_family(impl)}")
    fam = _family(spec)
    if fam == "rna":
        suite = parse_patterns(_read(args.suite), args.suite)
        verdicts = N.agree_on_rna(spec, impl, suite)
    else:
        suite = parse_suite(_read(args.suite), spec.alphabet, args.suite)
        if fam == "fsm":
            if spec.kind != impl.kind:
                raise Usage(f"machine kinds differ: {spec.kind} vs {impl.kind}")
            verdicts = F.agree_on(spec, impl, suite)
        else:
            verdicts = W.agree_on_wa(spec, impl, suite)
    return EXIT_OK if _print_verdicts(verdicts, spec, out) else EXIT_FAIL


def cmd_equiv(args, out) -> int:
    a = _load(args.a)
    b = _load(args.b)
    if _family(a) != _family(b):
        raise Usage(f"family mismatch: {_family(a)} vs {_family(b)}")
    fam = _family(a)
    if fam == "fsm":
        if a.kind != b.kind:
            raise Usage(f"machine kinds differ: {a.kind} vs {b.kind}")
        res = F.equiv(a, b)
        cex = res.counterexample.render(a.alphabet) if res.counterexample is not None else None
    elif fam == "wa":
        res = W.equiv_wa(a, b)
        cex = res.counterexample.render(a.alphabet) if res.counterexample is not None else None
    else:
        res = N.equiv_rna(a, b)
        cex = res.counterexample.render() if res.counterexample is not None else None
    if res.equivalent:
        print("equivalent", file=out)
        return EXIT_OK
    print(f"inequivalent {cex}", file=out)
    return EXIT_FAIL


def cmd_minimize(args, out) -> int:
    m = _load(args.machine)
    fam = _family(m)
    if fam == "fsm":
        mm = F.minimize(m)
    elif fam == "wa":
        mm = W.minimize_wa(m)
        if mm.dim == 0:
            raise Precondition("machine recognizes the zero series; nothing to write")
    else:
        raise Usage("minimization is not supported for rna machines")
    text = serialize_machine(mm)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_OK


def cmd_cover(args, out) -> int:
    m = _load(args.spec)
    fam = _family(m)
    if fam == "fsm":
        suite = F.state_cover(m)
    elif fam == "wa":
        fb = W.forward_basis(m)
        if fb.rank < m.dim:
            raise Precondition(
                f"state space not spanned from the initial vector "
                f"(rank {fb.rank} < dim {m.dim}); minimize first"
            )
        suite = Suite(m.alphabet, fb.witnesses)
    else:
        suite = N.state_cover_rna(m)
    out.write(serialize_suite(suite))
    return EXIT_OK


def cmd_charset(args, out) -> int:
    m = _load(args.spec)
    fam = _family(m)
    if fam == "fsm":
        suite = F.char_set(m)
    elif fam == "wa":
        suite = Suite(m.alphabet, W.backward_basis(m).witnesses)
        if not suite.contains_epsilon():
            raise Precondition("output vector is zero; no characterization set exists")
    else:
        suite = N.char_set_rna(m)
    out.write(serialize_suite(suite))
    return EXIT_OK


def cmd_faultsim(args, out) -> int:
    spec = _load(args.spec)
    ms = MutationSpec(_family(spec), args.extra_states, args.mutants, args.seed)
    report = completeness_experiment(spec, args.k, ms)
    out.write(report.render())
    return EXIT_OK if report.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wmethod",
        description="Generate, execute, and validate W-method conformance test suites.",
    )
    ap.add_argument("--seed", type=int, default=0, help="PRNG seed for faultsim")
    ap.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a W test suite from a specification")
    g.add_argument("--k", type=int, default=0, help="suite order (extra implementation states)")
    g.add_argument("--cover", help="state cover file (computed if omitted)")
    g.add_argument("--charset", help="characterization set file (computed if omitted)")
    g.add_argument("--prefix-closed", action="store_true", help="prefix-close the suite")
    g.add_argument("--allow-nonminimal", action="store_true", help="minimize first if needed")
    g.add_argument("-o", "--output", required=True, help="suite file to write")
    g.add_argument("spec")

    r = sub.add_parser("run", help="run a suite against an implementation")
    r.add_argument("spec")
    r.add_argument("impl")
    r.add_argument("suite")

    e = sub.add_parser("equiv", help="decide equivalence of two machines")
    e.add_argument("a")
    e.add_argument("b")

    m = sub.add_parser("minimize", help="write the minimized machine")
    m.add_argument("-o", "--output")
    m.add_argument("machine")

    c = sub.add_parser("cover", help="print a state cover")
    c.add_argument("spec")

    w = sub.add_parser("charset", help="print a characterization set")
    w.add_argument("spec")

    f = sub.add_parser("faultsim", help="run a mutation completeness experiment")
    f.add_argument("--k", type=int, default=0, help="suite order")
    f.add_argument("--mutants", type=int, default=100)
    f.add_argument("--extra-states", type=int, default=0)
    f.add_argument("spec")
    return ap


_COMMANDS = {
    "gen": cmd_gen,
    "run": cmd_run,
    "equiv": cmd_equiv,
    "minimize": cmd_minimize,
    "cover": cmd_cover,
    "charset": cmd_charset,
    "faultsim": cmd_faultsim,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args, out)
    except (ParseError, Usage) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (Precondition, NotMinimalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
