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
from functools import cache

from .faultsim import MutationSpec, completeness_experiment
from .family import agree_values, family_of
from .formats import ParseError, parse_machine, serialize_machine, serialize_suite
from .words import NotMinimalError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


class Usage(Exception):
    pass


class Precondition(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise Usage(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise Usage(f"cannot read {path}: not UTF-8 text") from e


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise Usage(f"cannot write {path}: {e.strerror}") from e


def _load(path: str):
    return parse_machine(_read(path), filename=path)


def cmd_gen(args, out) -> int:
    m = _load(args.spec)
    fam = family_of(m)
    spec, p, w = fam.analyze(m, args.allow_nonminimal)
    if args.cover:
        p = fam.read_suite(_read(args.cover), spec, args.cover)
        if not fam.is_cover(spec, p):
            raise Precondition(f"{args.cover}: not a state cover of {args.spec}")
    if args.charset:
        w = fam.read_suite(_read(args.charset), spec, args.charset)
        if not fam.is_charset(spec, w):
            raise Precondition(f"{args.charset}: not a characterization set of {args.spec}")
    suite = fam.suite(p, args.k, w)
    if args.prefix_closed:
        suite = fam.prefix_close(suite)
    _write(args.output, serialize_suite(suite))
    if not args.quiet:
        print(f"|P| = {len(p)}", file=out)
        print(f"|W| = {len(w)}", file=out)
        print(f"|suite| = {len(suite)}", file=out)
    return EXIT_OK


def cmd_run(args, out) -> int:
    spec, impl = _load(args.spec), _load(args.impl)
    fam = family_of(spec)  # its operations check that impl fits
    suite = fam.read_suite(_read(args.suite), spec, args.suite)
    spec_out, impl_out = map(list, agree_values(spec, impl, suite))
    passed = [s == i for s, i in zip(spec_out, impl_out)]
    text = fam.value_text()
    out.write("".join(
        f"{'PASS' if ok else 'FAIL'} {word} {s} {i}\n"
        for word, s, i, ok in zip(suite.lines(), map(text, spec_out), map(text, impl_out), passed)
    ))
    return EXIT_OK if all(passed) else EXIT_FAIL


def cmd_equiv(args, out) -> int:
    a, b = _load(args.a), _load(args.b)
    fam = family_of(a)
    res = fam.equiv(a, b)
    if res.equivalent:
        print("equivalent", file=out)
        return EXIT_OK
    print(f"inequivalent {fam.render(res.counterexample, a)}", file=out)
    return EXIT_FAIL


def cmd_minimize(args, out) -> int:
    m = _load(args.machine)
    text = serialize_machine(family_of(m).minimize(m))
    if args.output:
        _write(args.output, text)
    else:
        out.write(text)
    return EXIT_OK


def cmd_cover(args, out) -> int:
    m = _load(args.spec)
    out.write(serialize_suite(family_of(m).cover(m)))
    return EXIT_OK


def cmd_charset(args, out) -> int:
    m = _load(args.spec)
    out.write(serialize_suite(family_of(m).charset(m)))
    return EXIT_OK


def cmd_faultsim(args, out) -> int:
    spec = _load(args.spec)
    ms = MutationSpec(args.extra_states, args.mutants, args.seed)
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
    g.add_argument("--allow-nonminimal", action="store_true",
                   help="minimize first if needed (fsm and wa; an rna cannot be minimized)")
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


# main()'s parser, built on its first call rather than at import and then
# reused: parse_args keeps no state in the parser between calls
_parser = cache(build_parser)

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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args, out)
    except (NotMinimalError, Precondition) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ParseError, Usage, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
