"""End-to-end and per-layer benchmark of the `wmethod` CLI.

    python3 bench/run.py --workload fsm-chain --seed 1 --seconds 30 --trace 0

One workload runs in this process as a single client in a closed loop: it
calls `wmethod.cli.main(argv, out=...)` for every command of a session
(gen, run, equiv, faultsim) and repeats whole sessions until --seconds
have passed. Times are medians over the sessions of the run.

--trace 0 reports the end-to-end metrics of untraced sessions.
--trace 1 runs one untraced session, then traced sessions (timing spans
around each layer) for --seconds, then one counting session
(sys.setprofile), and reports the per-layer metrics.

Every output of the first session is checked against the benchmark's own
computations (see reference.py); every later session, traced or not, must
reproduce it byte for byte. The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Traces and results go
to .bench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7

sys.path.insert(0, str(BENCH))
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "gen_s": "s", "run_s": "s", "faultsim_s": "s",
    "peak_rss_mb": "MB", "suite_words": "words", "suite_symbols": "symbols",
}


def import_wmethod():
    """A fresh import of the program, so that every set-up pays for it."""
    for name in [n for n in sys.modules if n == "wmethod" or n.startswith("wmethod.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("wmethod.cli")


def setup(name: str, seed: int, workdir: Path, tiny: bool):
    t0 = perf_counter()
    cli = import_wmethod()
    wl = workloads.build(name, seed, tiny)
    wl.write(workdir)
    return perf_counter() - t0, cli, wl


def plain(main, argv, out, kind):
    t0 = perf_counter()
    rc = main(argv, out=out)
    return rc, perf_counter() - t0


class Session:
    """Exit codes, times and output digests of one pass over the commands."""

    def __init__(self):
        self.codes: list[int | None] = []
        self.seconds: list[float] = []
        self.digests: list[str] = []

    def time_of(self, commands, kind: str | None = None) -> float:
        return sum(s for c, s in zip(commands, self.seconds) if kind in (None, c.kind))


def run_session(cli, commands, runner=plain, keep: Path | None = None) -> Session:
    """Run every command; with `keep`, copy each output there for checking."""
    s = Session()
    for i, c in enumerate(commands):
        out = io.StringIO()
        try:
            rc, sec = runner(cli.main, c.argv, out, c.kind)
        except Exception:  # a raw traceback from the program counts as a failed command
            traceback.print_exc(file=sys.stderr)
            rc, sec = None, 0.0
        text = out.getvalue()
        if c.kind == "gen":
            suite = Path(c.argv[c.argv.index("-o") + 1])
            text += "\0" + (suite.read_text(encoding="utf-8") if suite.exists() else "")
        s.codes.append(rc)
        s.seconds.append(sec)
        s.digests.append(hashlib.sha256(text.encode()).hexdigest())
        if keep is not None:
            (keep / f"{i}.out").write_text(text, encoding="utf-8")
    return s


def check_first(cli, wl, workdir: Path, commands, first: Session, keep: Path):
    """Check the kept outputs of the first session; returns per-command
    verdicts (True = correct) and the exact suite sizes."""
    ok = [rc in (0, 1) for rc in first.codes]
    refs: dict[int, tuple] = {}
    suites: dict[int, list] = {}
    run_passed: dict[tuple, bool] = {}
    words = symbols = 0
    for i, c in enumerate(commands):
        if not ok[i]:
            print(f"command failed with exit {first.codes[i]}: {' '.join(c.argv)}", file=sys.stderr)
            continue
        spec = wl.specs[c.spec]
        m = spec.machine
        syms = getattr(m, "symbols", None)
        what = f"{c.kind} {wl.paths(workdir, c.spec)['spec'].name}" + (
            f" impl {c.impl}" if c.impl is not None else "")
        stdout, _, suite_text = (keep / f"{i}.out").read_text(encoding="utf-8").partition("\0")
        try:
            if c.spec not in refs:
                refs[c.spec] = _reference(cli, wl, workdir, c.spec)
            p, ref_suite = refs[c.spec]
            if c.kind == "gen":
                got = reference.read_suite(suite_text, syms)
                expected = reference.prefix_closure(ref_suite) if spec.prefix_closed else ref_suite
                reference.check_suite_file(got, expected, what)
                if f"|suite| = {len(got)}" not in stdout.splitlines():
                    raise reference.CheckError(f"{what}: printed size disagrees with the file")
                suites[c.spec] = got
                words += len(got)
                symbols += sum(map(len, got))
            elif c.kind == "run":
                if c.spec not in suites:
                    raise reference.CheckError(f"{what}: the suite of this spec failed its check")
                run_passed[c.spec, c.impl] = reference.check_run(
                    first.codes[i], stdout, m, spec.impls[c.impl], suites[c.spec], what)
            elif c.kind == "equiv":
                impl = spec.impls[c.impl]
                passed = run_passed.get((c.spec, c.impl))
                domain = passed is not None and reference.in_domain(m, impl, p, spec.k)
                reference.check_equiv(first.codes[i], stdout, m, impl, bool(passed), domain, what)
            else:
                reference.check_faultsim(first.codes[i], stdout, spec.mutants, len(ref_suite), what)
        except reference.CheckError as e:
            print(f"check failed: {e!r}", file=sys.stderr)
            ok[i] = False
    return ok, words, symbols


def _reference(cli, wl, workdir: Path, i: int):
    """P from `wmethod cover` and the suite P . Sigma^{<=k+1} . W formed here
    with W from `wmethod charset`, once the properties of P and W hold."""
    spec = wl.specs[i]
    m = spec.machine
    syms = getattr(m, "symbols", None)
    path = str(wl.paths(workdir, i)["spec"])
    sets = []
    for cmd in ("cover", "charset"):
        out = io.StringIO()
        rc = cli.main([cmd, path], out=out)
        if rc != 0:
            raise reference.CheckError(f"{cmd} {path}: exit {rc}")
        sets.append(reference.read_suite(out.getvalue(), syms))
    p, w = sets
    reference.check_cover(m, p, f"cover {path}")
    reference.check_charset(m, w, f"charset {path}")
    return p, reference.reference_suite(m, p, spec.k, w)


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    if not (SRC / "wmethod" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'wmethod'} not found; run from a checkout of the repository")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{seed}-{'trace' if trace else 'plain'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    keep = workdir / "first"
    keep.mkdir()
    try:
        return _measure(name, seed, seconds, trace, tiny, workdir, keep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(name, seed, seconds, trace, tiny, workdir: Path, keep: Path) -> dict:
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        sec, cli, wl = setup(name, seed, workdir, tiny)
        setups.append(sec)
    commands = wl.session(workdir)

    deadline = perf_counter() + seconds
    gc.collect()
    first = run_session(cli, commands, keep=keep)
    sessions = [first]
    tracers: list[tracing.Tracer] = []
    while perf_counter() < deadline or (trace and not tracers):
        gc.collect()
        if trace:
            t = tracing.Tracer()
            t.install()
            try:
                sessions.append(run_session(cli, commands, t.command))
            finally:
                t.uninstall()
            if tracers:
                t.spans = []  # keep the spans of the first traced session only
            tracers.append(t)
        else:
            sessions.append(run_session(cli, commands))
    counts = None
    if trace:
        gc.collect()
        counted, counts = tracing.count_calls(lambda: run_session(cli, commands))
        sessions.append(counted)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ok, words, symbols = check_first(cli, wl, workdir, commands, first, keep)
    failed = 0
    for s in sessions:
        for i, (rc, digest) in enumerate(zip(s.codes, s.digests)):
            same = rc == first.codes[i] and digest == first.digests[i]
            if not same:
                print(f"output of {' '.join(commands[i].argv)} differs from the first session",
                      file=sys.stderr)
            failed += not (ok[i] and same)
    correct = all(ok) and all(s.digests == first.digests for s in sessions)

    if trace:
        metrics, spans_ok = _layer_metrics(commands, sessions[1:-1], tracers, counts, words)
        correct = correct and spans_ok
        _write_trace(name, seed, commands, first, sessions[1:-1], tracers[0], metrics)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(s.time_of(commands) for s in sessions),
            "gen_s": statistics.median(s.time_of(commands, "gen") for s in sessions),
            "run_s": statistics.median(s.time_of(commands, "run") for s in sessions),
            "faultsim_s": statistics.median(s.time_of(commands, "faultsim") for s in sessions),
            "peak_rss_mb": peak_rss_mb,
            "suite_words": words,
            "suite_symbols": symbols,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
        print(f"{name} seed {seed}: {len(sessions)} sessions, wall_s "
              + " ".join(f"{s.time_of(commands):.3f}" for s in sessions), file=sys.stderr)
    return {"correct": correct, "attempted": len(sessions) * len(commands),
            "failed": failed, "metrics": metrics}


def _layer_metrics(commands, traced: list[Session], tracers, counts, suite_words):
    spans_ok = True
    for s, t in zip(traced, tracers):
        total, parts = s.time_of(commands), sum(t.self_s.values())
        if abs(total - parts) > 1e-6 * max(1.0, total):
            print(f"self times add up to {parts} s, commands took {total} s", file=sys.stderr)
            spans_ok = False
    first = tracers[0]
    metrics = {m: {"value": statistics.median(t.self_s[m] for t in tracers), "unit": "s"}
               for m in tracing.TIME_METRICS}
    dedup = suite_words / first.words_formed if first.words_formed else 1.0
    metrics["words.dedup_yield"] = {"value": dedup, "unit": "ratio"}
    metrics["faultsim.mutant_yield"] = {"value": first.mutant_yield(), "unit": "ratio"}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = {"value": counts[layer], "unit": "calls"}
    return metrics, spans_ok


def _write_trace(name, seed, commands, untraced: Session, traced: list[Session], tracer, metrics):
    """Spans of the first traced session, with the session times around them."""
    t0 = min(s[3] for s in tracer.spans)
    doc = {
        "workload": name,
        "seed": seed,
        "untraced_wall_s": untraced.time_of(commands),
        "traced_wall_s": [s.time_of(commands) for s in traced],
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "spans": [[i, parent, label, start - t0, end - t0]
                  for i, parent, label, start, end in tracer.spans],
    }
    (OUT / f"trace-{name}-{seed}.json").write_text(json.dumps(doc), encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
