"""Per-layer measurement of wmethod from the benchmark's side.

Traced pass: `Tracer` wraps the public functions of each module in timing
spans. A function is patched in every namespace that binds it, because
`cli` and `faultsim` import some names directly. Spans are kept in memory;
a layer's self time is its span time minus the time of its child spans.

Counting pass: `count_calls` counts every Python and builtin call with
`sys.setprofile`, under the layer whose span is innermost at the time of
the call. It uses the unwrapped functions.
"""

from __future__ import annotations

import sys
from time import perf_counter

PACKAGE = "wmethod"

# metric of each wrapped function; the part before the dot names its layer
METRIC_OF = {
    "formats.parse_machine": "formats.parse_machine_s",
    "formats.parse_suite": "formats.parse_suite_s",
    "formats.parse_patterns": "formats.parse_suite_s",
    "formats.serialize_suite": "formats.serialize_s",
    "formats.serialize_machine": "formats.serialize_s",
    "words.w_suite": "words.suite_assembly_s",
    "words.concat_suites": "words.suite_assembly_s",
    "words.words_upto": "words.suite_assembly_s",
    "words.prefix_close": "words.suite_assembly_s",
    "fsm.minimize": "fsm.minimal_check_s",
    "fsm.is_minimal": "fsm.minimal_check_s",
    "fsm.char_set": "fsm.char_set_s",
    "fsm.state_cover": "fsm.char_set_s",
    "fsm.agree_on": "fsm.agree_s",
    "fsm.equiv": "fsm.equiv_s",
    "weighted.forward_basis": "weighted.basis_s",
    "weighted.backward_basis": "weighted.basis_s",
    "weighted.is_minimal_wa": "weighted.minimal_check_s",
    "weighted.minimize_wa": "weighted.minimal_check_s",
    "weighted.agree_on_wa": "weighted.agree_s",
    "weighted.wa_lang": "weighted.agree_s",
    "weighted.equiv_wa": "weighted.equiv_s",
    "weighted.in_fault_domain_wa": "weighted.fault_domain_s",
    "weighted.is_state_cover_wa": "weighted.fault_domain_s",
    "nominal.is_minimal_rna": "nominal.minimal_check_s",
    "nominal.char_set_rna": "nominal.char_set_s",
    "nominal.state_cover_rna": "nominal.char_set_s",
    "nominal.w_suite_rna": "nominal.suite_assembly_s",
    "nominal.concat_orbit": "nominal.suite_assembly_s",
    "nominal.patterns_upto": "nominal.suite_assembly_s",
    "nominal.agree_on_rna": "nominal.agree_s",
    "nominal.equiv_rna": "nominal.equiv_s",
    "nominal.weak_cover_map_rna": "nominal.cover_check_s",
    "faultsim.gen_mutants_fsm": "faultsim.mutant_gen_s",
    "faultsim.gen_mutants_wa": "faultsim.mutant_gen_s",
    "faultsim.gen_mutants_rna": "faultsim.mutant_gen_s",
    "faultsim.completeness_experiment": "faultsim.self_s",
    "faultsim.ExperimentReport.render": "faultsim.self_s",
}
ROOT_METRIC = "cli.self_s"  # command time outside every wrapped call
TIME_METRICS = (ROOT_METRIC, *dict.fromkeys(METRIC_OF.values()))
LAYERS = ("cli", "formats", "words", "fsm", "weighted", "nominal", "faultsim")

GEN_MUTANTS = ("faultsim.gen_mutants_fsm", "faultsim.gen_mutants_wa", "faultsim.gen_mutants_rna")
CANDIDATE_CHECKS = ("weighted.in_fault_domain_wa", "nominal.weak_cover_map_rna")


def _resolve() -> dict[str, tuple[object, str, object]]:
    """qualified name -> (owner, attribute, function) for every name that exists."""
    found = {}
    for qual in METRIC_OF:
        module, *path = qual.split(".")
        owner = sys.modules.get(f"{PACKAGE}.{module}")
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
        fn = getattr(owner, path[-1], None)
        if callable(fn):
            found[qual] = (owner, path[-1], fn)
    return found


class Tracer:
    """Timing spans around wmethod's public functions, with the work counts
    the yield metrics need."""

    def __init__(self):
        self.self_s = dict.fromkeys(TIME_METRICS, 0.0)
        self.spans: list = []  # (id, parent id, name, start, end)
        self.words_formed = 0  # words built by concatenation or prefixing during gen
        self.mutants = 0  # mutants returned by gen_mutants_*
        self.candidates = 0  # fault-domain or cover checks made inside gen_mutants_*
        self._stack: list[list] = []  # [span id, child time, name]
        self._kind = ""
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        found = _resolve()
        wrappers = {id(fn): self._wrap(fn, qual) for qual, (_, _, fn) in found.items()}
        for name, module in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrappers[id(value)])
        for qual, (owner, attr, fn) in found.items():
            if not isinstance(owner, type(sys)):  # a method: patch its class
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def command(self, main, argv: list[str], out, kind: str) -> tuple[int, float]:
        """Run one CLI command as a root span; returns (exit code, seconds)."""
        frame = [len(self.spans), 0.0, f"cli {kind}"]
        self.spans.append(None)
        self._stack = [frame]
        self._kind = kind
        t0 = perf_counter()
        try:
            rc = main(argv, out=out)
        finally:
            t1 = perf_counter()
            self._stack = []
            self.self_s[ROOT_METRIC] += (t1 - t0) - frame[1]
            self.spans[frame[0]] = (frame[0], None, frame[2], t0, t1)
        return rc, t1 - t0

    def _wrap(self, fn, qual: str):
        metric = METRIC_OF[qual]
        tracer = self

        def span(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else [None, 0.0, ""]
            if qual in CANDIDATE_CHECKS and parent[2] in GEN_MUTANTS:
                tracer.candidates += 1
            frame = [len(tracer.spans), 0.0, qual]
            tracer.spans.append(None)
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.self_s[metric] += (t1 - t0) - frame[1]
                parent[1] += t1 - t0
                tracer.spans[frame[0]] = (frame[0], parent[0], qual, t0, t1)
            if tracer._kind == "gen" and qual == "words.concat_suites":
                tracer.words_formed += len(args[0]) * len(args[1])
            elif tracer._kind == "gen" and qual == "words.prefix_close":
                tracer.words_formed += sum(len(w) + 1 for w in args[0])
            elif qual in GEN_MUTANTS:
                tracer.mutants += len(result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", qual)
        return span

    def mutant_yield(self) -> float:
        """Mutants returned per candidate checked; 1.0 where nothing is checked."""
        return self.mutants / self.candidates if self.candidates else 1.0


def count_calls(fn) -> tuple[object, dict[str, int]]:
    """Run fn() under sys.setprofile and count calls per layer."""
    layer_of = {f.__code__: qual.split(".")[0] for qual, (_, _, f) in _resolve().items()}
    layer_of[sys.modules[f"{PACKAGE}.cli"].main.__code__] = "cli"
    counts = dict.fromkeys(LAYERS, 0)
    stack: list[tuple[object, str]] = []

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            if stack:
                counts[stack[-1][1]] += 1
            if event == "call":
                layer = layer_of.get(frame.f_code)
                if layer is not None:
                    stack.append((frame, layer))
        elif event == "return" and stack and stack[-1][0] is frame:
            stack.pop()

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counts
