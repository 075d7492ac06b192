"""Conformance testing with the W-method for deterministic finite,
Moore, Mealy, weighted, and nominal automata.

The library computes state covers and characterization sets, assembles
W test suites P . Sigma^{<=k+1} . W, executes them against
implementation models, and validates completeness claims against exact
equivalence oracles and randomized mutants.
"""

from .words import (
    EPS_TOKEN,
    EPSILON,
    Alphabet,
    EquivResult,
    NotMinimalError,
    Suite,
    Verdict,
    Word,
    concat_suites,
    prefix_close,
    w_suite,
    words_upto,
)
from .fsm import (
    Fsm,
    char_set,
    equiv,
    is_char_set,
    is_minimal,
    lambda_star,
    minimize,
    run,
    state_cover,
    verify_weak_cover,
    weak_cover_map,
)
from .weighted import (
    VecSpaceBasis,
    Wa,
    backward_basis,
    equiv_wa,
    forward_basis,
    in_fault_domain_wa,
    is_char_set_wa,
    is_minimal_wa,
    is_state_cover_wa,
    minimize_wa,
)
from .nominal import (
    EPS_PATTERN,
    OracleLimitError,
    OrbitSuite,
    Rna,
    SymbolicWord,
    char_set_rna,
    concat_orbit,
    equiv_rna,
    is_char_set_rna,
    is_minimal_rna,
    patterns_upto,
    rna_run,
    state_cover_rna,
    verify_weak_cover_rna,
    w_suite_rna,
    weak_cover_map_rna,
)
from .family import agree_on, value as lang_value, value as wa_lang  # the value of one word
from .faultsim import (
    ExperimentReport,
    MutationSpec,
    completeness_experiment,
    gen_mutants_fsm,
    gen_mutants_rna,
    gen_mutants_wa,
)
from .formats import (
    ParseError,
    parse_machine,
    parse_patterns,
    parse_suite,
    serialize_machine,
    serialize_suite,
)

__version__ = "0.1.0"
