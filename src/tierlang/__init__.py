"""Tiered while-language toolkit.

Programs compute over words with two tiers of data: tier 1 steers loops
and may only shrink, tier 0 may grow but cannot steer.  The package
bundles the type checker and tier inference, a small-step interpreter
with loop-count bookkeeping, deterministic schedulers and an
interleaving explorer, empirical harnesses for non-interference and
polynomial bounds, and a compiler from clocked Turing machines into
safe programs.
"""

from .lang import (
    DEFAULT_ALPHABET,
    Alphabet,
    Assign,
    Command,
    Expr,
    If,
    OpCall,
    Program,
    Seq,
    Skip,
    Span,
    Store,
    Tier,
    Var,
    While,
    Word,
    free_vars,
    seq_all,
    unary,
    word_literal,
)
from .ops import OperatorDef, Registry, builtins, default_registry
from .parser import ParseError, SourceFile, parse, pretty
from .semantics import ControlTable, eval_expr
from .scheduling import (
    ExplorationReport,
    FirstAlive,
    RoundRobin,
    Scheduler,
    SeededRandom,
    explore,
    quietness_test,
    run_with_scheduler,
    step_global,
)
from .analysis import (
    FitReport,
    GrowthTable,
    NiReport,
    SubwordReport,
    TierPreservationReport,
    fit_polynomial,
    measure_growth,
    ni_suite,
    scheduled_run_stores,
    subword_invariant,
    tier_preservation,
)
from .typecheck import (
    CheckReport,
    Diagnostic,
    InferenceReport,
    check_program,
    check_safe_sigs,
    command_tiers,
    infer_tiers,
    maximal_safe_sigs,
)
from .tm import CompiledProgram, TMSpec, compile_tm, parse_tm, simulate_tm

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ALPHABET", "Alphabet", "Assign", "Command", "Expr", "If", "OpCall",
    "Program", "Seq", "Skip", "Span", "Store", "Tier", "Var", "While", "Word",
    "free_vars", "seq_all", "unary", "word_literal",
    "OperatorDef", "Registry", "builtins", "default_registry",
    "ParseError", "SourceFile", "parse", "pretty",
    "ControlTable", "eval_expr",
    "ExplorationReport", "FirstAlive", "RoundRobin", "Scheduler",
    "SeededRandom", "explore", "quietness_test", "run_with_scheduler", "step_global",
    "FitReport", "GrowthTable", "NiReport", "SubwordReport", "TierPreservationReport",
    "fit_polynomial", "measure_growth", "ni_suite", "scheduled_run_stores",
    "subword_invariant", "tier_preservation",
    "CheckReport", "Diagnostic", "InferenceReport", "check_program",
    "check_safe_sigs", "command_tiers", "infer_tiers", "maximal_safe_sigs",
    "CompiledProgram", "TMSpec", "compile_tm", "parse_tm", "simulate_tm",
]
