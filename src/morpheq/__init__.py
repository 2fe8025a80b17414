"""Equality proofs for coded morphic sequences.

Two representations tau(f^oo(0)) and rho(g^oo(0)) of infinite sequences can
be proved equal by a fully elementary simultaneous induction over a table of
safe word pairs.  This package decides when that works, constructs the
table, renders the resulting human-readable proof, checks certificates
independently, and searches for small representations of a target sequence.
"""

from .formats import (
    ParseError,
    parse_problem,
    parse_proof,
    parse_rep,
    serialize_problem,
    serialize_proof,
)
from .proofdoc import CheckReport, Violation, check_proof, render_latex, render_text
from .prover import (
    EqualityProblem,
    FailureStage,
    Proof,
    ProofMode,
    ProveFailure,
    ProverConfig,
    SafePairTable,
    derive_table,
    find_initial_safe_pair,
    prove_basic,
    prove_general,
)
from .repsearch import (
    FoundRep,
    SearchSpec,
    SearchTooLargeError,
    canonical_form,
    complexity,
    search,
)
from .scaling import ScalingResult, equalize
from .spectral import (
    EigenEstimate,
    estimate_eigenvalue,
    incidence_matrix,
    is_primitive,
    parikh_vector,
)
from .subseq import BlockEncodingError, arith_prefix, block_encode, odd_length_power
from .words import (
    AlphabetError,
    Coding,
    FixedPoint,
    Morphism,
    MorphicRep,
    NotProlongableError,
    PowerLimitError,
    Word,
    first_mismatch,
    format_word,
    parse_word,
    prune_unreachable,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetError",
    "BlockEncodingError",
    "CheckReport",
    "Coding",
    "EigenEstimate",
    "EqualityProblem",
    "FailureStage",
    "FixedPoint",
    "FoundRep",
    "Morphism",
    "MorphicRep",
    "NotProlongableError",
    "ParseError",
    "PowerLimitError",
    "Proof",
    "ProofMode",
    "ProveFailure",
    "ProverConfig",
    "SafePairTable",
    "ScalingResult",
    "SearchSpec",
    "SearchTooLargeError",
    "Violation",
    "Word",
    "arith_prefix",
    "block_encode",
    "canonical_form",
    "check_proof",
    "complexity",
    "derive_table",
    "equalize",
    "estimate_eigenvalue",
    "find_initial_safe_pair",
    "first_mismatch",
    "format_word",
    "incidence_matrix",
    "is_primitive",
    "odd_length_power",
    "parikh_vector",
    "parse_problem",
    "parse_proof",
    "parse_rep",
    "parse_word",
    "prove_basic",
    "prove_general",
    "prune_unreachable",
    "render_latex",
    "render_text",
    "search",
    "serialize_problem",
    "serialize_proof",
]
