"""Equality proofs for coded morphic sequences.

Two representations tau(f^oo(0)) and rho(g^oo(0)) of infinite sequences can
be proved equal by a fully elementary simultaneous induction over a table of
safe word pairs.  This package decides when that works, constructs the
table, renders the resulting human-readable proof, checks certificates
independently, and searches for small representations of a target sequence.

The package root holds only the names of README's example; everything else
is imported from its module (morpheq.words, morpheq.certificate, ...).
"""

from .certificate import check_proof
from .formats import parse_problem
from .proofdoc import render_latex
from .prover import prove_general

__version__ = "0.1.0"
