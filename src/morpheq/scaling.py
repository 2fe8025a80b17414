"""Choosing powers (p, q) that equalize the growth rates of two morphisms.

Replacing f by f^p multiplies its dominant eigenvalue's logarithm by p, so
two representations can be brought to a common growth rate by picking small
exponents p, q with p*log(lambda_f) close to q*log(lambda_g).  Candidates
are the exponents reachable by repeated squaring and cubing, capped at 9.
Comparisons happen in log space on 30-digit decimals built from the exact
rational estimates; hardware floats are never consulted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

from .spectral import EigenEstimate, estimate_eigenvalue
from .words import Morphism

CANDIDATE_EXPONENTS = (1, 2, 3, 4, 6, 8, 9)

# Power-method estimates at 8 iterations sit within about 2e-3 of the true
# log-eigenvalue on exponentially growing fixtures, but within only about
# 2e-2 on linearly growing ones (the length ratios approach 1 like 1 + 2/n,
# so the error decays polynomially, not geometrically).  Genuine mismatches
# among the candidate exponents never come closer than about 0.12 in log
# space, so 0.02 cleanly separates the two regimes.
DEFAULT_TOLERANCE = 2e-2
_PRECISION = 30


def candidate_pairs() -> list[tuple[int, int]]:
    """All exponent pairs, smallest-footprint first: by max, then sum, then p."""
    pairs = [(p, q) for p in CANDIDATE_EXPONENTS for q in CANDIDATE_EXPONENTS]
    pairs.sort(key=lambda pq: (max(pq), pq[0] + pq[1], pq[0]))
    return pairs


def log_estimate(est: EigenEstimate) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        return (Decimal(est.length_next) / Decimal(est.length_now)).ln()


@dataclass(frozen=True)
class ScalingResult:
    p: int
    q: int
    achieved_gap: float


def equalize(
    f: Morphism,
    g: Morphism,
    tol: float = DEFAULT_TOLERANCE,
    iterations: int = 8,
) -> ScalingResult | None:
    """Smallest (p, q) with |p*log est_f - q*log est_g| < tol, or None.

    Estimates are taken once for the base morphisms; powering only scales
    their logarithms, so no morphism is ever materialized here.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite")
    log_f = log_estimate(estimate_eigenvalue(f, 0, iterations))
    log_g = log_estimate(estimate_eigenvalue(g, 0, iterations))
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        bound = Decimal(str(tol))
        for p, q in candidate_pairs():
            gap = abs(p * log_f - q * log_g)
            if gap < bound:
                return ScalingResult(p, q, float(gap))
    return None
