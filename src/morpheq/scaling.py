"""Choosing powers (p, q) that equalize the growth rates of two morphisms.

Replacing f by f^p multiplies its dominant eigenvalue's logarithm by p, so
two representations can be brought to a common growth rate by picking small
exponents p, q with p*log(lambda_f) close to q*log(lambda_g).  Candidates
are the exponents reachable by repeated squaring and cubing, capped at 9.
Logarithms are float differences log(length_next) - log(length_now) of the
estimate's exact integer lengths.  On the decide corpus (seeds 1-3 and
2101) and the fixtures, float gaps differ from 30-digit decimal ones by at
most 6e-15, and no decimal gap of any pair comes within 2e-5 of the default
tolerance, so float rounding cannot move a gap across it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spectral import estimate_eigenvalue
from .words import Morphism

CANDIDATE_EXPONENTS = (1, 2, 3, 4, 6, 8, 9)

# Smallest footprint first: by max, then sum, then p.
CANDIDATE_PAIRS = tuple(sorted(
    ((p, q) for p in CANDIDATE_EXPONENTS for q in CANDIDATE_EXPONENTS),
    key=lambda pq: (max(pq), sum(pq), pq[0]),
))

# Power-method estimates at 8 iterations sit within about 2e-3 of the true
# log-eigenvalue on exponentially growing fixtures, but within only about
# 2e-2 on linearly growing ones (the length ratios approach 1 like 1 + 2/n,
# so the error decays polynomially, not geometrically).  Genuine mismatches
# among the candidate exponents never come closer than about 0.12 in log
# space, so 0.02 cleanly separates the two regimes.
DEFAULT_TOLERANCE = 2e-2


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
    est_f = estimate_eigenvalue(f, 0, iterations)
    est_g = estimate_eigenvalue(g, 0, iterations)
    log_f = math.log(est_f.length_next) - math.log(est_f.length_now)
    log_g = math.log(est_g.length_next) - math.log(est_g.length_now)
    for p, q in CANDIDATE_PAIRS:
        gap = abs(p * log_f - q * log_g)
        if gap < tol:
            return ScalingResult(p, q, gap)
    return None
