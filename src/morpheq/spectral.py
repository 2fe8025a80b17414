"""Incidence matrices of morphisms and exact growth-rate estimates.

The incidence matrix M of f counts occurrences: M[i][j] is the number of
times symbol i occurs in f(j), so the incidence matrix of f^k is M^k.  The
dominant eigenvalue is estimated by the exact rational
|f^(n+1)(a)| / |f^n(a)|, with the lengths taken from Morphism.power_lengths,
on arbitrary-precision integers and without expanding a word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .words import AlphabetError, Morphism

IntMatrix = tuple[tuple[int, ...], ...]


def incidence_matrix(f: Morphism) -> IntMatrix:
    n = f.alphabet_size
    cols = []
    for j in range(n):
        col = [0] * n
        for s in f.images[j]:
            col[s] += 1
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class EigenEstimate:
    """Exact rational |f^(n+1)(a)| / |f^n(a)| approximating the growth rate.

    The raw lengths are kept so the denominator is literally |f^n(a)|;
    value reduces the fraction (a 2-uniform morphism gives exactly 2).
    """

    length_next: int
    length_now: int
    iterations: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.length_next, self.length_now)


def estimate_eigenvalue(f: Morphism, a: int, n: int = 8) -> EigenEstimate:
    if n < 1:
        raise ValueError("iteration count must be at least 1")
    size = f.alphabet_size
    if not 0 <= a < size:
        raise AlphabetError(f"symbol {a} outside alphabet of size {size}")
    lengths = islice(f.power_lengths(), n - 1, None)
    length_now = next(lengths)[a]
    length_next = next(lengths)[a]
    return EigenEstimate(length_next, length_now, n)
