"""Incidence matrices of morphisms and exact growth-rate estimates.

The incidence matrix M of f counts occurrences: M[i][j] is the number of
times symbol i occurs in f(j).  Symbol counts of f^k(w) are then matrix
powers acting on the count vector of w, which keeps every computation on
arbitrary-precision integers and never expands a word.  The dominant
eigenvalue is estimated by the exact rational |f^(n+1)(a)| / |f^n(a)|,
with the lengths taken from Morphism.power_lengths.
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


def mat_vec(m: IntMatrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def parikh_vector(f: Morphism, a: int, k: int) -> tuple[int, ...]:
    """Symbol counts of f^k(a), via k matrix-vector products on the unit vector."""
    n = f.alphabet_size
    if not 0 <= a < n:
        raise AlphabetError(f"symbol {a} outside alphabet of size {n}")
    if k < 0:
        raise ValueError("power must be non-negative")
    m = incidence_matrix(f)
    v = tuple(1 if i == a else 0 for i in range(n))
    for _ in range(k):
        v = mat_vec(m, v)
    return v


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


def is_primitive(f: Morphism) -> bool:
    """Whether some power of the incidence matrix is strictly positive.

    Checked on the positivity pattern: close the boolean matrix under
    multiplication up to the Wielandt bound (n-1)^2 + 1, beyond which a
    primitive matrix must already be positive.
    """
    n = f.alphabet_size
    m = incidence_matrix(f)
    reach = tuple(tuple(x > 0 for x in row) for row in m)
    base = reach
    bound = (n - 1) ** 2 + 1
    for _ in range(bound):
        if all(all(row) for row in reach):
            return True
        reach = tuple(
            tuple(any(reach[i][k] and base[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
    return all(all(row) for row in reach)
