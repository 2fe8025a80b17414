"""Incidence matrices, Parikh vectors, eigenvalue estimation, primitivity."""

import math
from fractions import Fraction

from morpheq.spectral import (
    estimate_eigenvalue,
    incidence_matrix,
    is_primitive,
    mat_mul,
    parikh_vector,
)
from morpheq.words import FixedPoint, Morphism

FIB = Morphism.from_strings("01", "0")
SPIR = Morphism.from_strings("0", "01", "21")
PHI = (1 + math.sqrt(5)) / 2


def test_incidence_entries_count_occurrences():
    assert incidence_matrix(FIB) == ((1, 1), (1, 0))
    assert incidence_matrix(Morphism.from_strings("00")) == ((2,),)
    spir = incidence_matrix(SPIR)
    # column j holds the symbol counts of the image of j
    assert [tuple(spir[i][j] for i in range(3)) for j in range(3)] == [
        (1, 0, 0),
        (1, 1, 0),
        (0, 1, 1),
    ]


def test_incidence_of_power_is_matrix_power():
    m = incidence_matrix(FIB)
    assert incidence_matrix(FIB ** 3) == mat_mul(mat_mul(m, m), m)


def test_parikh_vector_matches_expanded_word():
    assert parikh_vector(FIB, 0, 0) == (1, 0)
    assert parikh_vector(FIB, 0, 4) == (5, 3)
    assert sum(parikh_vector(FIB, 0, 8)) == 55
    word = (FIB ** 6).images[0]
    assert parikh_vector(FIB, 0, 6) == (word.count(0), word.count(1))


def test_eigenvalue_estimate_is_exact_rational():
    est = estimate_eigenvalue(FIB, 0, 8)
    assert est.value == Fraction(89, 55)
    assert est.length_now == 55
    assert est.length_next == 89
    assert est.iterations == 8
    assert abs(float(est.value) - PHI) < 1e-3


def test_uniform_morphisms_give_exact_integers():
    two = Morphism.from_strings("01", "00")
    assert estimate_eigenvalue(two, 0, 8).value == 2
    three = Morphism.from_strings("011", "101")
    assert estimate_eigenvalue(three, 0, 5).value == 3


def test_estimate_of_power_approximates_power_of_estimate():
    cube = estimate_eigenvalue(FIB ** 3, 0, 8)
    assert abs(float(cube.value) - PHI ** 3) < 1e-2


def test_estimates_alternate_around_limit():
    values = [float(estimate_eigenvalue(FIB, 0, n).value) - PHI for n in range(2, 9)]
    assert all(a * b < 0 for a, b in zip(values, values[1:]))


def test_primitivity():
    assert is_primitive(FIB)
    assert not is_primitive(SPIR)
    assert is_primitive(Morphism.from_strings("00"))
    # permutation of two symbols: powers alternate, never all-positive
    assert not is_primitive(Morphism.from_strings("1", "0"))


def test_parikh_never_expands_words():
    # the expanded word would have ~phi^60 symbols; counts stay cheap
    counts = parikh_vector(FIB, 0, 60)
    assert sum(counts) == 4052739537881  # Fibonacci growth, exact arithmetic
    prefix = FixedPoint(FIB, 0).prefix(500)
    assert counts[0] > counts[1]
    assert prefix[:2] == (0, 1)
