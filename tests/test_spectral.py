"""Incidence matrices and eigenvalue estimation."""

import math
from fractions import Fraction

import pytest

from morpheq.spectral import estimate_eigenvalue, incidence_matrix
from morpheq.words import AlphabetError, Morphism

FIB = Morphism.from_strings("01", "0")
SPIR = Morphism.from_strings("01", "21", "2")
PHI = (1 + math.sqrt(5)) / 2


def test_incidence_entries_count_occurrences():
    assert incidence_matrix(FIB) == ((1, 1), (1, 0))
    assert incidence_matrix(Morphism.from_strings("00")) == ((2,),)
    spir = incidence_matrix(SPIR)
    # column j holds the symbol counts of the image of j
    assert [tuple(spir[i][j] for i in range(3)) for j in range(3)] == [
        (1, 1, 0),
        (0, 1, 1),
        (0, 0, 1),
    ]


def test_incidence_of_power_is_matrix_power():
    # Powers of the Fibonacci matrix ((1, 1), (1, 0)) hold Fibonacci numbers.
    assert incidence_matrix(FIB ** 2) == ((2, 1), (1, 1))
    assert incidence_matrix(FIB ** 3) == ((3, 2), (2, 1))
    assert incidence_matrix(FIB ** 10) == ((89, 55), (55, 34))


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


@pytest.mark.parametrize(
    "a, n, error, message",
    [
        (0, 0, ValueError, "iteration count must be at least 1"),
        (2, 8, AlphabetError, "symbol 2 outside alphabet of size 2"),
    ],
    ids=["no-iterations", "symbol-outside"],
)
def test_estimate_refuses_bad_arguments(a, n, error, message):
    with pytest.raises(error, match=message):
        estimate_eigenvalue(FIB, a, n)
