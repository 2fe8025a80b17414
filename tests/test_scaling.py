"""Exponent search that equalizes growth rates."""

import pytest

from morpheq.scaling import CANDIDATE_EXPONENTS, CANDIDATE_PAIRS, equalize
from morpheq.words import Morphism

FIB = Morphism.from_strings("01", "0")
THREE_LETTER_G = Morphism.from_strings("02", "021", "102")


def test_candidate_order_prefers_small_exponents():
    pairs = CANDIDATE_PAIRS
    assert pairs[0] == (1, 1)
    assert len(pairs) == len(CANDIDATE_EXPONENTS) ** 2
    maxima = [max(p, q) for p, q in pairs]
    assert maxima == sorted(maxima)


def test_identical_morphisms_need_no_scaling():
    result = equalize(FIB, FIB)
    assert (result.p, result.q) == (1, 1)
    assert result.achieved_gap < 1e-9


def test_square_against_golden_ratio_squared():
    result = equalize(FIB, THREE_LETTER_G)
    assert (result.p, result.q) == (2, 1)


def test_symmetry():
    result = equalize(THREE_LETTER_G, FIB)
    assert (result.p, result.q) == (1, 2)


def test_square_and_cube_both_sides():
    f = Morphism.from_strings("0210", "02102", "2021")
    result = equalize(f, THREE_LETTER_G)
    assert (result.p, result.q) == (2, 3)


def test_incompatible_growth_rates_fail():
    f = Morphism.from_strings("01", "11")
    g = Morphism.from_strings("01", "111")
    assert equalize(f, g) is None


def test_linear_growth_pair_accepted_at_unit_exponents():
    # both of these grow linearly, so their dominant eigenvalues are 1 but
    # the 8-step length-ratio estimates converge slowly; the default
    # tolerance must still accept the pair as-is
    f = Morphism.from_strings("01", "21", "2")
    g = Morphism.from_strings("012", "12", "2")
    result = equalize(f, g)
    assert (result.p, result.q) == (1, 1)
    assert 0 < result.achieved_gap < 2e-2


def test_tolerance_is_a_knob():
    f = Morphism.from_strings("01", "21", "2")
    g = Morphism.from_strings("012", "12", "2")
    assert equalize(f, g, tol=1e-3) is None
    with pytest.raises(ValueError):
        equalize(FIB, FIB, tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_tolerance_must_be_finite(tol):
    with pytest.raises(ValueError, match="tolerance must be finite"):
        equalize(FIB, FIB, tol=tol)


def test_result_gap_matches_reported_pair():
    result = equalize(FIB, THREE_LETTER_G)
    assert result.achieved_gap < 5e-3
