import math
from fractions import Fraction

import pytest

from sparsefglm.generic import (
    HilbertProfile,
    asymptotic_estimate,
    dense_column_count,
    density_bound,
    hilbert_profile,
)


def test_profile_two_quadrics():
    prof = hilbert_profile(2, 2)
    assert prof == HilbertProfile(2, 2, [1, 2, 1], 2, 1, 4)


def test_profile_three_cubics():
    prof = hilbert_profile(3, 3)
    assert prof.coeffs == [1, 3, 6, 7, 6, 3, 1]
    assert prof.m0 == 7
    assert prof.k0 == 3
    assert prof.ideal_degree == 27


def test_profile_properties():
    for n, d in ((2, 5), (3, 4), (4, 3), (5, 2)):
        prof = hilbert_profile(n, d)
        assert prof.coeffs == prof.coeffs[::-1]  # symmetric
        assert sum(prof.coeffs) == d**n
        assert prof.m0 == max(prof.coeffs)
        assert prof.coeffs[prof.k0] == prof.m0
        assert len(prof.coeffs) == n * (d - 1) + 1


def test_profile_validation():
    with pytest.raises(ValueError):
        hilbert_profile(0, 2)
    with pytest.raises(ValueError):
        hilbert_profile(2, 0)


def test_quadric_counts_are_central_binomials():
    for n in range(2, 7):
        assert dense_column_count(n, 2) == math.comb(n, math.ceil(n / 2))


def test_density_bound_exact():
    assert density_bound(2, 2) == Fraction(3, 4)
    assert density_bound(3, 2) == Fraction(1, 2)
    assert density_bound(3, 3) == Fraction(8, 27)


def test_asymptotic_estimate_formula():
    assert asymptotic_estimate(3, 100) == pytest.approx(
        math.sqrt(6 / (3 * math.pi)) * 100**2
    )
    assert asymptotic_estimate(2, 10) == pytest.approx(math.sqrt(3 / math.pi) * 10)
