"""Sparsity predictions for generic degree-d systems in n variables.

The staircase of a generic system is governed by the coefficients of
(1 + z + ... + z^(d-1))^n; the greatest coefficient m0 predicts the number
of dense columns in the multiplication matrices, and the density of T_1 is
bounded by (m0+1)/d^n.  Verification hooks compare the prediction against
an actually constructed T_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .quotient import QuotientStructure, density_stats
from .terms import divides, var_term


@dataclass
class HilbertProfile:
    n: int
    d: int
    coeffs: list[int]
    m0: int
    k0: int
    ideal_degree: int


def hilbert_profile(n: int, d: int) -> HilbertProfile:
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    coeffs = [1]
    block = [1] * d
    for _ in range(n):
        out = [0] * (len(coeffs) + d - 1)
        for i, a in enumerate(coeffs):
            if a:
                for j, b in enumerate(block):
                    out[i + j] += a * b
        coeffs = out
    # symmetric profile: the greatest coefficient sits at the center; on even
    # length (odd (d-1)n) both centers tie and the upper one is reported
    k0 = math.ceil((d - 1) * n / 2)
    return HilbertProfile(n, d, coeffs, coeffs[k0], k0, d**n)


def dense_column_count(n: int, d: int) -> int:
    return hilbert_profile(n, d).m0


def density_bound(n: int, d: int) -> Fraction:
    return Fraction(dense_column_count(n, d) + 1, d**n)


def asymptotic_estimate(n: int, d: int) -> float:
    """sqrt(6/(n pi)) d^(n-1): the n -> oo (large-d) estimate of m0.

    The constant comes from the central limit theorem applied to
    (1 + ... + z^(d-1))^n.  At fixed n, m0 / d^(n-1) tends to the
    Irwin-Hall density f_n(n/2) instead (3/4 for n = 3, 2/3 for n = 4), so
    the ratio of this estimate to m0 (the `ratio` column of `analyze`) tends
    to sqrt(6/(n pi)) / f_n(n/2), not to 1.
    """
    return math.sqrt(6 / (n * math.pi)) * d ** (n - 1)


def verify_moreno_socias(Q: QuotientStructure, n: int, d: int) -> dict:
    """Compare predicted vs measured dense columns of T_1.

    Also reports the number of minimal generators divisible by x1 and
    whether T_1 needed any case-(3) column (it should not, for generic
    systems).
    """
    predicted = dense_column_count(n, d)
    T1 = Q.matrix(1)
    measured = density_stats(T1)["dense_column_count"]
    x1 = var_term(Q.n, 1)
    gens_with_x1 = sum(1 for g in Q.G1.polys if divides(x1, g.lt("drl")))
    return {
        "predicted": predicted,
        "measured": measured,
        "match": predicted == measured,
        "generators_with_x1": gens_with_x1,
        "case3_absent": T1.column_cases.count(3) == 0,
    }


def analyze_rows(n: int, d_values: list[int]) -> list[dict]:
    """Rows for the analyze CSV: n,d,D,k0,m0,density_bound,asymptotic,ratio."""
    out = []
    for d in d_values:
        prof = hilbert_profile(n, d)
        est = asymptotic_estimate(n, d)
        out.append(
            {
                "n": n,
                "d": d,
                "D": prof.ideal_degree,
                "k0": prof.k0,
                "m0": prof.m0,
                "density_bound": density_bound(n, d),
                "asymptotic": est,
                "ratio": est / prof.m0,
            }
        )
    return out
