"""Sparsity predictions for generic degree-d systems in n variables.

The staircase of a generic system is governed by the coefficients of
(1 + z + ... + z^(d-1))^n; the greatest coefficient m0 predicts the number
of dense columns in the multiplication matrices, and the density of T_1 is
bounded by (m0+1)/d^n.  The measured side is `density_stats(Q.matrix(1))`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


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

