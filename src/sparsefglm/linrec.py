"""Linearly recurring sequences: Berlekamp-Massey and Hankel solves.

Berlekamp-Massey is one online algorithm, its update written once in
`BMState`: it takes one term at a time and reports, for the prefix seen so
far, the minimal polynomial f and the inverse N_s^-1 mod f of the
numerator, so a Hankel solve needs no extended Euclid.  `hankel_solve`
takes that fit and one right-hand side, not the sequence.
Its numerator N_b and the product with N_s^-1 are packed `unipoly`
products, reduced mod f by one packed division; each field is sized for the
largest value it can receive, so none carries into the next.
"""

from __future__ import annotations

from operator import mul

from .field import PrimeField
from .unipoly import UniPoly, deg, trim, uni_mod, uni_mul

LinRecSeq = list[int]


class BMState:
    """Berlekamp-Massey fed one term at a time (Massey 1969).

    f is the monic minimal polynomial of the terms pushed so far (ascending,
    length L + 1 for their linear complexity L), g the f from before the
    last length change and binv the inverse of the discrepancy there.  A
    step is one dot product and, on a nonzero discrepancy, one slice update.
    """

    __slots__ = ("p", "s", "f", "g", "binv")

    def __init__(self, F: PrimeField):
        self.p, self.s = F.p, []
        self.f, self.g, self.binv = [1], [1], 1

    def push(self, v: int) -> None:
        p = self.p
        s = self.s
        s.append(v % p)
        f, g = self.f, self.g
        L, i = len(f) - 1, len(s) - 1
        delta = sum(map(mul, f, s[i - L :])) % p
        if not delta:
            return
        coef = delta * self.binv % p
        # g sits at offset 2L - i - 1 in f; if that is negative, the
        # complexity grows to i + 1 - L, f shifts up and g sits at 0
        if 2 * L <= i:
            self.f, self.g, self.binv = [0] * (i + 1 - 2 * L) + f, f, pow(delta, -1, p)
        h = self.f
        off = max(2 * L - i - 1, 0)
        h[off : off + len(g)] = [(a - coef * c) % p for a, c in zip(h[off:], g)]

    def fit(self) -> tuple[UniPoly, UniPoly]:
        """(f, N_s^-1 mod f) for the terms pushed so far: BM is extended
        Euclid in another form (Dornstetter 1987), and N_s^-1 = g * binv,
        cut to deg f coefficients.  No terms, or only zeros: ([1], [])."""
        f, p = self.f, self.p
        return f[:], trim([c * self.binv % p for c in self.g[: len(f) - 1]])


def berlekamp_massey(s: LinRecSeq, F: PrimeField) -> tuple[UniPoly, UniPoly]:
    """`BMState.fit` after pushing all of s: the monic minimal polynomial f
    of s, [c0, ..., c_{d-1}, 1] for s_{r+d} = -(c_{d-1} s_{r+d-1} + ... +
    c_0 s_r), and N_s^-1 mod f for the numerator N_s of s over f.  Only
    meaningful as *the* minimal polynomial when |s| >= 2 deg."""
    state = BMState(F)
    push = state.push
    for v in s:
        push(v)
    return state.fit()


def _numerator(f: UniPoly, s: list[int], F: PrimeField) -> UniPoly:
    """N with sum_j s_j x^(-j-1) = N / f, from the first d = deg(f) terms of
    s: N_k = sum_j f_(k+1+j) s_j is coefficient d + k of f * rev(s[:d])."""
    d = deg(f)
    return uni_mul(f, s[:d][::-1], F)[d:]


def hankel_solve(fit: tuple[UniPoly, UniPoly], rhs: list[int], F: PrimeField) -> list[int]:
    """Solve H c = rhs in O(d^2), d = len(rhs), for the d x d Hankel matrix
    H[j][k] = s[j+k] of a sequence s, given the Berlekamp-Massey fit
    (f, N_s^-1 mod f) of s[:2d] (zero-padded) or of a longer stretch of s
    of the same linear complexity.

    H is invertible iff deg f = d.  Then the numerator N_s of s over f is
    coprime to f (a common factor would leave s a recurrence of degree < d),
    and c, read as a polynomial of degree < d, is N_b * N_s^-1 mod f, where
    N_b is the numerator of rhs over f (Bostan-Salvy-Schost duality).
    """
    d = len(rhs)
    f, ns_inv = fit
    if deg(f) != d:
        raise ValueError("singular Hankel system")
    c = uni_mod(uni_mul(_numerator(f, rhs, F), ns_inv, F), f, F)
    return c + [0] * (d - len(c))
