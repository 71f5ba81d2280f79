"""Linearly recurring sequences: Berlekamp-Massey and Hankel solves.

One Berlekamp-Massey run gives both the minimal polynomial f of a
sequence and the inverse N_s^-1 mod f of its numerator, read off the
run's final state, so a Hankel solve needs no extended Euclid.
"""

from __future__ import annotations

from operator import mul

from .field import PrimeField
from .unipoly import UniPoly, deg, trim, uni_mod, uni_mul

LinRecSeq = list[int]


def berlekamp_massey(s: LinRecSeq, F: PrimeField) -> tuple[UniPoly, UniPoly]:
    """Monic minimal polynomial f of the recurrence satisfied by s, and
    N_s^-1 mod f for the numerator N_s of s over f.

    Ascending coefficients: [c0, ..., c_{d-1}, 1] means
    s_{r+d} = -(c_{d-1} s_{r+d-1} + ... + c_0 s_r).  All-zero input gives
    ([1], []).  Only meaningful as *the* minimal polynomial when
    |s| >= 2 deg.  BM is the extended Euclidean algorithm in another form
    (Dornstetter 1987): with B the connection polynomial of length L_B kept
    at the last length change and b the discrepancy there,
    N_s^-1 = rev_{L_B}(B) / b, already of degree below deg f.
    """
    p = F.p
    s = [v % p for v in s]
    # C = current connection polynomial, B = copy from the last length change
    C = [1]
    B = [1]
    L = 0
    LB = 0
    m = 1
    b = 1
    for i, si in enumerate(s):
        delta = si
        for k in range(1, L + 1):
            delta = (delta + C[k] * s[i - k]) % p
        if delta == 0:
            m += 1
        elif 2 * L <= i:
            T = C[:]
            coef = delta * F.inv(b) % p
            C = C + [0] * (len(B) + m - len(C))
            for k, Bk in enumerate(B):
                C[k + m] = (C[k + m] - coef * Bk) % p
            L, LB = i + 1 - L, L
            B = T
            b = delta
            m = 1
        else:
            coef = delta * F.inv(b) % p
            C = C + [0] * max(0, len(B) + m - len(C))
            for k, Bk in enumerate(B):
                C[k + m] = (C[k + m] - coef * Bk) % p
            m += 1
    # connection form C(x) = 1 + c1 x + ... reversed is monic; B likewise
    f = (C[: L + 1] + [0] * (L + 1 - len(C)))[::-1]
    binv = F.inv(b)
    ns_inv = [c * binv % p for c in (B[: LB + 1] + [0] * (LB + 1 - len(B)))[::-1]]
    return f, trim(ns_inv[:L])


class HankelSystem:
    """H[j][k] = seq[j+k] for a d x d matrix, with right-hand side rhs.

    fit, the pair (f, N_s^-1 mod f) that berlekamp_massey returns for
    seq[:2d], belongs to the sequence, not to the right-hand side:
    hankel_solve fits seq when it is missing, and `with_rhs` hands it on to
    the next system on the same sequence.  A caller that has already fitted
    seq[:2d], or a longer stretch of seq of the same linear complexity, may
    pass that fit.
    """

    __slots__ = ("d", "seq", "rhs", "fit")

    def __init__(
        self, d: int, seq: list[int], rhs: list[int], fit: tuple[UniPoly, UniPoly] | None = None
    ):
        if len(seq) < 2 * d - 1:
            raise ValueError("sequence too short for Hankel dimension")
        if len(rhs) != d:
            raise ValueError("right-hand side length does not match dimension")
        self.d = d
        self.seq = seq
        self.rhs = rhs
        self.fit = fit

    def with_rhs(self, rhs: list[int]) -> HankelSystem:
        """The same sequence and whatever fit it has, against another rhs."""
        return HankelSystem(self.d, self.seq, rhs, self.fit)


def _numerator(f: UniPoly, s: list[int], p: int) -> UniPoly:
    """N with sum_j s_j x^(-j-1) = N / f, from the first deg(f) terms of s."""
    return trim([sum(map(mul, f[k + 1 :], s)) % p for k in range(deg(f))])


def hankel_solve(sys: HankelSystem, F: PrimeField) -> list[int]:
    """Solve H c = b in O(d^2) through the generating series of seq and rhs.

    H is invertible iff the minimal polynomial f of seq[:2d] (zero-padded)
    has degree d.  Then the numerator N_s of seq over f is coprime to f (a
    common factor would leave seq a recurrence of degree < d), and c, read
    as a polynomial of degree < d, is N_b * N_s^-1 mod f, where N_b is the
    numerator of rhs over f (Bostan-Salvy-Schost duality).  f and N_s^-1
    both come from one Berlekamp-Massey run, made once per sequence and
    kept on sys.
    """
    d = sys.d
    if sys.fit is None:
        s = sys.seq[: 2 * d]
        sys.fit = berlekamp_massey(s + [0] * (2 * d - len(s)), F)
    f, ns_inv = sys.fit
    if deg(f) != d:
        raise ValueError("singular Hankel system")
    c = uni_mod(uni_mul(_numerator(f, sys.rhs, F.p), ns_inv, F), f, F)
    return c + [0] * (d - len(c))


def _rank(rows: list[list[int]], F: PrimeField) -> int:
    p = F.p
    M = [[a % p for a in row] for row in rows]
    rank = 0
    ncols = len(M[0]) if M else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(M)) if M[r][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = F.inv(M[rank][col])
        M[rank] = [a * inv % p for a in M[rank]]
        for r in range(len(M)):
            if r != rank and M[r][col]:
                c = M[r][col]
                M[r] = [(a - c * b) % p for a, b in zip(M[r], M[rank])]
        rank += 1
    return rank
