"""Univariate polynomials over GF(p), as ascending coefficient lists.

The zero polynomial is the empty list; all functions return trimmed lists
(no trailing zero coefficients) and take coefficients in [0, p).

Products and divisions run on packed ints (Kronecker substitution): the
coefficients go into little-endian fields of `field_codec`, wide enough
for the largest value a field can reach, so one big-int multiply makes a
whole product and no field ever carries into the next.  Fields are
unpacked and reduced mod p once, at the end.
"""

from __future__ import annotations

from itertools import zip_longest

from .field import PrimeField, field_codec

UniPoly = list[int]


def trim(f: UniPoly) -> UniPoly:
    while f and f[-1] == 0:
        f.pop()
    return f


def deg(f: UniPoly) -> int:
    return len(f) - 1


def uni_add(f: UniPoly, g: UniPoly, F: PrimeField) -> UniPoly:
    return trim([(a + b) % F.p for a, b in zip_longest(f, g, fillvalue=0)])


def uni_sub(f: UniPoly, g: UniPoly, F: PrimeField) -> UniPoly:
    return trim([(a - b) % F.p for a, b in zip_longest(f, g, fillvalue=0)])


def uni_scale(f: UniPoly, c: int, F: PrimeField) -> UniPoly:
    c %= F.p
    if c == 0:
        return []
    return [c * a % F.p for a in f]


def _packed(f: UniPoly, bound: int) -> int:
    return field_codec(len(f), bound)[1](f)


def _unpacked(a: int, count: int, bound: int, p: int) -> UniPoly:
    """The first `count` fields of a, reduced mod p and trimmed."""
    return trim(list(map(p.__rmod__, field_codec(count, bound)[2](a))))


def uni_mul(f: UniPoly, g: UniPoly, F: PrimeField) -> UniPoly:
    if not f or not g:
        return []
    # a product coefficient sums at most min(len) products of reduced entries
    bound = min(len(f), len(g)) * (F.p - 1) ** 2
    return _unpacked(_packed(f, bound) * _packed(g, bound), len(f) + len(g) - 1, bound, F.p)


def uni_monic(f: UniPoly, F: PrimeField) -> UniPoly:
    if not f:
        return []
    lead = f[-1]
    if lead == 1:
        return list(f)
    inv = F.inv(lead)
    return [c * inv % F.p for c in f]


def uni_divmod(f: UniPoly, g: UniPoly, F: PrimeField) -> tuple[UniPoly, UniPoly]:
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    p = F.p
    n = len(g) - 1
    k = len(f) - n  # the quotient length
    inv = F.inv(g[-1])
    if k <= 0:
        return [], trim([a % p for a in f])
    # step i reads c off field i + n and adds (p - c) * g from field i on,
    # which leaves a multiple of p in field i + n; a field holds p - 1 plus
    # at most k such additions of at most (p-1)^2
    bound = (p - 1) + k * (p - 1) ** 2
    bits = field_codec(1, bound)[0]
    mask = (1 << bits) - 1
    r, gp = _packed(f, bound), _packed(g, bound)
    q = [0] * k
    for i in range(k - 1, -1, -1):
        c = (r >> bits * (i + n) & mask) * inv % p
        if c:
            q[i] = c
            r += (p - c) * gp << bits * i
    return trim(q), _unpacked(r & (1 << bits * n) - 1, n, bound, p)


def uni_mod(f: UniPoly, g: UniPoly, F: PrimeField) -> UniPoly:
    return uni_divmod(f, g, F)[1]


def uni_gcd(f: UniPoly, g: UniPoly, F: PrimeField) -> UniPoly:
    a, b = list(f), list(g)
    while b:
        a, b = b, uni_mod(a, b, F)
    return uni_monic(a, F)


def uni_xgcd(f: UniPoly, g: UniPoly, F: PrimeField) -> tuple[UniPoly, UniPoly]:
    """Return (d, s) with s*f = d mod g, d the monic gcd (the cofactor of g
    is not built)."""
    a, b = list(f), list(g)
    s0, s1 = [1], []
    while b:
        q, r = uni_divmod(a, b, F)
        a, b = b, r
        s0, s1 = s1, uni_sub(s0, uni_mul(q, s1, F), F)
    if not a:
        return [], s0
    lead = F.inv(a[-1])
    return uni_scale(a, lead, F), uni_scale(s0, lead, F)


def uni_derivative(f: UniPoly, F: PrimeField) -> UniPoly:
    return trim([i * c % F.p for i, c in enumerate(f)][1:])


def uni_pth_root(f: UniPoly, F: PrimeField) -> UniPoly:
    """p-th root of f when f is a polynomial in x^p.

    Over GF(p) the Frobenius fixes coefficients, so the root just picks
    every p-th coefficient.
    """
    p = F.p
    if any(c and i % p for i, c in enumerate(f)):
        raise ValueError("polynomial is not a p-th power")
    return trim([f[i] for i in range(0, len(f), p)])


def squarefree_part(f: UniPoly, F: PrimeField) -> UniPoly:
    """Product of the distinct monic irreducible factors of f.

    w = f / gcd(f, f') carries each factor whose multiplicity p does not
    divide; once every factor of w is divided out, the rest of f is a p-th
    power, so rad(f) = w · rad(p-th root of the rest).
    """
    if deg(f) <= 0:
        return [1]
    f = uni_monic(f, F)
    w = uni_divmod(f, uni_gcd(f, uni_derivative(f, F), F), F)[0]
    while deg(g := uni_gcd(f, w, F)) > 0:
        f = uni_divmod(f, g, F)[0]
    return uni_mul(w, squarefree_part(uni_pth_root(f, F), F), F)


def uni_crt(residues: list[UniPoly], moduli: list[UniPoly], F: PrimeField) -> UniPoly:
    """Solve f = residues[i] mod moduli[i] for pairwise-coprime moduli."""
    f = list(residues[0])
    m = list(moduli[0])
    for r, mod in zip(residues[1:], moduli[1:]):
        g, s = uni_xgcd(m, mod, F)
        if deg(g) != 0:
            raise ValueError("moduli are not pairwise coprime")
        # f + m * s * (r - f) is = f mod m and = r mod mod
        diff = uni_sub(r, f, F)
        lift = uni_mul(uni_mul(s, diff, F), m, F)
        m = uni_mul(m, mod, F)
        f = uni_mod(uni_add(f, lift, F), m, F)
    return f
