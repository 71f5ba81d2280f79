"""Univariate polynomials over GF(p), as ascending coefficient lists.

The zero polynomial is the empty list; all functions return trimmed lists
(no trailing zero coefficients).
"""

from __future__ import annotations

from .field import PrimeField

UniPoly = list[int]


def trim(f: UniPoly) -> UniPoly:
    while f and f[-1] == 0:
        f.pop()
    return f


def deg(f: UniPoly) -> int:
    return len(f) - 1


def is_zero(f: UniPoly) -> bool:
    return not f


def uni_add(f: UniPoly, g: UniPoly, F: PrimeField) -> UniPoly:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % F.p
    return trim(out)


def uni_sub(f: UniPoly, g: UniPoly, F: PrimeField) -> UniPoly:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % F.p
    return trim(out)


def uni_scale(f: UniPoly, c: int, F: PrimeField) -> UniPoly:
    c %= F.p
    if c == 0:
        return []
    return [c * a % F.p for a in f]


def uni_mul(f: UniPoly, g: UniPoly, F: PrimeField) -> UniPoly:
    if not f or not g:
        return []
    if len(f) > len(g):
        f, g = g, f
    m = len(g)
    # one shifted row of g per coefficient of the shorter f, reduced once
    out = [0] * (len(f) + m - 1)
    for i, a in enumerate(f):
        if a:
            out[i : i + m] = [c + a * b for c, b in zip(out[i : i + m], g)]
    return trim([c % F.p for c in out])


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
    r = list(f)
    q = [0] * (len(f) - n)  # empty when deg f < deg g
    inv = F.inv(g[-1])
    # the steps leave r unreduced; only the remainder is reduced, once per
    # coefficient, at the end
    for i in range(len(q) - 1, -1, -1):
        c = r[i + n] * inv % p
        if c:
            q[i] = c
            r[i : i + n] = [a - c * b for a, b in zip(r[i : i + n], g)]
    return trim(q), trim([a % p for a in r[:n]])


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
    """Product of the distinct monic irreducible factors of f."""
    if deg(f) <= 0:
        return [1]
    f = uni_monic(f, F)
    out = [1]
    while deg(f) > 0:
        df = uni_derivative(f, F)
        if is_zero(df):
            f = uni_pth_root(f, F)
            continue
        # w carries each factor of f whose multiplicity p does not divide
        w = uni_divmod(f, uni_gcd(f, df, F), F)[0]
        out = uni_mul(out, uni_divmod(w, uni_gcd(out, w, F), F)[0], F)
        # strip all w-divisible content, leaving a p-th power for the next round
        while True:
            g = uni_gcd(f, w, F)
            if deg(g) <= 0:
                break
            f = uni_divmod(f, g, F)[0]
    return out


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
