"""Naive Buchberger engine and random-system generator (test-input plumbing).

Good enough for the desk-scale inputs the converters are exercised on
(D up to a few hundred); not a serious GB engine.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations_with_replacement

from .field import PrimeField
from .poly import GroebnerBasis, MultiPoly, mp_mul_term, mp_sub, normal_form, reduce_basis
from .terms import OrderingTag, Term, divides, term_key


def _lcm(a: Term, b: Term) -> Term:
    return tuple(map(max, a, b))


def _coprime(a: Term, b: Term) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _spoly(f: MultiPoly, g: MultiPoly, ordering: OrderingTag, F: PrimeField) -> MultiPoly:
    lf, lg = f.lt(ordering), g.lt(ordering)
    m = _lcm(lf, lg)
    sf = tuple(a - b for a, b in zip(m, lf))
    sg = tuple(a - b for a, b in zip(m, lg))
    a = mp_mul_term(f, sf, F.inv(f.lc(ordering)), F)
    b = mp_mul_term(g, sg, F.inv(g.lc(ordering)), F)
    return mp_sub(a, b, F)


def buchberger(polys: list[MultiPoly], ordering: OrderingTag, F: PrimeField) -> GroebnerBasis:
    """Reduced Groebner basis via S-polynomials.

    Pairs are pruned with the product criterion (coprime leading terms) and
    the chain criterion; pairs are handled smallest-lcm first.
    """
    key = term_key(ordering)
    G = [g for g in polys if not g.is_zero()]
    if not G:
        raise ValueError("empty generating set")
    # pending pairs: the set answers the chain criterion's membership test,
    # the heap pops them smallest-lcm first, keyed once when each is made
    pairs: set[tuple[int, int]] = set()
    queue: list[tuple[tuple, int, int]] = []

    def add_pair(i: int, j: int) -> None:
        pairs.add((i, j))
        heapq.heappush(queue, (key(_lcm(G[i].lt(ordering), G[j].lt(ordering))), i, j))

    for j in range(len(G)):
        for i in range(j):
            add_pair(i, j)

    def chain_prunable(i: int, j: int) -> bool:
        m = _lcm(G[i].lt(ordering), G[j].lt(ordering))
        for k in range(len(G)):
            if k in (i, j):
                continue
            lk = G[k].lt(ordering)
            if divides(lk, m):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pairs and b not in pairs:
                    return True
        return False

    while queue:
        _, i, j = heapq.heappop(queue)
        pairs.discard((i, j))
        if _coprime(G[i].lt(ordering), G[j].lt(ordering)):
            continue
        if chain_prunable(i, j):
            continue
        r = normal_form(_spoly(G[i], G[j], ordering, F), G, ordering, F)
        if r.is_zero():
            continue
        G.append(r)
        k = len(G) - 1
        for i2 in range(k):
            add_pair(i2, k)
    return GroebnerBasis(reduce_basis(G, ordering, F), ordering, reduced=True)


def gen_random_system(n: int, d: int, p: int, seed) -> list[MultiPoly]:
    """n dense polynomials of degree d with uniform coefficients mod p."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    PrimeField(p)  # validates primality
    rng = random.Random(seed)
    monomials: list[Term] = []
    for total in range(d + 1):
        for c in combinations_with_replacement(range(n), total):
            e = [0] * n
            for v in c:
                e[v] += 1
            monomials.append(tuple(e))
    out = []
    for _ in range(n):
        out.append(MultiPoly(n, {t: rng.randrange(p) for t in monomials}))
    return out
