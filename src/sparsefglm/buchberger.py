"""Naive Buchberger engine and random-system generator (test-input plumbing).

Good enough for the desk-scale inputs the converters are exercised on
(D up to a few hundred); not a serious GB engine.
"""

from __future__ import annotations

import bisect
import heapq
import random
from itertools import combinations_with_replacement
from operator import itemgetter

from .field import PrimeField
from .poly import (
    GroebnerBasis,
    MultiPoly,
    Row,
    interreduce_rows,
    make_row,
    reduce_rows,
    reducer_row,
    row_poly,
)
from .terms import OrderingTag, Term, TermCodec, term_codec


def _lcm(a: Term, b: Term) -> Term:
    return tuple(map(max, a, b))


def _coprime(a: Term, b: Term) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _spoly(f: Row, g: Row, m: int, codec: TermCodec, p: int) -> dict[int, int]:
    """The packed S-polynomial of two monic rows whose leading terms have the
    packed lcm m: the term at m cancels, and a tail entry (delta, c) of a row
    lands at m + delta."""
    out = {codec.check(m + d): p - c for d, c in f[1]}
    for d, c in g[1]:
        u = codec.check(m + d)
        v = (out.get(u, 0) + c) % p
        if v:
            out[u] = v
        else:
            out.pop(u, None)
    return out


def buchberger(polys: list[MultiPoly], ordering: OrderingTag, F: PrimeField) -> GroebnerBasis:
    """Reduced Groebner basis via S-polynomials.

    Pairs are pruned with the product criterion (coprime leading terms) and
    the chain criterion; pairs are handled smallest-lcm first.  The working
    basis is kept as monic packed rows (see `poly`) from the first reduction
    to the final interreduction; only the result is built as MultiPolys.
    """
    G = [g for g in polys if not g.is_zero()]
    if not G:
        raise ValueError("empty generating set")
    codec = term_codec(G[0].n, ordering)
    p = F.p
    rows = [reducer_row(g, ordering, F) for g in G]
    lts = [codec.unpack(lt) for lt, _ in rows]
    # the reducers by ascending leading term, equal ones in basis order
    table = sorted(rows, key=itemgetter(0))
    # pending pairs: the set answers the chain criterion's membership test,
    # the heap pops them smallest-lcm first, keyed once when each is made
    pairs: set[tuple[int, int]] = set()
    queue: list[tuple[int, int, int]] = []

    def add_pair(i: int, j: int) -> None:
        pairs.add((i, j))
        heapq.heappush(queue, (codec.pack(_lcm(lts[i], lts[j])), i, j))

    for j in range(len(rows)):
        for i in range(j):
            add_pair(i, j)

    def chain_prunable(i: int, j: int, m: int) -> bool:
        for k, (lk, _) in enumerate(rows):
            if k in (i, j):
                continue
            if codec.divides(lk, m):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pairs and b not in pairs:
                    return True
        return False

    while queue:
        m, i, j = heapq.heappop(queue)
        pairs.discard((i, j))
        if _coprime(lts[i], lts[j]):
            continue
        if chain_prunable(i, j, m):
            continue
        r = reduce_rows(_spoly(rows[i], rows[j], m, codec, p), table, codec, p)
        if not r:
            continue
        row = make_row(r, F)
        rows.append(row)
        lts.append(codec.unpack(row[0]))
        bisect.insort(table, row, key=itemgetter(0))
        k = len(rows) - 1
        for i2 in range(k):
            add_pair(i2, k)
    basis = [row_poly(row, codec, F) for row in interreduce_rows(rows, codec, p)]
    return GroebnerBasis(basis, ordering, reduced=True)


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
