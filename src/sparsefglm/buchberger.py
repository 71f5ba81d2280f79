"""Naive Buchberger engine and random-system generator (test-input plumbing).

Good enough for the desk-scale inputs the converters are exercised on
(D up to a few hundred); not a serious GB engine.

The working polynomials are packed over DRL ranks (`_rank_table`): one int
of `field.field_codec` fields, the field at rank r holding the coefficient
of the r-th term.  A reducer row's tail times the quotient term that puts
its leading term at t is packed once per (row, t) and kept for the run, so
a reduction step is one big-int multiply-add.  Such an int costs a field
per rank between its lowest and highest term, however few terms it holds,
so the table numbers only the degrees whose ranks stay within RANK_LIMIT,
and a reduction at a term past it runs the heap loop `poly.reduce_rows`
over packed terms instead.
"""

from __future__ import annotations

import bisect
import heapq
import random
from functools import cache
from itertools import combinations_with_replacement
from operator import itemgetter

from .field import PrimeField, field_codec
from .poly import GroebnerBasis, MultiPoly, Row, reduce_rows, reducer_row, row_poly
from .terms import OrderingTag, Term, TermCodec, term_codec, unit_term, var_term


_UNSEEN = object()

# the most ranks a run packs over: a reduction at a term of a degree d with
# C(d+n, n) > RANK_LIMIT runs the heap loop instead, so that neither the
# rank table nor a packed polynomial grows past this many fields
RANK_LIMIT = 1 << 12


@cache
def _rank_table(n: int, limit: int) -> tuple[list[int], dict[int, int]]:
    """The packed DRL terms in n variables of every degree d with
    C(d+n, n) <= limit, by rank, and the rank of each.

    Rank 0 is the term 1, and the terms of degree d take the ranks
    C(d-1+n, n) .. C(d+n, n) - 1 in ascending order.
    """
    codec = term_codec(n, "drl")
    # x^a * x_i packs as pack(a) + pack(x_i) - offset
    steps = [codec.pack(var_term(n, i)) - codec.offset for i in range(1, n + 1)]
    terms: list[int] = []
    front = [codec.pack(unit_term(n))]
    while len(terms) + len(front) <= limit:
        terms += front
        front = sorted({t + s for t in front for s in steps})
    return terms, dict(zip(terms, range(len(terms))))


class _PackedRows:
    """The reducer table of one Buchberger run, with its products packed
    over DRL ranks.

    `product(k, r)` is the tail of row k times the quotient term that puts
    its leading term at rank r: the entries (delta, m) of the tail land at
    rank(t + delta) for the term t of rank r.  It is kept as (P, shift),
    P packed from its lowest rank up, so that a sparse row far up the table
    holds only the span of its own terms.  `reduce` reads the top field of a
    packed polynomial, clears it and reduces it mod p to c; a nonzero c
    either goes to the output or adds c * product for the smallest dividing
    leading term, the fields left unreduced.

    Pivots strictly descend, so a field gets its start value, at most
    (p-1) + (p-1)^2 for an S-polynomial, and at most one c * m <= (p-1)^2
    per pivot above it.  No rank reaches RANK_LIMIT, so fields sized for
    (p-1) + RANK_LIMIT * (p-1)^2 never carry: one width serves the whole run.

    `normal_form` packs only at a term the table ranks; past it, it reduces
    by `poly.reduce_rows` over the same rows.
    """

    def __init__(self, codec: TermCodec, p: int):
        self.terms, self.ranks = _rank_table(codec.n, RANK_LIMIT)
        self.codec = codec
        self.p = p
        self.bound = (p - 1) + RANK_LIMIT * (p - 1) ** 2
        self.bits = 8 * field_codec(1, self.bound)[0]
        # the rows by ascending leading term, equal ones in basis order, for
        # `reduce_rows`
        self.rows: list[Row] = []
        # (leading term - lift, row index) ascending, equal leading terms in
        # basis order: lt divides t iff (t - low) & guard == mark
        self.table: list[tuple[int, int]] = []
        # per row, the tail's deltas and multipliers by descending term
        self.tails: list[tuple[list[int], list[int]]] = []
        self.products: dict[tuple[int, int], tuple[int, int]] = {}
        # rank -> (P, shift, low) of the winning row's product at that rank,
        # or None if no leading term divides; kept up to date by `add`
        self.reducers: dict[int, tuple[int, int, int] | None] = {}

    def add(self, lt: int, tail: list[tuple[int, int]]) -> None:
        """Append the row (lt, tail), its tail by descending term."""
        low = lt - self.codec.lift
        bisect.insort(self.table, (low, len(self.tails)))
        bisect.insort(self.rows, (lt, tail), key=itemgetter(0))
        self.tails.append(([d for d, _ in tail], [m for _, m in tail]))
        # the new leading term wins wherever it divides and is smaller
        terms, guard, mark = self.terms, self.codec.guard, self.codec.mark
        for r in [
            r
            for r, hit in self.reducers.items()
            if (hit is None or hit[2] > low) and (terms[r] - low) & guard == mark
        ]:
            del self.reducers[r]

    def product(self, k: int, r: int) -> tuple[int, int]:
        key = k, r
        P = self.products.get(key)
        if P is None:
            deltas, mults = self.tails[k]
            # the table holds every term up to t's degree
            t, rank = self.terms[r], self.ranks
            ranks = [rank[t + d] for d in deltas]
            if ranks:
                low = ranks[-1]
                fields = [0] * (ranks[0] + 1 - low)
                for u, m in zip(ranks, mults):
                    fields[u - low] = m
                pack = field_codec(len(fields), self.bound)[1]
                P = int.from_bytes(pack(*fields), "little"), self.bits * low
            else:
                P = 0, 0
            self.products[key] = P
        return P

    def _reducer(self, r: int) -> tuple[int, int, int] | None:
        t, guard, mark = self.terms[r], self.codec.guard, self.codec.mark
        for low, k in self.table:
            if (t - low) & guard == mark:
                return *self.product(k, r), low
        return None

    def normal_form(self, m: int, parts: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
        """The normal form under the table of the sum of c times product(k)
        at the term m over the (k, c) in parts, as (packed term, coefficient)
        pairs by descending term."""
        r = self.ranks.get(m)
        if r is None:
            spread: dict[int, int] = {}
            for k, c in parts:
                for d, a in zip(*self.tails[k]):
                    u = m + d
                    spread[u] = spread.get(u, 0) + c * a
            return list(reduce_rows(spread, self.rows, self.codec, self.p).items())
        work = base = 0
        for k, c in parts:
            P, s = self.product(k, r)
            if not P:
                continue
            if not work:
                work, base = c * P, s
            elif s >= base:
                work += c * P << s - base
            else:
                work = (work << base - s) + c * P
                base = s
        return self.reduce(work, base)

    def reduce(self, work: int, base: int) -> list[tuple[int, int]]:
        """The normal form of the packed polynomial work << base under the
        table, as (packed term, coefficient) pairs by descending term.  base, a
        multiple of the field width, drops to the lowest product added, so
        that a sparse polynomial far up the table stays a short int."""
        p, bits, reducers, terms = self.p, self.bits, self.reducers, self.terms
        log = bits.bit_length() - 1
        out = []
        while work:
            shift = (work.bit_length() - 1) & -bits
            v = work >> shift
            work -= v << shift
            c = v % p
            if c:
                r = shift + base >> log
                hit = reducers.get(r, _UNSEEN)
                if hit is _UNSEEN:
                    hit = reducers[r] = self._reducer(r)
                if hit is None:
                    out.append((terms[r], c))
                else:
                    P, s, _ = hit
                    if s >= base:
                        work += c * P << s - base
                    else:
                        work = (work << base - s) + c * P
                        base = s
        return out


def buchberger(polys: list[MultiPoly], ordering: OrderingTag, F: PrimeField) -> GroebnerBasis:
    """Reduced Groebner basis via S-polynomials, in DRL only.

    Pairs are pruned with the product criterion (coprime leading terms) and
    the chain criterion; pairs are handled smallest-lcm first.  The working
    basis is kept as monic rows (see `poly`), and a reduction runs on
    polynomials packed over DRL ranks (see `_PackedRows`) up to the degree
    where the ranks pass RANK_LIMIT, on the heap loop `poly.reduce_rows`
    above it; only the result is built as MultiPolys.  Ranks number the
    terms degree by degree, which no ordering but a graded one allows, so
    any ordering other than "drl" raises ValueError.
    """
    if ordering != "drl":
        raise ValueError(f"buchberger runs in the DRL ordering only, not {ordering!r}")
    G = [g for g in polys if not g.is_zero()]
    if not G:
        raise ValueError("empty generating set")
    codec = term_codec(G[0].n, ordering)
    guard, mark = codec.guard, codec.mark
    p = F.p
    packed = _PackedRows(codec, p)
    # per row: the leading term's exponents and the set of its variables as
    # a bit mask (coprime leading terms share none)
    lts: list[Term] = []
    supports: list[int] = []
    # pending pairs: the set answers the chain criterion's membership test,
    # the heap pops them smallest-lcm first, keyed once when each is made
    pairs: set[tuple[int, int]] = set()
    queue: list[tuple[int, int, int]] = []
    pack, push = codec.pack, heapq.heappush

    def add_row(lt: int, tail: list[tuple[int, int]]) -> None:
        packed.add(lt, tail)
        e = codec.unpack(lt)
        k = len(lts)
        for i, a in enumerate(lts):
            pairs.add((i, k))
            push(queue, (pack(tuple(map(max, a, e))), i, k))
        lts.append(e)
        supports.append(sum(1 << v for v, x in enumerate(e) if x))

    def chain_prunable(i: int, j: int, m: int) -> bool:
        # largest leading term first: on sparse inputs such as x1^400 + x2 +
        # 1, x1*x2^2 + 3 the smallest ones, made last, divide most lcms while
        # their pairs are pending (42 such rows tested per call, against 1)
        for low, k in reversed(packed.table):
            if (m - low) & guard == mark and k != i and k != j:
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pairs and b not in pairs:
                    return True
        return False

    for g in G:
        lt, tail = reducer_row(g, ordering, F)
        add_row(lt, sorted(tail, reverse=True))
    while queue:
        m, i, j = heapq.heappop(queue)
        pairs.discard((i, j))
        if not supports[i] & supports[j] or chain_prunable(i, j, m):
            continue
        # the S-polynomial: both leading terms cancel at m
        out = packed.normal_form(m, ((j, 1), (i, p - 1)))
        if out:
            lt, c0 = out[0]
            scale = p - F.inv(c0)
            add_row(lt, [(u - lt, c * scale % p) for u, c in out[1:]])
    # the reduced basis: one normal form per minimal row's tail under the
    # final table, whose normal forms are unique; a leading term divisible by
    # an earlier one in the table, an equal one included, is not minimal
    basis = []
    for at, (low, k) in enumerate(packed.table):
        lt = low + codec.lift
        if any((lt - low2) & guard == mark for low2, _ in packed.table[:at]):
            continue
        tail = [(u - lt, c) for u, c in packed.normal_form(lt, ((k, 1),))]
        basis.append(row_poly((lt, tail), codec, F))
    return GroebnerBasis(basis, ordering)


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
