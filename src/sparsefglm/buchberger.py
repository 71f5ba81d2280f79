"""Signature-safe Buchberger engine and random-system generator (test-input
plumbing).

Good enough for the desk-scale inputs the converters are exercised on
(D up to a few hundred); not a serious GB engine.

Every row carries a signature, the leading term s e_i of a module element
sum_i h_i e_i whose image sum_i h_i g_i is the row (Faugere's F5;
Gao-Volny-Wang; Eder-Faugere's survey for the criteria), save the own row
of a generator that an earlier row reduces, kept only for that product and
never in the reducer table.  Rows are reduced only by multiples of smaller
signature, so a row keeps its signature, and an S-pair is dropped when its
signature is a multiple of a known syzygy's, or when another row's multiple
of that signature has a smaller leading term (rewriting).  A regular
sequence has only the Koszul syzygies, and no S-polynomial of a
`gen_random_system` input reduces to zero.  The final pass is unsigned: it
keeps a minimal row whose tail terms no leading term divides, and replaces
any other by its normal form, so the output is the reduced basis, whatever
the signatures were.

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
import math
import random
from contextlib import suppress
from functools import cache
from itertools import combinations_with_replacement

from .field import PrimeField, field_codec
from .poly import GroebnerBasis, MultiPoly, Row, make_row, reduce_rows, reducer_row, row_poly
from .terms import OrderingTag, Term, TermCodec, drl_fronts, term_codec


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
    terms: list[int] = []
    for front in drl_fronts(n):
        if len(terms) + len(front) > limit:
            break
        terms += front
    return terms, dict(zip(terms, range(len(terms))))


class _PackedRows:
    """The reducer table of one Buchberger run, with its products packed
    over DRL ranks.

    `product(k, r)` is the tail of row k times the quotient term that puts
    its leading term at rank r: the entries (delta, m) of the tail land at
    rank(t + delta) for the term t of rank r.  It is kept as (P, shift),
    P packed from its lowest rank up, so that a sparse row far up the table
    holds only the span of its own terms.

    Row k's multiple whose leading term is t has the signature
    spread(t) + E_k (see `buchberger`), so of the rows whose leading terms
    divide t the first by E has the least signature there, whatever t.
    `reduce` reads the top field of a packed polynomial, clears it and
    reduces it mod p to c; a nonzero c goes to the output unless that row's
    signature at the term is below the bound `sig` (a regular reduction),
    in which case it adds c * product, the fields left unreduced.

    Pivots strictly descend, so a field gets its start value, at most
    (p-1) + (p-1)^2 for an S-polynomial, and at most one c * m <= (p-1)^2
    per pivot above it.  No rank reaches RANK_LIMIT, so fields sized for
    (p-1) + RANK_LIMIT * (p-1)^2 never carry: one width serves the whole run.

    `normal_form` packs only at a term the table ranks; past it, it reduces
    by `poly.reduce_rows` over the same rows.
    """

    def __init__(self, codec: TermCodec, p: int, spread):
        self.terms, self.ranks = _rank_table(codec.n, RANK_LIMIT)
        self.codec = codec
        self.p = p
        self.spread = spread
        self.bound = (p - 1) + RANK_LIMIT * (p - 1) ** 2
        self.bits = field_codec(1, self.bound)[0]
        # per row: (leading term, tail), the tail's (delta, m) by descending
        # term; a generator that `buchberger` reduces first has no `table` entry
        self.rows: list[Row] = []
        # (E, leading term - lift, row index) ascending: lt divides t iff
        # (t - low) & guard == mark
        self.table: list[tuple[int, int, int]] = []
        self.products: dict[tuple[int, int], tuple[int, int]] = {}
        # rank -> (P, shift, signature) of the least-signature row's product
        # at that rank, or None if no leading term divides; kept up to date
        # by `add`
        self.reducers: dict[int, tuple[int, int, int] | None] = {}
        # the least rank of a leading term in the table: a term ranked below
        # it is a multiple of no leading term, since DRL ranks a multiple of
        # t at or above t
        self.floor = len(self.terms)
        self.divisible: dict[int, bool] = {}  # packed term past the ranks -> reducible

    def add(self, lt: int, tail: list[tuple[int, int]], E: int) -> int:
        """Append the row (lt, tail), its tail by descending term, and
        return its index."""
        low = lt - self.codec.lift
        k = len(self.rows)
        bisect.insort(self.table, (E, low, k))
        self.rows.append((lt, tail))
        self.floor = min(self.floor, self.ranks.get(lt, self.floor))
        self.divisible.clear()
        # the new row wins wherever its leading term divides and its
        # signature is smaller
        terms, guard, mark, spread = self.terms, self.codec.guard, self.codec.mark, self.spread
        for r in [
            r
            for r, hit in self.reducers.items()
            if (terms[r] - low) & guard == mark and (hit is None or hit[2] > spread(terms[r]) + E)
        ]:
            del self.reducers[r]
        return k

    def product(self, k: int, r: int) -> tuple[int, int]:
        key = k, r
        P = self.products.get(key)
        if P is None:
            tail = self.rows[k][1]
            # the table holds every term up to t's degree
            t, rank = self.terms[r], self.ranks
            if tail:
                low = rank[t + tail[-1][0]]
                fields = [0] * (rank[t + tail[0][0]] + 1 - low)
                for d, m in tail:
                    fields[rank[t + d] - low] = m
                P = field_codec(len(fields), self.bound)[1](fields), self.bits * low
            else:
                P = 0, 0
            self.products[key] = P
        return P

    def _reducer(self, r: int) -> tuple[int, int, int] | None:
        t, guard, mark = self.terms[r], self.codec.guard, self.codec.mark
        for E, low, k in self.table:
            if (t - low) & guard == mark:
                return *self.product(k, r), self.spread(t) + E
        return None

    def is_reduced(self, k: int) -> bool:
        """Whether no term of row k's tail is a multiple of a leading term
        in the table, so that the row is its own normal form."""
        lt, tail = self.rows[k]
        guard, mark, divisible = self.codec.guard, self.codec.mark, self.divisible
        for d, _ in tail:
            r = self.ranks.get(t := lt + d)
            if r is None:
                hit = divisible.get(t)
                if hit is None:
                    hit = divisible[t] = any((t - low) & guard == mark for _, low, _ in self.table)
            elif r < self.floor:
                return True  # the tail descends, so the rest ranks lower still
            elif (hit := self.reducers.get(r, _UNSEEN)) is _UNSEEN:
                hit = self.reducers[r] = self._reducer(r)
            if hit:
                return False
        return True

    def normal_form(
        self, m: int, parts: tuple[tuple[int, int], ...], sig: float = math.inf
    ) -> list[tuple[int, int]]:
        """The normal form of the sum of c times product(k) at the term m
        over the (k, c) in parts, reduced only by multiples of signature
        below sig, as (packed term, coefficient) pairs by descending term."""
        r = self.ranks.get(m)
        if r is None:
            work: dict[int, int] = {}
            for k, c in parts:
                for d, a in self.rows[k][1]:
                    u = m + d
                    work[u] = work.get(u, 0) + c * a
            # a row regular at the top term is regular below it: reduce by
            # those, and again while the top falls far enough to admit more
            rows: list[Row] = []
            while work and len(rows) < len(self.table):
                top = self.spread(max(work))
                admitted = [self.rows[k] for E, _, k in self.table if top + E < sig]
                if len(admitted) == len(rows):
                    break
                rows = admitted
                work = reduce_rows(work, rows, self.codec, self.p)
            return list(work.items())
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
        return self.reduce(work, base, sig)

    def reduce(self, work: int, base: int, sig: float) -> list[tuple[int, int]]:
        """The normal form of the packed polynomial work << base under the
        table's multiples of signature below sig, as (packed term,
        coefficient) pairs by descending term.  base, a multiple of the
        field width, drops to the lowest product added, so that a sparse
        polynomial far up the table stays a short int.  Once the top term
        ranks below `floor` nothing is left to reduce, and the remaining
        fields are unpacked at once."""
        p, bits, reducers, terms, floor = self.p, self.bits, self.reducers, self.terms, self.floor
        log = bits.bit_length() - 1
        out = []
        while work:
            shift = (work.bit_length() - 1) & -bits
            r = shift + base >> log
            if r < floor:
                count, low = (shift >> log) + 1, base >> log
                fields = field_codec(count, self.bound)[2](work)
                for i in range(count - 1, -1, -1):
                    if c := fields[i] % p:
                        out.append((terms[low + i], c))
                break
            v = work >> shift
            work -= v << shift
            c = v % p
            if c:
                hit = reducers.get(r, _UNSEEN)
                if hit is _UNSEEN:
                    hit = reducers[r] = self._reducer(r)
                if hit is None or hit[2] >= sig:
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
    """Reduced Groebner basis via signature-safe S-polynomials, in DRL only.

    The generators are first reduced each by those before it (a
    generator's own row is kept only for that product, never in the reducer
    table); of m nonzero inputs, the i-th kept gets the position m - 1 - i.
    A signature s e_i is ordered by its degree deg(s) + deg(g_i) first, then
    by position, then by s (a degree-over-position-over-term order), and
    kept as one int, spread(s g_i's leading term) plus the position in a gap
    above the variable fields; a row with leading term t and signature sig
    has the key E = sig - spread(t).  So the S-pair of rows a and b with lcm
    m has the signature spread(m) + max(E_a, E_b), and none if E_a = E_b.

    The known syzygies are the principal ones of each row with each
    generator and one per reduction to zero.  No pair is made whose
    signature is a multiple of a known syzygy's, nor one of coprime leading
    terms (its own principal syzygy has its signature).  The pairs are
    taken smallest signature first, and dropped when their signature is
    that of the pair reduced before, or a multiple of a syzygy's found
    since, or when another row whose signature divides theirs has a larger
    E than the pair's larger row (Eder-Roune's rewrite order "rat", ties to
    the later row).  The working basis is kept as monic rows (see `poly`),
    and a reduction runs on polynomials packed over DRL ranks (see
    `_PackedRows`) up to the degree where the ranks pass RANK_LIMIT, on the
    heap loop `poly.reduce_rows` above it; only the result is built as
    MultiPolys.  Ranks number the terms degree by degree, which no ordering
    but a graded one allows, so any ordering other than "drl" raises
    ValueError.
    """
    if ordering != "drl":
        raise ValueError(f"buchberger runs in the DRL ordering only, not {ordering!r}")
    G = [g for g in polys if not g.is_zero()]
    if not G:
        raise ValueError("empty generating set")
    codec = term_codec(G[0].n, ordering)
    guard, mark, offset, lift = codec.guard, codec.mark, codec.offset, codec.lift
    p = F.p
    # spread opens a gap of w bits between the degree field and the
    # variable fields of a packed term, for the position; a product of
    # terms stays a sum less offset, as it is for packed terms
    L = codec.bits * codec.n
    w = len(G).bit_length()
    low_fields = (1 << L) - 1

    def spread(t: int) -> int:
        return (t >> L << L + w) | (t & low_fields)

    def unspread(x: int) -> int:
        return (x >> L + w << L) | (x & low_fields)

    def position(x: int) -> int:
        return x >> L & (1 << w) - 1

    # x divides y, both signatures, iff (y - x + offset) & divides == 0
    divides = spread(guard) | (1 << L + w) - (1 << L)
    packed = _PackedRows(codec, p, spread)
    pack, push = codec.pack, heapq.heappush
    # per signed row, in row order: the leading term's exponents, the set of
    # its variables as a bit mask (coprime leading terms share none), E and
    # the signature; and the rows of the generators
    signed: dict[int, tuple[Term, int, int, int]] = {}
    gens: list[int] = []
    # per position, the rows and the minimal signatures of the syzygies
    # known so far, with the exponents of their terms
    rows_at: list[list[int]] = [[] for _ in G]
    syzygies: list[dict[int, Term]] = [{} for _ in G]
    # pending pairs (signature, lcm, row of the larger signature, other row)
    queue: list[tuple[int, int, int, int]] = []

    def is_syzygy(T: int) -> bool:
        return any((T - y + offset) & divides == 0 for y in syzygies[position(T)])

    def note_syzygy(z: int) -> None:
        known = syzygies[position(z)]
        if not is_syzygy(z):
            for y in [y for y in known if (y - z + offset) & divides == 0]:
                del known[y]
            known[z] = codec.unpack(unspread(z))

    def add_row(lt: int, tail: list[tuple[int, int]], sig: int) -> int:
        E = sig - spread(lt)
        k = packed.add(lt, tail, E)
        for j in gens:
            if (Ej := signed[j][2]) != E:
                note_syzygy(spread(packed.rows[j][0]) + spread(lt) - offset + max(Ej, E))
        e = codec.unpack(lt)
        support = sum(1 << v for v, x in enumerate(e) if x)
        # a syzygy z at this row's position divides u sig, u = lcm(lt_a,
        # lt) / lt, the signature of a pair whose larger side is this row,
        # iff lt_a is a multiple of the term with exponents e_i + z_i - s_i
        # where z_i > s_i and 0 elsewhere: such pairs are never made
        s = codec.unpack(unspread(sig))
        cover = []
        for z in syzygies[position(sig)].values():
            r = [x + y - v if y > v else 0 for x, y, v in zip(e, z, s)]
            with suppress(ValueError):  # a degree past the codec's fields
                cover.append(pack(tuple(r)) - lift)
        for a, (ea, support_a, Ea, _) in signed.items():
            if Ea == E or not support_a & support:
                continue
            if Ea < E and any((packed.rows[a][0] - r) & guard == mark for r in cover):
                continue
            m = pack(tuple(map(max, ea, e)))
            push(queue, (spread(m) + max(Ea, E), m, *((a, k) if Ea > E else (k, a))))
        signed[k] = e, support, E, sig
        rows_at[position(sig)].append(k)
        return k

    for g in G:
        lt, tail = reducer_row(g, ordering, F)
        k = next((k for _, low, k in packed.table if (lt - low) & guard == mark), None)
        if k is not None:
            # g less a multiple of an earlier row, reduced by every row; g's
            # own row serves this product only and stays out of the table
            packed.rows.append((lt, tail))
            out = packed.normal_form(lt, ((k, 1), (len(packed.rows) - 1, p - 1)))
            if not out:
                continue
            lt, tail = make_row(out, F)
        gens.append(add_row(lt, tail, spread(lt) + (len(G) - 1 - len(gens) << L)))
    last = None
    while queue:
        T, m, c, o = heapq.heappop(queue)
        if (
            T == last
            or is_syzygy(T)
            or any(
                (T - signed[k][3] + offset) & divides == 0 and (signed[k][2], k) > (signed[c][2], c)
                for k in rows_at[position(T)]
            )
        ):
            continue
        last = T
        # the S-polynomial: both leading terms cancel at m
        out = packed.normal_form(m, ((c, 1), (o, p - 1)), T)
        if out:
            add_row(*make_row(out, F), T)
        else:
            note_syzygy(T)
    # the reduced basis: per minimal leading term, its row itself when no
    # tail term is reducible, else its normal form under the final table
    rows = {}
    for _, low, k in packed.table:
        rows.setdefault(low, k)
    lows = sorted(rows)
    basis = []
    for at, low in enumerate(lows):
        lt = low + codec.lift
        if any((lt - low2) & guard == mark for low2 in lows[:at]):
            continue
        k = rows[low]
        row = packed.rows[k]
        if not packed.is_reduced(k):
            row = lt, [(u - lt, c) for u, c in packed.normal_form(lt, ((k, 1),))]
        basis.append(row_poly(row, codec, F))
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
