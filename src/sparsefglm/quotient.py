"""Quotient-ring structure for a zero-dimensional ideal given by its reduced
DRL basis, as `buchberger` returns it.

Builds the canonical basis B (staircase monomials, ascending DRL), the sparse
multiplication matrices T_1..T_n, and the coordinate-vector utilities the
change-of-ordering algorithms run on, keyed by packed DRL term
(`TermCodec`): x_l t is t + steps[l - 1], and only `basis` and the terms
`term_vec` and `staircase` take are exponent tuples.

Column construction distinguishes three cases for the product term b_k*x_l:
(1) it lies in B (unit column, kept as the row of its 1), (2) it is a
leading term of the input basis (its element's other terms times -1/lc,
placed by B's index), (3) it is a border term.  A basis that is not
reduced (a leading term divisible by another, or another term outside B)
is rejected with ValueError; `buchberger` reduces it.  `term_vec` computes
every such normal form: in case (3), t = x_l * u with u outside B and
NF(t) = T_l NF(u), a forward product over the columns of T_l known so far,
packing the case-2/3 columns it needs (a cascade).  `matrix(l)` completes
that same T_l with a row layout for its transpose.  Both products take
vectors already reduced into [0, p).
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import compress
from operator import itemgetter, mul

from .field import PrimeField, field_codec
from .poly import GroebnerBasis, InternalError
from .terms import Term, drl_fronts, term_codec, unit_term, var_term

CoordVector = list[int]


def _picker(picks: list[int]):
    """itemgetter(*picks), giving a tuple for one index too."""
    return itemgetter(*picks) if len(picks) > 1 else lambda v, k=picks[0]: (v[k],)


class SparseMat:
    """T_l, the D x D matrix of x_l on B over GF(p), made on first use and
    completed once by `complete`.  For `apply`: rows[c] is the row of unit
    (case-1) column c's 1, None for a case-2/3 (dense) column; cols[c] is
    dense column c packed, T[r][c] in field r of `field_codec(D, D*(p-1)^2)`,
    None until packed (and for a unit column), so a zero column is packed
    once too; `apply` skips None as it skips 0.  `units` picks out of v + [0]
    the entry of the unit column with its 1 in row r, else the 0: x_l is
    injective on B, so no row has two, and a field of T v stays within
    D(p-1)^2, uncarried.  For `apply_transpose`, `complete` adds one int per
    row r with T[r][c] of each dense column c, the k-th in field k; `fields`
    splits a sum of rows into its fields, and `gather` picks v's entry for
    each unit column and the field of each dense one out of v + [fields], in
    column order.
    """

    __slots__ = ("dim", "p", "rows", "cols", "units", "pack", "unpack",
                 "column_cases", "packed", "fields", "gather")

    def __init__(self, rows: list[int | None], p: int):
        self.dim = D = len(rows)
        self.rows, self.p, self.cols = rows, p, [None] * D
        column_of = {row: c for c, row in enumerate(rows) if row is not None}
        self.units = _picker([column_of.get(r, D) for r in range(D)])
        _, self.pack, self.unpack = field_codec(D, D * (p - 1) ** 2)

    def complete(self, dense_columns: list[CoordVector], column_cases: list[int]) -> SparseMat:
        """Add the row layout of the dense columns, in column order."""
        self.column_cases = column_cases
        _, pack_row, self.fields = field_codec(len(dense_columns), self.dim * (self.p - 1) ** 2)
        # row r packs the r-th entry of every dense column
        self.packed = list(map(pack_row, zip(*dense_columns)))
        at = iter(range(self.dim, self.dim + len(dense_columns)))
        self.gather = _picker([next(at) if row is None else row for row in self.rows])
        return self

    def column_entries(self) -> Iterator[list[tuple[int, int]]]:
        """Each column's nonzero (row, value) pairs by ascending row, in turn."""
        for row, col in zip(self.rows, self.cols):
            if row is not None:
                yield [(row, 1)]
            else:
                yield [(r, a) for r, a in enumerate(self.unpack(col)) if a]


def apply(T: SparseMat, v: CoordVector) -> CoordVector:
    """T v: one gather packs the unit columns' entries of v, then one
    big-int multiply-add per packed column (the rest meet zeros of v)."""
    if len(v) != T.dim:
        raise ValueError("vector length does not match matrix dimension")
    total = sum(map(mul, filter(None, T.cols), compress(v, T.cols)), T.pack(T.units(v + [0])))
    return list(map(T.p.__rmod__, T.unpack(total)))


def apply_transpose(T: SparseMat, v: CoordVector) -> CoordVector:
    if len(v) != T.dim:
        raise ValueError("vector length does not match matrix dimension")
    fields = T.fields(sum(map(mul, T.packed, v)))
    return list(T.gather(v + list(map(T.p.__rmod__, fields))))


def density_stats(T: SparseMat) -> dict:
    nnz = sum(map(len, T.column_entries()))
    return {
        "nnz": nnz,
        "percent_nonzero": 100.0 * nnz / (T.dim * T.dim),
        "dense_column_count": len(T.column_cases) - T.column_cases.count(1),
    }


def staircase(lts: list[Term], n: int, limit: int | None = None) -> list[int] | None:
    """Standard monomials under lts in ascending DRL order, as packed DRL
    terms, which sort as the terms do and test divisibility by one mask
    each (`TermCodec`).

    None when the staircase is infinite or, given a limit, holds more than
    limit terms; the walk stops as soon as the count passes the limit.
    Every divisor of a standard monomial is one, so the standard monomials
    of degree d + 1 are the products x_i t of those of degree d that no
    leading term divides.  ValueError when the product of the pure powers'
    bounds, which every term it visits divides, has a degree past MAX_EXP.
    """
    corner = [min((t[i] for t in lts if sum(t) == t[i]), default=None) for i in range(n)]
    if None in corner:  # some variable has no pure power among lts
        return None
    codec = term_codec(n, "drl")
    codec.pack(tuple(corner))  # no term the walk visits leaves its fields
    guard = codec.guard
    lows = sorted(codec.pack(t) - codec.lift for t in lts)

    def standard(front: list[int]) -> list[int]:
        # a leading term past the front's last divides none of it
        top = front[-1]
        for low in lows:
            if low > top:
                break
            front = [t for t in front if (t - low) & guard]
        return front

    terms: list[int] = []
    for front in drl_fronts(n, standard):
        terms += front
        if limit is not None and len(terms) > limit:
            return None
    return terms


class QuotientStructure:
    def __init__(self, G1: GroebnerBasis, F: PrimeField):
        if G1.ordering != "drl":
            raise ValueError("source basis must be DRL")
        self.G1, self.F, self.n = G1, F, G1.n
        codec = self._codec = term_codec(self.n, "drl")
        if not all(g.coeffs for g in G1.polys):
            raise ValueError("zero polynomial has no leading term")
        # each element's packed terms, its leading term their max
        packed = [codec.pack_all(g.coeffs) for g in G1.polys]
        lts = list(map(max, packed))
        self._basis = basis = staircase(list(map(codec.unpack, lts)), self.n)
        if basis is None:
            raise ValueError("ideal not zero-dimensional")
        if not basis:  # a leading term divides 1
            raise ValueError("ideal contains 1 (quotient has dimension 0)")
        if basis[0] != codec.pack(unit_term(self.n)):
            raise InternalError("staircase does not start at 1")
        self.basis = list(map(codec.unpack, basis))
        self.D = len(basis)
        self.index = index = {t: i for i, t in enumerate(basis)}
        # packed leading term -> its element's coefficients and their places in B
        self._elements = elements = {
            lt: (list(g.coeffs.values()), list(map(index.get, terms)))
            for lt, g, terms in zip(lts, G1.polys, packed)
        }
        # the columns read the basis as reduced: its leading terms are
        # distinct, each t / x_l of one is in B, and so are its other terms
        if not (
            len(elements) == len(G1.polys)
            and all((u := t - s) & codec.guard or u in index for t in elements for s in codec.steps)
            and all(places.count(None) == 1 for _, places in elements.values())
        ):
            raise ValueError("DRL basis is not reduced; buchberger returns a reduced one")
        # NF(x^t) of the packed t outside B that term_vec reached; read-only
        self._term_vecs: dict[int, CoordVector] = {}
        self.matrices: list[SparseMat | None] = [None] * self.n
        self._stores: list[SparseMat | None] = [None] * self.n

    def e(self) -> CoordVector:
        """Coordinate vector of 1."""
        return self.term_vec(unit_term(self.n))

    # --- probes -------------------------------------------------------------

    def probes(self, seed) -> Iterator[CoordVector]:
        """The random probes of a seed: probe k is the k-th block of D
        uniform draws from one random.Random(seed), drawn when asked for."""
        rng = random.Random(seed)
        while True:
            yield [rng.randrange(self.F.p) for _ in range(self.D)]

    def probe(self, r: CoordVector) -> CoordVector:
        """r as a stage reads its probe: length D (ValueError otherwise),
        reduced into [0, p)."""
        if len(r) != self.D:
            raise ValueError(f"probe length {len(r)} does not match D = {self.D}")
        return [x % self.F.p for x in r]

    # --- normal forms of single terms -------------------------------------

    def _case2_column(self, coeffs: list[int], places: list[int | None]) -> CoordVector:
        """NF of an element's leading term, its one term outside B: the other
        terms times -1/lc, each at its place in B."""
        p, v = self.F.p, [0] * self.D
        m = p - self.F.inv(coeffs[places.index(None)])
        for k, c in zip(places, coeffs):
            if k is not None:
                v[k] = c * m % p
        return v

    def term_vec(self, t: Term) -> CoordVector:
        """Coordinate vector of NF(x^t), the one routine that computes it.

        t is packed once, so a total degree past MAX_EXP raises ValueError.
        A term of B gives a unit vector and a leading term its case-2
        column.  Any other t is x_l * u with u outside B (case 3), so
        NF(t) = T_l NF(u), one forward product over T_l once the
        dense columns it needs are packed.  The chain of such u is walked
        down first, so the recursion depth does not grow with the degree.
        """
        return self._vec(self._codec.pack(t))

    def _vec(self, t: int) -> CoordVector:
        """`term_vec` of the packed term t."""
        chain = []
        while (v := self._term_vecs.get(t)) is None:
            if (k := self.index.get(t)) is not None:
                v = [0] * self.D
                v[k] = 1
                break
            if (element := self._elements.get(t)) is not None:
                v = self._term_vecs[t] = self._case2_column(*element)
                break
            # every basis term of NF(u) sits strictly below u in DRL, so the
            # columns NF(b_k x_l) lie below t
            for l, s in enumerate(self._codec.steps):
                if not (u := t - s) & self._codec.guard and u not in self.index:
                    break
            else:
                raise InternalError(f"no reducible divisor for border term {self._codec.unpack(t)}")
            chain.append((t, l))
            t = u
        for t, l in reversed(chain):
            T = self._store(l)
            for k in compress(range(self.D), v):
                if T.rows[k] is None and T.cols[k] is None:
                    self._dense_column(l, k)
            v = self._term_vecs[t] = apply(T, v)
        return v

    def _store(self, l: int) -> SparseMat:
        """T_l, 0-based l, made on first use; matrix(l + 1) completes it."""
        if self._stores[l] is None:
            s = self._codec.steps[l]
            self._stores[l] = SparseMat([self.index.get(b + s) for b in self._basis], self.F.p)
        return self._stores[l]

    def _dense_column(self, l: int, k: int) -> CoordVector:
        """NF(b_k x_l), a dense column of T_l, packed into it once."""
        v = self._vec(self._basis[k] + self._codec.steps[l])
        if (T := self._stores[l]).cols[k] is None:
            T.cols[k] = T.pack(v)
        return v

    def nf_of_var(self, i: int) -> CoordVector:
        """Coordinate vector of NF(x_i), 1-based i.  Never builds a matrix."""
        return self.term_vec(var_term(self.n, i))

    # --- multiplication matrices ------------------------------------------

    def matrix(self, j: int) -> SparseMat:
        """T_j, built on first use; 1-based j."""
        if not 1 <= j <= self.n:
            raise ValueError(f"variable index {j} out of range")
        if self.matrices[j - 1] is None:
            self.matrices[j - 1] = self._build(j)
        return self.matrices[j - 1]

    def _build(self, j: int) -> SparseMat:
        T, s = self._store(j - 1), self._codec.steps[j - 1]
        dense = [self._dense_column(j - 1, k) for k, row in enumerate(T.rows) if row is None]
        cases = [
            1 if row is not None else 2 if b + s in self._elements else 3
            for b, row in zip(self._basis, T.rows)
        ]
        return T.complete(dense, cases)


def dump_matrix(Q: QuotientStructure, j: int) -> str:
    """`D n j nnz` header, then `row col value` per nonzero, ascending (col, row)."""
    T = Q.matrix(j)
    lines = [
        f"{row} {col} {a}"
        for col, entries in enumerate(T.column_entries())
        for row, a in entries
    ]
    return "\n".join([f"{T.dim} {Q.n} {j} {len(lines)}", *lines]) + "\n"
