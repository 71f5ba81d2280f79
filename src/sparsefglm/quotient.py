"""Quotient-ring structure for a zero-dimensional ideal given by its reduced
DRL basis, as `buchberger` returns it.

Builds the canonical basis B (staircase monomials, ascending DRL), the sparse
multiplication matrices T_1..T_n, and the coordinate-vector utilities the
change-of-ordering algorithms run on.  A case-2 column reads a basis
element's other terms as coordinates in B, so a basis that is not reduced
(a leading term divisible by another, or another term outside B) is
rejected with ValueError; `buchberger` reduces it.

Column construction distinguishes three cases for the product term b_k*x_l:
(1) it lies in B (unit column, kept as the row of its 1), (2) it is a
leading term of the input basis (read the column off that polynomial), (3)
it is a border term.  `term_vec` computes every such normal form: in case
(3), t = x_l * u with u outside B and NF(t) = T_l NF(u), a product over
T_l's column store that packs the case-2/3 columns it needs (a cascade).
T_l itself adds only a row layout for its transpose.  Both products take
vectors already reduced into [0, p).
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import compress, product as iter_product, repeat
from operator import itemgetter, mul

from .field import PrimeField, field_codec
from .poly import GroebnerBasis, InternalError, MultiPoly
from .terms import Term, divides, drl_key, term_mul, unit_term, var_term

CoordVector = list[int]


def _picker(picks: list[int]):
    """itemgetter(*picks), giving a tuple for one index too."""
    return itemgetter(*picks) if len(picks) > 1 else lambda v, k=picks[0]: (v[k],)


class ColumnStore:
    """T_l's columns as far as they are known, for the forward product:
    rows[c] is the row of unit (case-1) column c's 1, None for a case-2/3
    (dense) column; cols[c] is dense column c packed, T[r][c] in field r of
    `field_codec(D, D*(p-1)^2)`, 0 until packed (and for a unit column).
    `units` picks out of v + [0] the entry of the unit column with its 1 in
    row r, else the 0: x_l is injective on B, so no row has two, and a
    field of T v stays within D(p-1)^2, uncarried.
    """

    __slots__ = ("rows", "cols", "units", "p", "nbytes", "pack", "unpack")

    def __init__(self, rows: list[int | None], p: int):
        D = len(rows)
        self.rows, self.p, self.cols = rows, p, [0] * D
        column_of = {row: c for c, row in enumerate(rows) if row is not None}
        self.units = _picker([column_of.get(r, D) for r in range(D)])
        width, self.pack, self.unpack = field_codec(D, D * (p - 1) ** 2)
        self.nbytes = D * width

    def times(self, v: CoordVector) -> CoordVector:
        """T v: one gather packs the unit columns' entries of v, then one
        big-int multiply-add per packed column (the rest meet zeros of v)."""
        total = int.from_bytes(self.pack(*self.units(v + [0])), "little")
        total = sum(map(mul, filter(None, self.cols), compress(v, self.cols)), total)
        return list(map(self.p.__rmod__, self.unpack(total.to_bytes(self.nbytes, "little"))))


class SparseMat:
    """D x D matrix over GF(p): its complete `ColumnStore` for `apply`, and
    for `apply_transpose` one int per row r with T[r][c] of each dense
    column c, the k-th in field k; `fields` splits the `nbytes` bytes of a
    sum of rows, and `gather` picks v's entry for each unit column and the
    field of each dense one out of v + [fields], in column order.
    """

    __slots__ = ("dim", "column_cases", "store", "packed", "nbytes", "fields", "gather")

    def __init__(self, store: ColumnStore, dense_columns: list[CoordVector], column_cases: list[int]):
        self.dim = D = len(store.rows)
        self.column_cases, self.store = column_cases, store
        width, pack_row, self.fields = field_codec(len(dense_columns), D * (store.p - 1) ** 2)
        self.nbytes = len(dense_columns) * width
        # row r packs the r-th entry of every dense column
        self.packed = list(map(int.from_bytes, map(pack_row, *dense_columns), repeat("little")))
        at = iter(range(D, D + len(dense_columns)))
        self.gather = _picker([next(at) if row is None else row for row in store.rows])

    def column_entries(self) -> Iterator[list[tuple[int, int]]]:
        """Each column's nonzero (row, value) pairs by ascending row, in turn."""
        store = self.store
        for row, col in zip(store.rows, store.cols):
            if row is not None:
                yield [(row, 1)]
            else:
                yield [(r, a) for r, a in enumerate(store.unpack(col.to_bytes(store.nbytes, "little"))) if a]


def apply(T: SparseMat, v: CoordVector) -> CoordVector:
    if len(v) != T.dim:
        raise ValueError("vector length does not match matrix dimension")
    return T.store.times(v)


def apply_transpose(T: SparseMat, v: CoordVector) -> CoordVector:
    if len(v) != T.dim:
        raise ValueError("vector length does not match matrix dimension")
    fields = T.fields(sum(map(mul, T.packed, v)).to_bytes(T.nbytes, "little"))
    return list(T.gather(v + list(map(T.store.p.__rmod__, fields))))


def density_stats(T: SparseMat) -> dict:
    nnz = sum(map(len, T.column_entries()))
    return {
        "nnz": nnz,
        "percent_nonzero": 100.0 * nnz / (T.dim * T.dim),
        "dense_column_count": len(T.column_cases) - T.column_cases.count(1),
    }


def staircase(lts: list[Term], n: int, limit: int | None = None) -> list[Term] | None:
    """Standard monomials under lts in ascending DRL order.

    None when the staircase is infinite or, given a limit, holds more than
    limit terms; the count stops as soon as it passes the limit.
    """
    bounds = []
    for i in range(n):
        pure = [t[i] for t in lts if sum(t) == t[i]]
        if not pure:
            return None
        bounds.append(min(pure))
    terms = []
    for t in iter_product(*(range(b) for b in bounds)):
        if not any(divides(l, t) for l in lts):
            terms.append(t)
            if limit is not None and len(terms) > limit:
                return None
    terms.sort(key=drl_key)
    return terms


class QuotientStructure:
    def __init__(self, G1: GroebnerBasis, F: PrimeField):
        if G1.ordering != "drl":
            raise ValueError("source basis must be DRL")
        self.G1, self.F, self.n = G1, F, G1.n
        lts = [g.lt("drl") for g in G1.polys]
        self._lt_map = dict(zip(lts, G1.polys))
        if unit_term(self.n) in self._lt_map:
            raise ValueError("ideal contains 1 (quotient has dimension 0)")
        basis = staircase(lts, self.n)
        if basis is None:
            raise ValueError("ideal not zero-dimensional")
        if not basis or basis[0] != unit_term(self.n):
            raise InternalError("staircase does not start at 1")
        self.basis = basis
        self.D = len(basis)
        self.index = {t: i for i, t in enumerate(basis)}
        # the columns read the basis as reduced: no leading term divides
        # another, so each is distinct with every t / x_l in B, and the
        # leading term is each element's one term outside B
        minimal = all(t[:l] + (t[l] - 1,) + t[l + 1 :] in self.index for t in lts for l in range(self.n) if t[l])
        tails_in_b = all(len(g.coeffs.keys() - self.index.keys()) == 1 for g in G1.polys)
        if len(self._lt_map) < len(lts) or not (minimal and tails_in_b):
            raise ValueError("DRL basis is not reduced; buchberger returns a reduced one")
        self.matrices: list[SparseMat | None] = [None] * self.n
        # NF(x^t) of the terms outside B that term_vec reached; callers must
        # not mutate them
        self._term_vecs: dict[Term, CoordVector] = {}
        self._stores: list[ColumnStore | None] = [None] * self.n

    def _unit(self, i: int) -> CoordVector:
        v = [0] * self.D
        v[i] = 1
        return v

    def e(self) -> CoordVector:
        """Coordinate vector of 1."""
        return self._unit(0)

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

    def _case2_column(self, t: Term) -> CoordVector:
        g = self._lt_map[t]
        p = self.F.p
        v = [0] * self.D
        inv = self.F.inv(g.coeffs[t])
        for s, c in g.coeffs.items():
            if s != t:
                v[self.index[s]] = -c * inv % p
        return v

    def term_vec(self, t: Term) -> CoordVector:
        """Coordinate vector of NF(x^t), the one routine that computes it.

        A term of B gives a unit vector and a leading term its case-2
        column.  Any other t is x_l * u with u outside B (case 3), so
        NF(t) = T_l NF(u), one product over T_l's column store once the
        dense columns it needs are packed.  The chain of such u is walked
        down first, so the recursion depth does not grow with the degree.
        """
        chain = []
        while (v := self._term_vecs.get(t)) is None:
            if t in self.index:
                v = self._unit(self.index[t])
                break
            if t in self._lt_map:
                v = self._term_vecs[t] = self._case2_column(t)
                break
            # every basis term of NF(u) sits strictly below u in DRL, so the
            # columns NF(b_k x_l) lie below t
            for l in range(self.n):
                if t[l] and (u := t[:l] + (t[l] - 1,) + t[l + 1 :]) not in self.index:
                    break
            else:
                raise InternalError(f"no reducible divisor for border term {t}")
            chain.append((t, l))
            t = u
        for t, l in reversed(chain):
            store = self._store(l)
            for k in compress(range(self.D), v):
                if store.rows[k] is None and not store.cols[k]:
                    self._dense_column(l, k)
            v = self._term_vecs[t] = store.times(v)
        return v

    def _store(self, l: int) -> ColumnStore:
        """T_l's column store, 0-based l, made on first use."""
        if self._stores[l] is None:
            xl = var_term(self.n, l + 1)
            self._stores[l] = ColumnStore([self.index.get(term_mul(b, xl)) for b in self.basis], self.F.p)
        return self._stores[l]

    def _dense_column(self, l: int, k: int) -> CoordVector:
        """NF(b_k x_l), a dense column of T_l, packed into its store once."""
        v = self.term_vec(term_mul(self.basis[k], var_term(self.n, l + 1)))
        if not (store := self._stores[l]).cols[k]:
            store.cols[k] = int.from_bytes(store.pack(*v), "little")
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
        store, xj = self._store(j - 1), var_term(self.n, j)
        dense = [self._dense_column(j - 1, k) for k, row in enumerate(store.rows) if row is None]
        cases = [
            1 if row is not None else 2 if term_mul(eps, xj) in self._lt_map else 3
            for eps, row in zip(self.basis, store.rows)
        ]
        return SparseMat(store, dense, cases)

    # --- vectors of polynomials -------------------------------------------

    def nf_vector(self, f: MultiPoly) -> CoordVector:
        """Coordinate vector of NF(f)."""
        coeffs = list(f.coeffs.values())
        rows = zip(*map(self.term_vec, f.coeffs)) if coeffs else [()] * self.D
        return [sum(map(mul, row, coeffs)) % self.F.p for row in rows]


def dump_matrix(Q: QuotientStructure, j: int) -> str:
    """`D n j nnz` header, then `row col value` per nonzero, ascending (col, row)."""
    T = Q.matrix(j)
    lines = [
        f"{row} {col} {a}"
        for col, entries in enumerate(T.column_entries())
        for row, a in entries
    ]
    return "\n".join([f"{T.dim} {Q.n} {j} {len(lines)}", *lines]) + "\n"
