"""Quotient-ring structure for a zero-dimensional ideal given by its reduced
DRL basis, as `buchberger` returns it.

Builds the canonical basis B (staircase monomials, ascending DRL), the sparse
multiplication matrices T_1..T_n, and the coordinate-vector utilities the
change-of-ordering algorithms run on.  A case-2 column reads a basis
element's other terms as coordinates in B, so a basis that is not reduced
(a leading term divisible by another, or another term outside B) is
rejected with ValueError; `buchberger` reduces it.

Column construction distinguishes three cases for the product term eps_i*x_j:
(1) it lies in B (unit column), (2) it is a leading term of the input basis
(read the column off that polynomial), (3) it is a border term and must be
reduced.  `term_vec` computes every such normal form, of a column's term or
any other: case (3) writes t = x_l * u with u outside B and sums the columns
NF(b_k x_l) of T_l weighted by NF(u), one packed product over the columns
it needs (a cascade), never reducing a polynomial or building a matrix;
tests check its vectors against direct reduction.  Each matrix is held
packed twice, one int per column and one int per row of its case-2/3
columns, so a product with it or with its transpose is one big-int
multiply-add per vector entry, not one per stored entry.  Both products
take vectors already reduced into [0, p).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import compress, product as iter_product, repeat
from operator import itemgetter, mul

from .field import PrimeField, field_codec
from .poly import GroebnerBasis, InternalError, MultiPoly
from .terms import Term, divides, drl_key, term_mul, unit_term, var_term

CoordVector = list[int]


class SparseMat:
    """D x D matrix over GF(p) in two packed layouts, both in the fields of
    `field_codec` for the bound D*(p-1)^2: a sum of columns (or rows) scaled
    by entries in [0, p) holds each dot product in its own field, uncarried.

    `columns` holds one int per column c with T[r][c] in field r (a unit,
    case-1, column is a single 1 in its row's field) for `apply`;
    `column_fields` splits the `column_nbytes` bytes of a sum of them.
    `packed` holds one int per row r with T[r][c] of every case-2/3 (dense)
    column c, the k-th dense column in field k, for `apply_transpose`;
    `fields` splits the `nbytes` bytes of a sum of them, and `gather` picks
    the entry of v for each unit column and the field of each dense column
    out of v + [fields] in column order.
    """

    __slots__ = ("dim", "column_cases", "p", "columns", "column_nbytes", "column_fields",
                 "packed", "nbytes", "fields", "gather")

    def __init__(self, dim: int, columns: list[int | CoordVector], column_cases: list[int], p: int):
        """columns[c] is the row of a unit column's 1, else the whole column."""
        self.dim = dim
        self.column_cases = column_cases
        self.p = p
        bound = dim * (p - 1) ** 2
        width, pack_column, self.column_fields = field_codec(dim, bound)
        self.column_nbytes = dim * width
        dense = [col for col, case in zip(columns, column_cases) if case != 1]
        _, pack_row, self.fields = field_codec(len(dense), bound)
        self.nbytes = len(dense) * width
        self.columns = [
            1 << 8 * width * col if case == 1 else int.from_bytes(pack_column(*col), "little")
            for col, case in zip(columns, column_cases)
        ]
        at = iter(range(dim, dim + len(dense)))
        picks = [col if case == 1 else next(at) for col, case in zip(columns, column_cases)]
        # row r packs the r-th entry of every dense column
        self.packed = list(map(int.from_bytes, map(pack_row, *dense), repeat("little")))
        # itemgetter of one index returns the item itself, not a 1-tuple
        self.gather = itemgetter(*picks) if dim > 1 else lambda v, k=picks[0]: (v[k],)

    def column_entries(self) -> Iterator[list[tuple[int, int]]]:
        """Each column's nonzero entries as (row, value) pairs by ascending
        row, one column at a time; a unit column is read off its one bit."""
        nbytes, unpack = self.column_nbytes, self.column_fields
        bits = 8 * nbytes // self.dim
        for c, case in zip(self.columns, self.column_cases):
            if case == 1:
                yield [((c.bit_length() - 1) // bits, 1)]
            else:
                yield [(row, a) for row, a in enumerate(unpack(c.to_bytes(nbytes, "little"))) if a]


def apply(T: SparseMat, v: CoordVector) -> CoordVector:
    if len(v) != T.dim:
        raise ValueError("vector length does not match matrix dimension")
    fields = T.column_fields(sum(map(mul, T.columns, v)).to_bytes(T.column_nbytes, "little"))
    return list(map(T.p.__rmod__, fields))


def apply_transpose(T: SparseMat, v: CoordVector) -> CoordVector:
    if len(v) != T.dim:
        raise ValueError("vector length does not match matrix dimension")
    fields = T.fields(sum(map(mul, T.packed, v)).to_bytes(T.nbytes, "little"))
    return list(T.gather(v + list(map(T.p.__rmod__, fields))))


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
        self.G1 = G1
        self.F = F
        self.n = G1.n
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
        # T_l's columns in SparseMat's column layout, packed as term_vec needs
        # them; 0 stands for a column not yet packed
        self._width, self._pack, self._unpack = field_codec(self.D, self.D * (F.p - 1) ** 2)
        self._columns = [[0] * self.D for _ in range(self.n)]

    def _unit(self, i: int) -> CoordVector:
        v = [0] * self.D
        v[i] = 1
        return v

    def e(self) -> CoordVector:
        """Coordinate vector of 1."""
        return self._unit(0)

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

    def _packed_column(self, t: Term) -> int:
        """NF(x^t) in SparseMat's column layout; t is a column's term b_k x_l."""
        row = self.index.get(t)
        if row is not None:
            return 1 << 8 * self._width * row
        return int.from_bytes(self._pack(*self.term_vec(t)), "little")

    def term_vec(self, t: Term) -> CoordVector:
        """Coordinate vector of NF(x^t), the one routine that computes it.

        A term of B gives a unit vector and a leading term its case-2
        column.  Any other t is x_l * u with u outside B (case 3), so
        NF(t) = sum_k NF(u)_k NF(b_k x_l): one packed product over the
        columns of T_l, each packed on first use.  The chain of such u is
        walked down first, so the recursion depth does not grow with the
        degree of t.
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
        p, nbytes = self.F.p, self.D * self._width
        for t, l in reversed(chain):
            cols, xl = self._columns[l], var_term(self.n, l + 1)
            for k in compress(range(self.D), v):
                if not cols[k]:
                    cols[k] = self._packed_column(term_mul(self.basis[k], xl))
            total = sum(map(mul, cols, v)).to_bytes(nbytes, "little")
            v = list(map(p.__rmod__, self._unpack(total)))
            self._term_vecs[t] = v
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
        xj = var_term(self.n, j)
        columns = []
        cases = []
        for eps in self.basis:
            t = term_mul(eps, xj)
            row = self.index.get(t)
            if row is not None:
                columns.append(row)
                cases.append(1)
            else:
                columns.append(self.term_vec(t))
                cases.append(2 if t in self._lt_map else 3)
        return SparseMat(self.D, columns, cases, self.F.p)

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
