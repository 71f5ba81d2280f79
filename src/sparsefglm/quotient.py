"""Quotient-ring structure for a zero-dimensional ideal given by a DRL basis.

Builds the canonical basis B (staircase monomials, ascending DRL), the sparse
multiplication matrices T_1..T_n, and the coordinate-vector utilities the
change-of-ordering algorithms run on.

Column construction distinguishes three cases for the product term eps_i*x_j:
(1) it lies in B (unit column), (2) it is a leading term of the input basis
(read the column off that polynomial), (3) it is a border term and must be
reduced.  Case (3) rewrites the product through previously computed columns
(a cascade), never reducing a polynomial; tests check every column against
direct reduction.
"""

from __future__ import annotations

from itertools import product as iter_product

from .field import PrimeField
from .poly import GroebnerBasis, InternalError, MultiPoly, reduce_basis
from .terms import Term, divides, drl_key, term_mul, unit_term, var_term

CoordVector = list[int]


class SparseMat:
    """Column-major sparse D x D matrix over a prime field."""

    __slots__ = ("dim", "columns", "dense_column_flags", "nnz", "column_cases", "p")

    def __init__(
        self,
        dim: int,
        columns: list[list[tuple[int, int]]],
        column_cases: list[int],
        p: int,
    ):
        self.dim = dim
        self.columns = columns
        self.column_cases = column_cases
        self.dense_column_flags = [c != 1 for c in column_cases]
        self.nnz = sum(len(col) for col in columns)
        self.p = p


def apply(T: SparseMat, v: CoordVector) -> CoordVector:
    if len(v) != T.dim:
        raise ValueError("vector length does not match matrix dimension")
    p = T.p
    out = [0] * T.dim
    for col, vc in enumerate(v):
        if vc:
            for row, a in T.columns[col]:
                out[row] = (out[row] + a * vc) % p
    return out


def apply_transpose(T: SparseMat, v: CoordVector) -> CoordVector:
    if len(v) != T.dim:
        raise ValueError("vector length does not match matrix dimension")
    p = T.p
    out = [0] * T.dim
    for col in range(T.dim):
        acc = 0
        for row, a in T.columns[col]:
            acc += a * v[row]
        out[col] = acc % p
    return out


def density_stats(T: SparseMat) -> dict:
    return {
        "nnz": T.nnz,
        "percent_nonzero": 100.0 * T.nnz / (T.dim * T.dim),
        "dense_column_count": sum(T.dense_column_flags),
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
        polys = G1.polys if G1.reduced else reduce_basis(G1.polys, "drl", F)
        self.G1 = GroebnerBasis(polys, "drl", reduced=True)
        self.F = F
        self.n = self.G1.n
        self._lt_map = {g.lt("drl"): g for g in polys}
        if unit_term(self.n) in self._lt_map:
            raise ValueError("ideal contains 1 (quotient has dimension 0)")
        basis = staircase(list(self._lt_map), self.n)
        if basis is None:
            raise ValueError("ideal not zero-dimensional")
        if not basis or basis[0] != unit_term(self.n):
            raise InternalError("staircase does not start at 1")
        self.basis = basis
        self.D = len(basis)
        self.index = {t: i for i, t in enumerate(basis)}
        self.matrices: list[SparseMat | None] = [None] * self.n
        # NF(x^t) coordinate vectors, filled by both the case-3 cascade and
        # term_vec; callers must not mutate them
        self._term_vecs: dict[Term, CoordVector] = {
            unit_term(self.n): self._unit(0)
        }

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

    def _nf_term_cascade(self, t: Term) -> CoordVector:
        hit = self._term_vecs.get(t)
        if hit is not None:
            return hit
        if t in self.index:
            v = self._unit(self.index[t])
        elif t in self._lt_map:
            v = self._case2_column(t)
        else:
            # Rewrite t = x_l * u with u outside B; every basis term of NF(u)
            # sits strictly below u in DRL, so the products recurse downward.
            for l in range(self.n):
                if t[l]:
                    u = t[:l] + (t[l] - 1,) + t[l + 1 :]
                    if u not in self.index:
                        break
            else:
                raise InternalError(f"no reducible divisor for border term {t}")
            p = self.F.p
            v = [0] * self.D
            for k, c in enumerate(self._nf_term_cascade(u)):
                if c:
                    w = self._nf_term_cascade(term_mul(self.basis[k], var_term(self.n, l + 1)))
                    for row, a in enumerate(w):
                        if a:
                            v[row] = (v[row] + c * a) % p
        self._term_vecs[t] = v
        return v

    def nf_of_var(self, i: int) -> CoordVector:
        """Coordinate vector of NF(x_i), 1-based i.  Never builds a matrix."""
        t = var_term(self.n, i)
        if t in self.index:
            return self._unit(self.index[t])
        # x_i outside B forces x_i itself to be a leading term
        return self._case2_column(t)

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
            if t in self.index:
                columns.append([(self.index[t], 1)])
                cases.append(1)
                continue
            cases.append(2 if t in self._lt_map else 3)
            v = self._nf_term_cascade(t)
            columns.append([(row, a) for row, a in enumerate(v) if a])
        return SparseMat(self.D, columns, cases, self.F.p)

    # --- vectors of polynomials -------------------------------------------

    def term_vec(self, t: Term) -> CoordVector:
        """Coordinate vector of NF(x^t), via cached matrix products."""
        hit = self._term_vecs.get(t)
        if hit is not None:
            return hit
        for l in range(self.n):
            if t[l]:
                break
        u = t[:l] + (t[l] - 1,) + t[l + 1 :]
        v = apply(self.matrix(l + 1), self.term_vec(u))
        self._term_vecs[t] = v
        return v

    def nf_vector(self, f: MultiPoly) -> CoordVector:
        p = self.F.p
        out = [0] * self.D
        for t, c in f.coeffs.items():
            for row, a in enumerate(self.term_vec(t)):
                if a:
                    out[row] = (out[row] + c * a) % p
        return out


def canonical_basis(G1: GroebnerBasis, F: PrimeField) -> QuotientStructure:
    return QuotientStructure(G1, F)


def dump_matrix(Q: QuotientStructure, j: int) -> str:
    """`D n j nnz` header, then `row col value` per nonzero, ascending (col, row)."""
    T = Q.matrix(j)
    lines = [f"{T.dim} {Q.n} {j} {T.nnz}"]
    for col in range(T.dim):
        for row, a in T.columns[col]:
            lines.append(f"{row} {col} {a}")
    return "\n".join(lines) + "\n"
