"""Change of ordering for ideals in shape position.

Three entry points:

* shape_prob  — probabilistic Wiedemann: one random probe, one
  Berlekamp-Massey run, which also yields the inverse N_s^-1, and n-1
  Hankel solves on that fit.  Fails (recoverably) when the probe sees only
  a proper factor of the minimal polynomial.
* shape_det   — deterministic variant: unit probes peel the minimal
  polynomial factor by factor; failure certifies the ideal is not in shape
  position.  Always returns a basis of the radical, plus a flag telling
  whether that is the ideal itself.
* incremental_univariate — grows the probe sequence lazily into one
  online Berlekamp-Massey state and stops as soon as its fit stabilizes;
  cheap early estimate of f_1, O(D^2) beside its matrix products.

shape_prob and incremental_univariate read the probe they are given, a
draw of `Q.probes(seed)` or any vector, through `Q.probe`.

All of them touch T_1 only, apart from the single columns NF(x_i).
shape_prob and shape_det share one Krylov loop (`_krylov`), which keeps only
the current chain vector and reads each right-hand side <(T1^t)^j r, NF(x_i)>
off it as it goes, so a run holds O(nD) residues, not the chain, and hands
back only the Berlekamp-Massey fit of its sequence and those rows cut to
its degree; one tail step (every Hankel solve takes that fit, so each
sequence gets one Berlekamp-Massey run and no extended Euclid) and one
Horner evaluation of g(T_1) (`matrix_poly_apply`).  The matrix products, the
Berlekamp-Massey fits and the Hankel solves are looked up in this module's
globals at call time, so the benchmark's tracer can wrap them here.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter

from .field import PrimeField
from .linrec import BMState, berlekamp_massey, hankel_solve
from .poly import Fail, GroebnerBasis, InternalError, MultiPoly, mp_sub
from .quotient import CoordVector, QuotientStructure, apply, apply_transpose
from .terms import var_term
from .unipoly import (
    UniPoly,
    deg,
    squarefree_part,
    trim,
    uni_crt,
    uni_gcd,
    uni_divmod,
    uni_mod,
    uni_mul,
)


# one row of <(T1^t)^j r, NF(x_i)>, j < deg f, per tail variable for a probe
# r, and the Berlekamp-Massey fit (f, N_s^-1 mod f) of the first components
# of r's Krylov chain
KrylovRun = tuple[list[list[int]], tuple[UniPoly, UniPoly]]


class ShapeBasis:
    """[f1, x2 - f2, ..., xn - fn] with deg(fi) < deg(f1)."""

    __slots__ = ("f1", "tails")

    def __init__(self, f1: UniPoly, tails: list[UniPoly]):
        self.f1 = trim(list(f1))
        self.tails = [trim(list(t)) for t in tails]
        if any(deg(t) >= deg(self.f1) for t in self.tails):
            raise InternalError("shape tail degree not below deg(f1)")

    @property
    def n(self) -> int:
        return len(self.tails) + 1

    def to_polys(self, F: PrimeField) -> list[MultiPoly]:
        n = self.n
        out = [MultiPoly.from_uni(n, self.f1)]
        for i, t in enumerate(self.tails, start=2):
            xi = MultiPoly(n, {var_term(n, i): 1})
            out.append(mp_sub(xi, MultiPoly.from_uni(n, t), F))
        return out

    def to_groebner(self, F: PrimeField) -> GroebnerBasis:
        return GroebnerBasis(self.to_polys(F), "lex")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ShapeBasis)
            and other.f1 == self.f1
            and other.tails == self.tails
        )

    def __repr__(self) -> str:
        return f"ShapeBasis(f1={self.f1}, tails={self.tails})"


class ProbeFail(Fail):
    """shape_prob's decline.  `krylov` is its probe's (rhs rows, fit),
    which shape_det can take as its first factor."""

    def __init__(self, reason: str, krylov: KrylovRun):
        super().__init__(reason)
        self.krylov = krylov


def matrix_poly_apply(g: UniPoly, step, T, v: CoordVector, F: PrimeField) -> CoordVector:
    """g(T)·v by Horner, or g(T^t)·v when step is apply_transpose."""
    p = F.p
    out = [0] * len(v)
    for c in reversed(g):
        out = step(T, out)
        if c:
            out = [(o + c * x) % p for o, x in zip(out, v)]
    return out


def _krylov(T1, r: CoordVector, length: int, nfs: list[CoordVector], F: PrimeField) -> KrylovRun:
    """A row <(T1^t)^j r, NF(x_i)> for j < deg f per vector in nfs, and the
    Berlekamp-Massey fit (f, N_s^-1 mod f) of the first components s of r,
    T1^t r, ... (`length` of them).  Only the current chain vector is kept;
    a unit NF(x_i) is read as one component.  The rows are the right-hand
    sides of the Hankel solves on that fit: s has linear complexity deg f,
    so it is also the fit of s[:2 deg f], the prefix that defines H."""
    reads = []
    for v_i in nfs:
        nz = [k for k, c in enumerate(v_i) if c]
        unit = len(nz) == 1 and v_i[nz[0]] == 1
        reads.append(itemgetter(nz[0]) if unit else partial(F.dot, v_i))
    s: list[int] = []
    rows: list[list[int]] = [[] for _ in nfs]
    w = r
    for j in range(length):
        if j:
            w = apply_transpose(T1, w)
        s.append(w[0])
        if j < length // 2:
            for row, read in zip(rows, reads):
                row.append(read(w))
    fit = berlekamp_massey(s, F)
    return [row[: deg(fit[0])] for row in rows], fit


def shape_prob(Q: QuotientStructure, probe: CoordVector) -> ShapeBasis | Fail:
    F = Q.F
    D = Q.D
    T1 = Q.matrix(1)
    nfs = [Q.nf_of_var(i) for i in range(2, Q.n + 1)]
    run = _krylov(T1, Q.probe(probe), 2 * D, nfs, F)
    rhs_rows, fit = run
    d = deg(fit[0])
    if d < D:
        return ProbeFail(f"minimal polynomial degree {d} < ideal degree {D}", run)
    return ShapeBasis(fit[0], [hankel_solve(fit, row, F) for row in rhs_rows])


def shape_det(
    Q: QuotientStructure, start: KrylovRun | None = None
) -> tuple[ShapeBasis, bool] | Fail:
    """Peel the minimal polynomial f1 of e under T_1 factor by factor, unit
    probe k viewing b = f(T_1) e for the product f of the factors so far.

    start, a declined shape_prob probe's (rhs rows, fit) on e, is taken as
    the first factor in place of one from unit probe e_0.  The factors then
    differ, but their product is f1 all the same, and the answer (the
    radical basis, from the squarefree part of f1 and the CRT of the tails,
    and whether that is the basis of I) is unique.
    """
    F = Q.F
    D = Q.D
    T1 = Q.matrix(1)
    nfs = [Q.nf_of_var(i) for i in range(2, Q.n + 1)]

    f = [1]
    b = Q.e()
    runs: list[KrylovRun] = []  # one per factor of positive degree
    k = 0
    while any(b):
        if start is None:
            if k >= D:
                raise InternalError("probe loop exceeded D iterations")
            d = deg(f)
            if d >= D:
                raise InternalError("peeled degree reached D with probes left")
            u = [0] * D
            u[k] = 1
            k += 1
            # view the current b through probe u: same sequence as <u_adj, T1^i e>
            w = matrix_poly_apply(f, apply_transpose, T1, u, F)
            run = _krylov(T1, w, 2 * (D - d), nfs, F)
        else:
            run, start = start, None
        g = run[1][0]
        if deg(g) > 0:
            runs.append(run)
            f = uni_mul(f, g, F)
        b = matrix_poly_apply(g, apply, T1, b, F)

    if deg(f) != D:
        return Fail(
            f"deterministic univariate degree {deg(f)} < D = {D}: "
            "ideal is not in shape position"
        )

    # per-factor tails, each factor's solves on its own Krylov fit
    factors = [(fit[0], [hankel_solve(fit, row, F) for row in rows]) for rows, fit in runs]

    fbar1 = squarefree_part(f, F)
    is_radical = fbar1 == f

    # peel the squarefree part across the recorded factors; the pieces are
    # pairwise coprime, so CRT glues the tails back together
    moduli: list[UniPoly] = []
    residues_per_var: list[list[UniPoly]] = [[] for _ in range(Q.n - 1)]
    remaining = fbar1
    for g, tails in factors:
        if deg(remaining) == 0:
            break
        piece = uni_gcd(g, remaining, F)
        if deg(piece) == 0:
            continue
        moduli.append(piece)
        for i, t in enumerate(tails):
            residues_per_var[i].append(uni_mod(t, piece, F))
        remaining = uni_divmod(remaining, piece, F)[0]
    if deg(remaining) != 0:
        raise InternalError("squarefree part not covered by the peeled factors")

    final_tails = [
        uni_crt(residues_per_var[i], moduli, F) for i in range(Q.n - 1)
    ]
    return ShapeBasis(fbar1, final_tails), is_radical


def incremental_univariate(Q: QuotientStructure, probe: CoordVector) -> UniPoly:
    """Minimal polynomial estimate from one probe: the Krylov terms feed one
    online Berlekamp-Massey state, and its f is returned once it is the
    same after two consecutive pairs of terms (or after 2D terms).  No
    prefix is refitted and no product is made past the last term."""
    T1 = Q.matrix(1)
    v = Q.probe(probe)
    state = BMState(Q.F)
    prev = None
    for j in range(2 * Q.D):
        if j:
            v = apply_transpose(T1, v)
        state.push(v[0])
        if j % 2:
            if state.f == prev:
                break
            prev = state.f[:]
    return state.f[:]
