"""Change of ordering for ideals in shape position.

Three entry points:

* shape_prob  — probabilistic Wiedemann: one random probe, one
  Berlekamp-Massey run, which also yields the inverse N_s^-1, and n-1
  Hankel solves on that fit.  Fails (recoverably) when the probe sees only
  a proper factor of the minimal polynomial.
* shape_det   — deterministic variant: unit probes peel the minimal
  polynomial factor by factor, each at a coordinate that the unpeeled part
  of e shows, so that each peels a factor of positive degree; failure
  certifies the ideal is not in shape position.  Always returns a basis of
  the radical, plus a flag telling whether that is the ideal itself.
* incremental_univariate — grows the probe sequence lazily into one
  online Berlekamp-Massey state and stops as soon as its fit stabilizes;
  cheap early estimate of f_1, O(D^2) beside its matrix products.

shape_prob and incremental_univariate read the probe they are given, a
draw of `Q.probes(seed)` or any vector, through `Q.probe`.

All of them touch T_1 only, apart from the single columns NF(x_i).
Every Krylov chain is one generator (`_chain`) that multiplies no zero vector;
shape_prob and shape_det read it through `_krylov`, which keeps only the
current chain vector and reads each right-hand side <(T1^t)^j r, NF(x_i)>
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
from .poly import Fail, GroebnerBasis, InternalError, MultiPoly
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

    def to_groebner(self, F: PrimeField) -> GroebnerBasis:
        """The LEX basis, each member written as one coefficient dict."""
        n, p = self.n, F.p
        polys = [MultiPoly.from_uni(n, self.f1)]
        for i, t in enumerate(self.tails, start=2):
            coeffs = {var_term(n, i): 1}
            coeffs.update(((k,) + (0,) * (n - 1), -c % p) for k, c in enumerate(t))
            polys.append(MultiPoly(n, coeffs))
        return GroebnerBasis(polys, "lex")

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
    """g(T)·v by Horner, or g(T^t)·v when step is apply_transpose, in at
    most deg g products: a zero accumulator is not multiplied.  g is nonzero:
    every caller passes a Berlekamp-Massey fit or a product of fits."""
    p = F.p
    out = [g[-1] * x % p for x in v]
    for c in reversed(g[:-1]):
        if any(out):
            out = step(T, out)
        if c:
            out = [(o + c * x) % p for o, x in zip(out, v)]
    return out


def _chain(T1, w: CoordVector):
    """The Krylov chain w, T1^t w, (T1^t)^2 w, ..., each made when asked
    for; a zero vector is yielded again, not multiplied.  `apply_transpose`
    is looked up in this module's globals at each step (a tracer wraps it)."""
    while True:
        yield w
        if any(w):
            w = apply_transpose(T1, w)


def _krylov(T1, r: CoordVector, length: int, nfs: list[CoordVector], F: PrimeField) -> KrylovRun:
    """A row <(T1^t)^j r, NF(x_i)> for j < deg f per vector in nfs, and the
    Berlekamp-Massey fit (f, N_s^-1 mod f) of the first components s of r,
    T1^t r, ... (`length` of them), read in chain order off `_chain(T1, r)`.
    Only the current chain vector is kept; a unit NF(x_i) is read as one
    component.  The rows are the right-hand sides of the Hankel solves on
    that fit: s has linear complexity deg f, so it is also the fit of
    s[:2 deg f], the prefix that defines H.  x1^j lies in B for j <= J, so
    s[i + j] is the i-th chain vector's entry at x1^j: the chain stops
    J' = min(J, length // 2) vectors early and its last vector ends s."""
    reads = []
    for v_i in nfs:
        nz = [k for k, c in enumerate(v_i) if c]
        unit = len(nz) == 1 and v_i[nz[0]] == 1
        reads.append(itemgetter(nz[0]) if unit else partial(F.dot, v_i))
    powers = [0]  # the indices of 1, x1, ..., x1^J' in B
    while len(powers) <= length // 2 and (k := T1.rows[powers[-1]]) is not None:
        powers.append(k)
    s: list[int] = []
    rows: list[list[int]] = [[] for _ in nfs]
    for j, w in zip(range(length + 1 - len(powers)), _chain(T1, r)):
        s.append(w[0])
        if j < length // 2:
            for row, read in zip(rows, reads):
                row.append(read(w))
    s += [w[k] for k in powers[1:]]
    fit = berlekamp_massey(s, F)
    return [row[: deg(fit[0])] for row in rows], fit


def shape_prob(Q: QuotientStructure, probe: CoordVector) -> ShapeBasis | Fail:
    F, D = Q.F, Q.D
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
    """Peel the minimal polynomial f1 of e under T_1 factor by factor.  With
    f the product of the factors so far and b = f(T_1) e, each round probes
    e_k at the first k with b[k] != 0, read as the chain of f(T_1^t) e_k:
    its sequence <e_k, T_1^i b> starts with b[k], so its fit g has positive
    degree, and b becomes g(T_1) b.  So at most D probes run.

    start, a declined shape_prob probe's (rhs rows, fit) on e, is taken as
    the first factor in place of one from unit probe e_0.  The factors then
    differ, but their product is f1 all the same, and the answer (the
    radical basis, from the squarefree part of f1 and the CRT of the tails,
    and whether that is the basis of I) is unique.
    """
    F, D = Q.F, Q.D
    T1 = Q.matrix(1)
    nfs = [Q.nf_of_var(i) for i in range(2, Q.n + 1)]

    f = [1]
    b = Q.e()
    runs: list[KrylovRun] = []  # one per factor of positive degree
    while any(b):
        if start is None:
            d = deg(f)
            if d >= D:
                raise InternalError("peeled degree reached D with b nonzero")
            u = [0] * D
            u[next(k for k, c in enumerate(b) if c)] = 1
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

    # each factor's tails are solved on its own fit, its piece of the squarefree
    # part keeps their residues, and CRT glues the coprime pieces together
    fbar1 = squarefree_part(f, F)
    moduli: list[UniPoly] = []
    residues: list[list[UniPoly]] = []  # one list of tail residues per piece
    remaining = fbar1
    for rows, fit in runs:
        tails = [hankel_solve(fit, row, F) for row in rows]
        piece = uni_gcd(fit[0], remaining, F)
        if deg(piece) > 0:
            moduli.append(piece)
            residues.append([uni_mod(t, piece, F) for t in tails])
            remaining = uni_divmod(remaining, piece, F)[0]
    if deg(remaining) != 0:
        raise InternalError("squarefree part not covered by the peeled factors")
    return ShapeBasis(fbar1, [uni_crt(list(r), moduli, F) for r in zip(*residues)]), fbar1 == f


def incremental_univariate(Q: QuotientStructure, probe: CoordVector) -> UniPoly:
    """Minimal polynomial estimate from one probe: the first components of
    its `_chain`, in chain order, feed one online Berlekamp-Massey state, and
    its f is returned once it is the same after two consecutive pairs of
    terms (or 2D terms), with no prefix refitted and no product past them."""
    state = BMState(Q.F)
    prev = None
    for j, v in zip(range(2 * Q.D), _chain(Q.matrix(1), Q.probe(probe))):
        state.push(v[0])
        if j % 2:
            if state.f == prev:
                break
            prev = state.f[:]
    return state.f[:]
