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
* incremental_univariate — grows the probe sequence lazily and stops as
  soon as Berlekamp-Massey stabilizes; cheap early estimate of f_1.

All of them touch T_1 only, apart from the single columns NF(x_i).
shape_prob and shape_det share one Krylov loop (`_krylov`), one tail loop
(`_tail_solves`: every solve on a sequence reuses its Krylov fit, so each
sequence gets one Berlekamp-Massey run and no extended Euclid) and one
Horner evaluation of g(T_1) (`matrix_poly_apply`).  The matrix products, the
Berlekamp-Massey fits and the Hankel solves are looked up in this module's
globals at call time, so the benchmark's tracer can wrap them here.
"""

from __future__ import annotations

import random

from .field import PrimeField
from .linrec import HankelSystem, berlekamp_massey, hankel_solve
from .poly import Fail, GroebnerBasis, InternalError, MultiPoly, mp_sub
from .quotient import CoordVector, QuotientStructure, apply, apply_transpose
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
            xi = MultiPoly(n, {tuple(1 if k == i - 1 else 0 for k in range(n)): 1})
            out.append(mp_sub(xi, MultiPoly.from_uni(n, t), F))
        return out

    def to_groebner(self, F: PrimeField) -> GroebnerBasis:
        return GroebnerBasis(self.to_polys(F), "lex", reduced=True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ShapeBasis)
            and other.f1 == self.f1
            and other.tails == self.tails
        )

    def __repr__(self) -> str:
        return f"ShapeBasis(f1={self.f1}, tails={self.tails})"


class WiedemannTrace:
    """What the deterministic loop saw, for reporting and tests."""

    def __init__(self):
        self.factors: list[tuple[UniPoly, list[UniPoly]]] = []
        self.probe_vectors: list[CoordVector] = []
        self.sequences: list[list[int]] = []
        self.b_vectors: list[CoordVector] = []


def matrix_poly_apply(g: UniPoly, step, T, v: CoordVector, F: PrimeField) -> CoordVector:
    """g(T)·v by Horner, or g(T^t)·v when step is apply_transpose."""
    p = F.p
    out = [0] * len(v)
    for c in reversed(g):
        out = step(T, out)
        if c:
            for k, vk in enumerate(v):
                if vk:
                    out[k] = (out[k] + c * vk) % p
    return out


def _krylov(
    T1, v: CoordVector, length: int, F: PrimeField
) -> tuple[list[CoordVector], list[int], tuple[UniPoly, UniPoly]]:
    """Chain v, T1^t v, ..., of `length` vectors, its first components s, and
    the Berlekamp-Massey fit (f, N_s^-1 mod f) of s."""
    chain = [list(v)]
    for _ in range(length - 1):
        chain.append(apply_transpose(T1, chain[-1]))
    s = [w[0] for w in chain]
    return chain, s, berlekamp_massey(s, F)


def _tail_rhs(chain: list[CoordVector], v_i: CoordVector, count: int, F: PrimeField) -> list[int]:
    # <(T1^t)^j r, NF(x_i)>: component extraction when NF(x_i) is a unit vector
    nz = [(k, c) for k, c in enumerate(v_i) if c]
    if len(nz) == 1 and nz[0][1] == 1:
        k = nz[0][0]
        return [chain[j][k] for j in range(count)]
    return [F.dot(chain[j], v_i) for j in range(count)]


def _tail_solves(
    d: int, s: list[int], rhs_rows: list[list[int]], F: PrimeField, fit: tuple[UniPoly, UniPoly]
) -> list[UniPoly]:
    """One Hankel solve per right-hand side on the sequence s, all on the
    Krylov fit of s: s has linear complexity d, so that fit is also the fit
    of s[:2d], the prefix that defines H."""
    tails = []
    H = None
    for b in rhs_rows:
        H = HankelSystem(d, s, b, fit) if H is None else H.with_rhs(b)
        tails.append(hankel_solve(H, F))
    return tails


def shape_prob(
    Q: QuotientStructure, seed, probe: CoordVector | None = None
) -> ShapeBasis | Fail:
    F = Q.F
    D = Q.D
    T1 = Q.matrix(1)
    if probe is None:
        rng = random.Random(seed)
        probe = [rng.randrange(F.p) for _ in range(D)]
    chain, s, fit = _krylov(T1, probe, 2 * D, F)
    d = deg(fit[0])
    if d < D:
        return Fail(f"minimal polynomial degree {d} < ideal degree {D}")
    rhs_rows = [_tail_rhs(chain, Q.nf_of_var(i), D, F) for i in range(2, Q.n + 1)]
    return ShapeBasis(fit[0], _tail_solves(D, s, rhs_rows, F, fit))


def shape_det(
    Q: QuotientStructure, trace_out: WiedemannTrace | None = None
) -> tuple[ShapeBasis, bool] | Fail:
    F = Q.F
    D = Q.D
    T1 = Q.matrix(1)
    trace = trace_out if trace_out is not None else WiedemannTrace()

    f = [1]
    b = Q.e()
    # (fit of the factor's sequence, rhs rows per tail var)
    components: list[tuple[tuple[UniPoly, UniPoly], list[list[int]]]] = []
    k = 0
    while any(b):
        if k >= D:
            raise InternalError("probe loop exceeded D iterations")
        d = deg(f)
        if d >= D:
            raise InternalError("peeled degree reached D with probes left")
        u = [0] * D
        u[k] = 1
        # view the current b through probe u: same sequence as <u_adj, T1^i e>
        w = matrix_poly_apply(f, apply_transpose, T1, u, F)
        chain, s, fit = _krylov(T1, w, 2 * (D - d), F)
        g = fit[0]
        dk = deg(g)
        if dk > 0:
            rhs_rows = [
                _tail_rhs(chain, Q.nf_of_var(i), dk, F) for i in range(2, Q.n + 1)
            ]
            components.append((fit, rhs_rows))
            f = uni_mul(f, g, F)
            trace.factors.append((g, []))
            trace.probe_vectors.append(u)
            trace.sequences.append(s)
        b = matrix_poly_apply(g, apply, T1, b, F)
        trace.b_vectors.append(list(b))
        k += 1

    if deg(f) != D:
        return Fail(
            f"deterministic univariate degree {deg(f)} < D = {D}: "
            "ideal is not in shape position"
        )
    f1 = f

    # per-factor tails from the recorded sequences (Hankel of each factor)
    for idx, (fit, rhs_rows) in enumerate(components):
        g = fit[0]
        trace.factors[idx] = (g, _tail_solves(deg(g), trace.sequences[idx], rhs_rows, F, fit))

    fbar1 = squarefree_part(f1, F)
    is_radical = fbar1 == f1

    # peel the squarefree part across the recorded factors; the pieces are
    # pairwise coprime, so CRT glues the tails back together
    moduli: list[UniPoly] = []
    residues_per_var: list[list[UniPoly]] = [[] for _ in range(Q.n - 1)]
    remaining = fbar1
    for g, tails in trace.factors:
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


def incremental_univariate(Q: QuotientStructure, seed) -> UniPoly:
    """Minimal polynomial estimate, returned once two consecutive fits agree."""
    F = Q.F
    D = Q.D
    T1 = Q.matrix(1)
    rng = random.Random(seed)
    r = [rng.randrange(F.p) for _ in range(D)]
    s: list[int] = []
    cur = r
    history: list[UniPoly] = []
    while len(s) < 2 * D:
        for _ in range(2):
            s.append(cur[0])
            if len(s) >= 2 * D:
                break
            cur = apply_transpose(T1, cur)
        m = berlekamp_massey(s, F)[0]
        history.append(m)
        if len(history) >= 2 and history[-2] == m:
            return m
    return history[-1]
