"""Berlekamp-Massey-Sakata change of ordering (the general, non-shape case).

The n-dimensional array E(u) = <r, T^u e> is consumed term by term in
ascending target-LEX order.  Each pass tests the current candidate set F for
validity at the new term, repairs failures using recorded witness
polynomials, and re-reduces F.  The driver stops as soon as the candidates
verify as the Groebner basis of the ideal (checked against the quotient
structure, so a wrong answer is impossible), or gives up and returns Fail:
at the end of the 2nD pass budget, or as soon as the delta set holds more
than D terms, after which no candidate set can verify.

Restricted to one variable the update degenerates to Berlekamp-Massey.
"""

from __future__ import annotations

from itertools import product as iter_product

from .field import PrimeField
from .poly import (
    Fail,
    GroebnerBasis,
    InternalError,
    MultiPoly,
    mp_monic,
    mp_mul_term,
    mp_sub,
    normal_form,
)
from .quotient import CoordVector, QuotientStructure, staircase
from .terms import Term, divides, lex_key

# witness record: (polynomial, span, fail term, discrepancy)
WitnessRec = tuple[MultiPoly, Term, Term, int]


class ArrayE:
    """Values of u -> <r, T1^u1 ... Tn^un e>, filled on demand.

    Coordinate vectors are cached on the quotient structure (shared with
    nf_vector), so each new term costs one sparse matrix application.
    """

    __slots__ = ("probe", "values")

    def __init__(self, probe: CoordVector):
        self.probe = probe
        self.values: dict[Term, int] = {}


def eval_E(A: ArrayE, Q: QuotientStructure, u: Term) -> int:
    hit = A.values.get(u)
    if hit is None:
        hit = Q.F.dot(A.probe, Q.term_vec(u))
        A.values[u] = hit
    return hit


class BMSState:
    __slots__ = ("F", "G", "delta", "u", "failed")

    def __init__(
        self,
        F: list[MultiPoly],
        G: list[WitnessRec],
        delta: set[Term],
        u: Term | None,
        failed: bool = False,
    ):
        self.F = F
        self.G = G
        self.delta = delta
        self.u = u
        self.failed = failed  # did the last pass see any discrepancy


def initial_state(n: int) -> BMSState:
    return BMSState([MultiPoly(n, {(0,) * n: 1})], [], set(), None)


def _downset(t: Term):
    return iter_product(*(range(a + 1) for a in t))


def _corners(delta: set[Term], n: int) -> list[Term]:
    """Minimal terms outside the (downward-closed) delta set."""
    if not delta:
        return [(0,) * n]
    bounds = [max(t[i] for t in delta) + 2 for i in range(n)]
    out = []
    for t in iter_product(*(range(b) for b in bounds)):
        if t in delta:
            continue
        if all(
            t[i] == 0 or t[: i] + (t[i] - 1,) + t[i + 1 :] in delta
            for i in range(n)
        ):
            out.append(t)
    out.sort(key=lex_key)
    return out


def _discrepancy(f: MultiPoly, m: Term, A: ArrayE, Q: QuotientStructure) -> int:
    p = Q.F.p
    acc = 0
    for c, coef in f.coeffs.items():
        acc += coef * eval_E(A, Q, tuple(a + b for a, b in zip(c, m)))
    return acc % p


def sakata_update(
    st: BMSState,
    next_u: Term,
    A: ArrayE,
    Q: QuotientStructure,
    grow_tail: Term | None = None,
) -> BMSState:
    """One pass: make the candidate set valid up to next_u.

    The sweep visits only a truncated slice of each x2..xn-level, so a
    nonzero discrepancy does not always reflect the array: a polynomial may
    fail here merely because the terms that would have fixed it were never
    visited.  Genuine delta growth at a level pairs each new term v with a
    new term next_u - v, which forces the tail of v to equal grow_tail
    (half the current level); any other out-of-delta span would inject a
    term into a level already verified, so it is discarded as truncation
    noise.  grow_tail=None (revisit levels) discards all growth.
    """
    F_ = Q.F
    n = Q.n
    u = next_u

    fails: list[tuple[MultiPoly, int]] = []
    for f in st.F:
        s = f.lt("lex")
        if divides(s, u):
            d = _discrepancy(f, tuple(a - b for a, b in zip(u, s)), A, Q)
            if not d:
                continue
            span = tuple(a - b for a, b in zip(u, s))
            if span not in st.delta and (grow_tail is None or span[1:] != grow_tail):
                continue
            fails.append((f, d))
    if not fails:
        return BMSState(st.F, st.G, st.delta, u, failed=False)

    new_delta = set(st.delta)
    for f, _ in fails:
        s = f.lt("lex")
        new_delta.update(_downset(tuple(a - b for a, b in zip(u, s))))

    fail_disc = {id(f): d for f, d in fails}
    new_F: list[MultiPoly] = []
    for s in _corners(new_delta, n):
        exact = [f for f in st.F if f.lt("lex") == s]
        if exact:
            f = exact[0]
        else:
            cands = [f for f in st.F if divides(f.lt("lex"), s)]
            unfailed = [f for f in cands if id(f) not in fail_disc]
            f = unfailed[0] if unfailed else cands[0]
        c = f.lt("lex")
        shift = tuple(a - b for a, b in zip(s, c))
        if id(f) not in fail_disc or not divides(s, u):
            # valid (or untestable) at u after the shift: no correction needed
            new_F.append(mp_mul_term(f, shift, 1, F_))
        else:
            need = tuple(a - b for a, b in zip(u, s))
            rec = next(
                (r for r in reversed(st.G) if divides(need, r[1])),
                None,
            )
            if rec is None:
                raise InternalError("no witness available for correction")
            g, span_g, _, d_g = rec
            corr_shift = tuple(a - b for a, b in zip(span_g, need))
            coef = fail_disc[id(f)] * F_.inv(d_g) % F_.p
            new_F.append(
                mp_sub(mp_mul_term(f, shift, 1, F_), mp_mul_term(g, corr_shift, coef, F_), F_)
            )

    new_G = list(st.G)
    for f, d in fails:
        span = tuple(a - b for a, b in zip(u, f.lt("lex")))
        if span not in st.delta:
            new_G.append((f, span, u, d))
    # keep only span-maximal witnesses; later records win ties
    pruned: list[WitnessRec] = []
    for i, rec in enumerate(new_G):
        dominated = any(
            j != i
            and divides(rec[1], other[1])
            and (other[1] != rec[1] or j > i)
            for j, other in enumerate(new_G)
        )
        if not dominated:
            pruned.append(rec)
    return BMSState(new_F, pruned, new_delta, u, failed=True)


def reduce_set(F: list[MultiPoly], field: PrimeField) -> list[MultiPoly]:
    """Reduce every f against the rest (target order), keeping list order."""
    out = list(F)
    for i in range(len(out)):
        fi = out[i]
        if fi.is_zero():
            continue
        ki = lex_key(fi.lt("lex"))
        reducers = []
        for j, fj in enumerate(out):
            if j == i or fj.is_zero():
                continue
            kj = lex_key(fj.lt("lex"))
            if kj < ki or (kj == ki and j < i):
                reducers.append(fj)
        r = normal_form(fi, reducers, "lex", field)
        out[i] = mp_monic(r, "lex", field) if not r.is_zero() else r
    return [f for f in out if not f.is_zero()]


def is_gb(F: list[MultiPoly], Q: QuotientStructure) -> bool:
    """True iff every member of F lies in the ideal and the staircase under
    lt(F) has exactly D standard monomials.

    The two halves jointly force <F> to equal the ideal: membership gives
    <F> contained in I, and matching vector-space dimensions rule out a
    proper containment.  An array can satisfy recurrences the ideal does
    not contain, so the size check alone would let a wrong basis through.
    """
    if not F or any(f.is_zero() for f in F):
        return False
    lts = [f.lt("lex") for f in F]
    B = staircase(lts, Q.n, Q.D)
    if B is None or len(B) != Q.D:
        return False
    return all(not any(Q.nf_vector(f)) for f in F)


def bms_change(
    Q: QuotientStructure,
    seed,
    probe: CoordVector | None = None,
    trace: list | None = None,
) -> GroebnerBasis | Fail:
    import random

    F_ = Q.F
    n = Q.n
    D = Q.D
    if probe is None:
        rng = random.Random(seed)
        probe = [rng.randrange(F_.p) for _ in range(D)]
    A = ArrayE(probe)
    st = initial_state(n)
    cap = 2 * n * D
    passes = 0

    def row_x1(j: Term) -> list[int]:
        return [t[0] for t in st.delta if t[1:] == j]

    def finish(ok: bool):
        if passes > cap:
            raise InternalError("pass budget exceeded (defect)")
        if ok:
            polys = sorted(st.F, key=lambda f: lex_key(f.lt("lex")))
            return GroebnerBasis(polys, "lex", reduced=True)
        return Fail(
            f"BMS sweep ended without a verified Groebner basis "
            f"({passes} passes, |delta| = {len(st.delta)}, D = {D})"
        )

    # Rows (fixed x2..xn exponents) are walked in ascending lex order with
    # per-row term budgets; the delta set can only grow on even rows, so odd
    # rows copy the width of the delta row they revisit while even rows probe
    # just far enough to pin the next delta row.  Overshooting a row budget
    # is not merely wasted work: terms past it can plant spurious delta
    # elements when the input basis is not exactly consistent.
    ridge = (0,) * (n - 1)
    while True:
        j = tuple(u // 2 for u in ridge)
        even = not any(u % 2 for u in ridge)
        if not any(ridge):
            justified = True
        elif even:
            prev = list(j)
            for a in range(n - 1):
                if prev[a] > 0:
                    prev[a] -= 1
                    break
            justified = bool(row_x1(tuple(prev))) and len(st.delta) < D
        else:
            justified = bool(row_x1(j))
        if justified:
            # a revisit level is walked over exactly the width of the level
            # it re-verifies; a discovery level runs Berlekamp-Massey style,
            # through twice the largest x1-exponent found so far plus a
            # clean confirming pass (the c_max + c_max criterion)
            width = len(row_x1(j))
            i = 0
            clean = False
            while True:
                if even:
                    cmax = max(row_x1(j), default=-1)
                    if i >= 2 * D or (clean and i >= 2 * cmax + 1):
                        break
                else:
                    if i >= width:
                        break
                if passes >= cap:
                    return finish(is_gb(st.F, Q))
                u = (i,) + ridge
                st = sakata_update(st, u, A, Q, grow_tail=j if even else None)
                if st.failed:
                    # a clean pass keeps the F the last pass already reduced,
                    # and reduce_set is idempotent on it
                    st.F = reduce_set(st.F, F_)
                passes += 1
                clean = not st.failed
                if trace is not None:
                    trace.append((u, list(st.F), set(st.delta)))
                if len(st.delta) > D:
                    # lt(F) are the corners of delta, so delta is the staircase
                    # of lt(F), and delta never shrinks: is_gb cannot pass
                    return Fail(
                        f"BMS sweep ended without a verified Groebner basis: "
                        f"|delta| = {len(st.delta)} exceeds D = {D} after {passes} passes"
                    )
                i += 1
        # advance; the +2 head-room admits one more discovery level, which
        # the justification test above vets against the current delta set
        nxt = list(ridge)
        k = 0
        while True:
            if k == n - 1:
                return finish(is_gb(st.F, Q))
            jmax = max((t[k + 1] for t in st.delta), default=-1)
            nxt[k] += 1
            if nxt[k] <= 2 * jmax + 2:
                break
            nxt[k] = 0
            k += 1
        ridge = tuple(nxt)
