"""Berlekamp-Massey-Sakata change of ordering (the general, non-shape case).

The n-dimensional array E(u) = <r, T^u e> is consumed term by term in
ascending target-LEX order.  The sweep's state is (F, G, delta): the
candidate polynomials F, the witness records G, and the delta set, the
staircase of the array found so far.  Between passes the leading terms of
F are exactly the corners of delta, in ascending lex order.  Each pass
tests F for validity at the new term, repairs failures using the
witnesses, and re-reduces F.  The driver stops as soon as the candidates
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
from .terms import Term, divides, lex_key, term_mul

# witness record: (polynomial, span, discrepancy)
WitnessRec = tuple[MultiPoly, Term, int]


def _array(Q: QuotientStructure, probe: CoordVector):
    """The memoized u -> E(u) = <r, NF(x^u)>.

    Coordinate vectors come from `Q.term_vec`, cached on Q: a new term
    x_l * u whose u is cached costs one packed product over T_l's columns,
    and no matrix is built.
    """
    values: dict[Term, int] = {}

    def E(u: Term) -> int:
        if u not in values:
            values[u] = Q.F.dot(probe, Q.term_vec(u))
        return values[u]

    return E


def _sub(a: Term, b: Term) -> Term:
    return tuple(x - y for x, y in zip(a, b))


def _downset(t: Term):
    return iter_product(*(range(a + 1) for a in t))


def _corners(delta: set[Term], n: int) -> list[Term]:
    """Minimal terms outside the (downward-closed) delta set, in lex order.

    Each one is 1 or a successor x_i * t of some t in delta.
    """
    succ = {t[:i] + (t[i] + 1,) + t[i + 1 :] for t in delta for i in range(n)}
    out = [
        t
        for t in succ.union([(0,) * n]) - delta
        if all(t[i] == 0 or t[:i] + (t[i] - 1,) + t[i + 1 :] in delta for i in range(n))
    ]
    return sorted(out, key=lex_key)


def _discrepancy(f: MultiPoly, m: Term, E, p: int) -> int:
    return sum(coef * E(term_mul(c, m)) for c, coef in f.coeffs.items()) % p


def sakata_update(
    F: list[MultiPoly],
    G: list[WitnessRec],
    delta: set[Term],
    u: Term,
    E,
    field: PrimeField,
    grow_tail: Term | None = None,
) -> tuple[list[MultiPoly], list[WitnessRec], set[Term]] | None:
    """One pass: make the candidate set valid up to u.

    Returns None if no candidate fails at u (a clean pass), else the new
    state (F, G, delta), with F not yet reduced.

    The sweep visits only a truncated slice of each x2..xn-level, so a
    nonzero discrepancy does not always reflect the array: a polynomial may
    fail here merely because the terms that would have fixed it were never
    visited.  Genuine delta growth at a level pairs each new term v with a
    new term u - v, which forces the tail of v to equal grow_tail (half the
    current level); any other out-of-delta span would inject a term into a
    level already verified, so it is discarded as truncation noise.
    grow_tail=None (revisit levels) discards all growth.
    """
    # each failure, as the witness record it becomes if its span is new
    fails: list[WitnessRec] = []
    for f in F:
        s = f.lt("lex")
        if divides(s, u):
            span = _sub(u, s)
            d = _discrepancy(f, span, E, field.p)
            if d and (span in delta or (grow_tail is not None and span[1:] == grow_tail)):
                fails.append((f, span, d))
    if not fails:
        return None

    new_delta = set(delta)
    for _, span, _ in fails:
        new_delta.update(_downset(span))

    fail_disc = {id(f): d for f, _, d in fails}
    new_F: list[MultiPoly] = []
    for s in _corners(new_delta, len(u)):
        # the candidate with leading term s, else one valid at u, else any
        cands = [f for f in F if divides(f.lt("lex"), s)]
        f = min(cands, key=lambda f: (f.lt("lex") != s, id(f) in fail_disc))
        shifted = mp_mul_term(f, _sub(s, f.lt("lex")), 1, field)
        if id(f) not in fail_disc or not divides(s, u):
            # valid (or untestable) at u after the shift: no correction needed
            new_F.append(shifted)
            continue
        need = _sub(u, s)
        rec = next((r for r in reversed(G) if divides(need, r[1])), None)
        if rec is None:
            raise InternalError("no witness available for correction")
        g, span_g, d_g = rec
        coef = fail_disc[id(f)] * field.inv(d_g) % field.p
        new_F.append(mp_sub(shifted, mp_mul_term(g, _sub(span_g, need), coef, field), field))

    new_G = G + [rec for rec in fails if rec[1] not in delta]
    # keep only span-maximal witnesses; later records win ties
    pruned = [
        rec
        for i, rec in enumerate(new_G)
        if not any(
            j != i and divides(rec[1], other[1]) and (other[1] != rec[1] or j > i)
            for j, other in enumerate(new_G)
        )
    ]
    return new_F, pruned, new_delta


def reduce_set(F: list[MultiPoly], field: PrimeField) -> list[MultiPoly]:
    """Reduce each f modulo the reduced polynomials before it, make it monic,
    and drop zeros.

    F arrives as the corners of delta, leading terms ascending in lex order.
    A later member has a larger leading term, which divides no term of an
    earlier one, so reducing against the earlier members is reducing
    against all the others.
    """
    out: list[MultiPoly] = []
    for f in F:
        r = normal_form(f, out, "lex", field)
        if not r.is_zero():
            out.append(mp_monic(r, "lex", field))
    return out


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
    Q: QuotientStructure, probe: CoordVector, trace: list | None = None
) -> GroebnerBasis | Fail:
    """Sweep the array of the probe r, read through `Q.probe`; each pass
    appends (u, F, delta) to trace, if given (a pass rebinds, never mutates)."""
    field = Q.F
    n = Q.n
    D = Q.D
    E = _array(Q, Q.probe(probe))
    F: list[MultiPoly] = [MultiPoly(n, {(0,) * n: 1})]
    G: list[WitnessRec] = []
    delta: set[Term] = set()
    cap = 2 * n * D
    passes = 0

    def row_x1(j: Term) -> list[int]:
        return [t[0] for t in delta if t[1:] == j]

    def finish(ok: bool):
        if passes > cap:
            raise InternalError("pass budget exceeded (defect)")
        if ok:
            polys = sorted(F, key=lambda f: lex_key(f.lt("lex")))
            return GroebnerBasis(polys, "lex")
        return Fail(
            f"BMS sweep ended without a verified Groebner basis "
            f"({passes} passes, |delta| = {len(delta)}, D = {D})"
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
            justified = bool(row_x1(tuple(prev))) and len(delta) < D
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
                    return finish(is_gb(F, Q))
                u = (i,) + ridge
                step = sakata_update(F, G, delta, u, E, field, grow_tail=j if even else None)
                clean = step is None
                if not clean:
                    # a clean pass keeps the F the last pass already reduced,
                    # and reduce_set is idempotent on it
                    F, G, delta = step
                    F = reduce_set(F, field)
                passes += 1
                if trace is not None:
                    trace.append((u, F, delta))
                if len(delta) > D:
                    # lt(F) are the corners of delta, so delta is the staircase
                    # of lt(F), and delta never shrinks: is_gb cannot pass
                    return Fail(
                        f"BMS sweep ended without a verified Groebner basis: "
                        f"|delta| = {len(delta)} exceeds D = {D} after {passes} passes"
                    )
                i += 1
        # advance; the +2 head-room admits one more discovery level, which
        # the justification test above vets against the current delta set
        nxt = list(ridge)
        k = 0
        while True:
            if k == n - 1:
                return finish(is_gb(F, Q))
            jmax = max((t[k + 1] for t in delta), default=-1)
            nxt[k] += 1
            if nxt[k] <= 2 * jmax + 2:
                break
            nxt[k] = 0
            k += 1
        ridge = tuple(nxt)
