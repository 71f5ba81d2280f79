"""Berlekamp-Massey-Sakata change of ordering (the general, non-shape case).

The n-dimensional array E(u) = <r, T^u e> is consumed term by term in
ascending target-LEX order.  The sweep's state is (F, G, delta): the
candidate polynomials F, the witness records G, and the delta set, the
staircase of the array found so far.  All of it is on packed LEX terms
(`terms.TermCodec`): F is monic rows (`poly.Row`), delta and each witness
span are packed terms; MultiPoly is only the certificate's input and the
result.  Between passes the leading terms of F are exactly the corners of
delta, in ascending lex order, which a pass updates.  Each pass
tests F for validity at the new term, repairs failures using the
witnesses, and re-reduces F.  The driver stops as soon as the candidates
verify as the Groebner basis of the ideal (checked against the quotient
structure, so a wrong answer is impossible), or gives up and returns Fail:
at the end of the 2nD pass budget, or as soon as the delta set holds more
than D terms, after which no candidate set can verify.

Restricted to one variable the update degenerates to Berlekamp-Massey.
"""

from __future__ import annotations

from functools import cache

from .field import PrimeField
from .poly import Fail, GroebnerBasis, InternalError, MultiPoly, Row, make_row, normal_form
from .poly import reduce_rows, row_poly
from .quotient import CoordVector, QuotientStructure, staircase
from .terms import Term, TermCodec, term_codec

# witness record: (row, packed span, discrepancy)
WitnessRec = tuple[Row, int, int]


def _array(Q: QuotientStructure, probe: CoordVector):
    """The memoized x -> E(u) = <r, NF(x^u)>, x the packed LEX term of u.

    Coordinate vectors come from `Q.term_vec`, cached on Q: a new term
    x_l * u whose u is cached costs one packed product over T_l's columns,
    and no matrix is built.
    """
    unpack = term_codec(Q.n, "lex").unpack
    return cache(lambda x: Q.F.dot(probe, Q.term_vec(unpack(x))))


def sakata_update(
    F: list[Row],
    G: list[WitnessRec],
    delta: set[int],
    u: Term,
    E,
    field: PrimeField,
    grow_tail: Term | None = None,
) -> tuple[list[dict[int, int]], list[WitnessRec], set[int]] | None:
    """One pass: make the candidate set valid up to u.

    Returns None if no candidate fails at u (a clean pass), else the new
    state (F, G, delta), with F not yet reduced: dicts from packed term to
    a coefficient, which may lie outside [0, p).

    The sweep visits only a truncated slice of each x2..xn-level, so a
    nonzero discrepancy does not always reflect the array: a polynomial may
    fail here merely because the terms that would have fixed it were never
    visited.  Genuine delta growth at a level pairs each new term v with a
    new term u - v, which forces the tail of v to equal grow_tail (half the
    current level); any other out-of-delta span would inject a term into a
    level already verified, so it is discarded as truncation noise.
    grow_tail=None (revisit levels) discards all growth.
    """
    p = field.p
    codec = term_codec(len(u), "lex")
    guard, bits, steps = codec.guard, codec.bits, codec.steps

    def below(t: int) -> list[int]:  # the terms t / x_l; a divides b iff not (b - a) & guard
        return [t - s for s in steps if not (t - s) & guard]

    x = codec.pack(u)
    # the x2..xn fields a new span's must equal (None: no span's do)
    tail = None if grow_tail is None else codec.pack((0, *grow_tail)) >> bits
    # each failure by index in F, as the witness record it becomes if its span is new
    fails: dict[int, WitnessRec] = {}
    for i, (lt, rest) in enumerate(F):
        span = x - lt
        if not span & guard:
            # moved by span, the leading term lands on x and a tail entry (k, m) on x + k
            d = (E(x) - sum(m * E(x + k) for k, m in rest)) % p
            if d and (span in delta or span >> bits == tail):
                fails[i] = (F[i], span, d)
    if not fails:
        return None

    # each new span joins delta with its divisors, walked down one variable
    # at a time; delta is downward closed, so a walk stops where it meets it
    new_delta = set(delta)
    added: list[int] = []
    walk = [span for _, span, _ in fails.values()]
    while walk:
        t = walk.pop()
        if t not in new_delta:
            new_delta.add(t)
            added.append(t)
            walk.extend(below(t))
    # a corner of new_delta lies outside it with every predecessor inside: an
    # old corner, lt(F), or a successor of an added term
    corners = {lt for lt, _ in F}.union(t + s for t in added for s in steps) - new_delta
    corners = sorted(c for c in corners if new_delta.issuperset(below(c)))

    new_F: list[dict[int, int]] = []
    for s in corners:
        # the candidate with leading term s, else one valid at u, else any
        cands = [i for i, (lt, _) in enumerate(F) if not (s - lt) & guard]
        i = min(cands, key=lambda i: (F[i][0] != s, i in fails))
        f = {s: 1}
        f.update((s + k, p - m) for k, m in F[i][1])
        new_F.append(f)
        need = x - s
        if i not in fails or need & guard:
            # valid (or untestable) at u after the shift: no correction needed
            continue
        rec = next((r for r in reversed(G) if not (r[1] - need) & guard), None)
        if rec is None:
            raise InternalError("no witness available for correction")
        (lt_g, tail_g), span_g, d_g = rec
        # subtract c * x^(span_g - need) * g, whose leading term lands on at
        c = fails[i][2] * field.inv(d_g) % p
        at = lt_g + span_g - need
        f[at] = f.get(at, 0) - c
        for k, m in tail_g:
            f[at + k] = f.get(at + k, 0) + c * m

    new_G = G + [rec for rec in fails.values() if rec[1] not in delta]
    # keep only span-maximal witnesses; later records win ties
    pruned = [
        rec
        for i, rec in enumerate(new_G)
        if not any(
            j != i and not (other[1] - rec[1]) & guard and (other[1] != rec[1] or j > i)
            for j, other in enumerate(new_G)
        )
    ]
    return new_F, pruned, new_delta
def reduce_set(F: list[dict[int, int]], codec: TermCodec, field: PrimeField) -> list[Row]:
    """Reduce each polynomial f (consumed) in codec's packed LEX terms modulo
    the rows of the reduced ones before it, make it a monic row, drop zeros.

    F arrives as the corners of delta, leading terms ascending in lex order.
    A later member has a larger leading term, which divides no term of an
    earlier one, so reducing against the earlier members is reducing
    against all the others.  No leading term is reduced, so the rows stay
    in ascending order, the order `normal_form` sorts its reducers into.
    """
    out: list[Row] = []
    for f in F:
        r = reduce_rows(f, out, codec, field.p)
        if r:
            out.append(make_row(r.items(), field))
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
    B = staircase([f.lt("lex") for f in F], Q.n, Q.D)
    if B is None or len(B) != Q.D:
        return False
    return all(normal_form(f, Q.G1.polys, "drl", Q.F).is_zero() for f in F)


def bms_change(
    Q: QuotientStructure, probe: CoordVector, trace: list | None = None
) -> GroebnerBasis | Fail:
    """Sweep the array of the probe r, read through `Q.probe`; each pass
    appends (u, F, delta) to trace, if given, as it left them: rows and
    packed terms of `term_codec(n, "lex")`, read by `row_poly` and
    `codec.unpack` (a pass rebinds them, never mutates them).  A verified F
    is returned as it stands: lt(F) ascend in lex order."""
    field = Q.F
    n = Q.n
    D = Q.D
    codec = term_codec(n, "lex")
    bits, mask = codec.bits, (1 << codec.bits) - 1
    E = _array(Q, Q.probe(probe))
    F: list[Row] = [(codec.pack((0,) * n), [])]
    G: list[WitnessRec] = []
    delta: set[int] = set()
    cap = 2 * n * D
    passes = 0

    def row_x1(j: Term) -> list[int]:
        # the x1-exponents of delta's terms whose x2..xn-exponents are j
        top = codec.pack((0, *j)) >> bits
        return [t & mask for t in delta if t >> bits == top]

    def finish():
        if passes > cap:
            raise InternalError("pass budget exceeded (defect)")
        basis = [row_poly(f, codec, field) for f in F]
        if is_gb(basis, Q):
            return GroebnerBasis(basis, "lex")
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
        if even:
            # a discovery level needs room in delta and the level one down in
            # its first nonzero coordinate; the first level, j = 0, needs neither
            a = next((a for a, e in enumerate(j) if e), None)
            prev = None if a is None else j[:a] + (j[a] - 1,) + j[a + 1 :]
            justified = prev is None or (bool(row_x1(prev)) and len(delta) < D)
        else:
            justified = bool(row_x1(j))
        if justified:
            # a revisit level is walked over exactly the width of the level
            # it re-verifies; a discovery level runs Berlekamp-Massey style,
            # through twice the largest x1-exponent found so far plus a
            # clean confirming pass (the c_max + c_max criterion)
            clean = False
            for i in range(2 * D if even else len(row_x1(j))):
                if even and clean and i >= 2 * max(row_x1(j), default=-1) + 1:
                    break
                if passes >= cap:
                    return finish()
                u = (i,) + ridge
                step = sakata_update(F, G, delta, u, E, field, grow_tail=j if even else None)
                clean = step is None
                if not clean:
                    # a clean pass keeps the F the last pass already reduced,
                    # and reduce_set is idempotent on it
                    F, G, delta = step
                    F = reduce_set(F, codec, field)
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
        # advance; the +2 head-room admits one more discovery level, which
        # the justification test above vets against the current delta set
        nxt = list(ridge)
        for k in range(n - 1):
            jmax = max((t >> (k + 1) * bits & mask for t in delta), default=-1)
            nxt[k] += 1
            if nxt[k] <= 2 * jmax + 2:
                break
            nxt[k] = 0
        else:
            return finish()
        ridge = tuple(nxt)
