"""Classic FGLM (term enumeration + echelon) and the top-level dispatcher."""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass

from .bms import bms_change
from .field import PrimeField, field_codec
from .poly import Fail, GroebnerBasis, MultiPoly
from .quotient import QuotientStructure, apply
from .shape import shape_det, shape_prob
from .terms import OrderingTag, Term, divides, term_key, term_mul, unit_term, var_term


def classic_fglm(Q: QuotientStructure, target: OrderingTag) -> GroebnerBasis:
    """Reduced Groebner basis w.r.t. target by enumerating terms ascending.

    Keeps an echelon form of the coordinate vectors of the standard
    monomials seen so far; a dependency yields a basis polynomial whose
    leading term is the current term.  Each echelon row is one int of
    2D + 1 fields of `field_codec`: the normalized vector in fields 0..D-1,
    then its combination over the target-staircase terms, the k-th such
    term in field D + k (field 2D is for the terms met once all D are
    found).  A new term's vector is packed once with a 1 in its own
    combination field; each pivot, ascending, then costs one field read and
    one big-int multiply-add, and the result is unpacked once.  At most D
    rows of reduced fields, each scaled by at most p - 1, are added to
    reduced fields, so the bound (p-1) + D(p-1)^2 keeps every field from
    carrying into the next.
    """
    F = Q.F
    p = F.p
    n = Q.n
    D = Q.D
    key = term_key(target)
    width, pack, unpack = field_codec(2 * D + 1, (p - 1) + D * (p - 1) ** 2)
    bits = 8 * width
    mask = (1 << bits) - 1
    nbytes = (2 * D + 1) * width
    pad = [0] * (D + 1)
    xs = [var_term(n, jj) for jj in range(1, n + 1)]

    raw_vec: dict[Term, list[int]] = {}  # target-staircase term -> vec(NF(term))
    stair: list[Term] = []  # target-staircase terms, the k-th in field D + k
    echelon: list[tuple[int, int]] = []  # (bits * pivot, packed row), ascending
    out: list[MultiPoly] = []
    lts: list[Term] = []

    start = unit_term(n)
    heap: list[tuple[tuple, Term, Term | None, int]] = [(key(start), start, None, 0)]
    seen = {start}
    while heap:
        _, t, parent, j = heapq.heappop(heap)
        if any(divides(l, t) for l in lts):
            continue
        v = Q.e() if parent is None else apply(Q.matrix(j), raw_vec[parent])
        r = int.from_bytes(pack(*v, *pad), "little") | 1 << bits * (D + len(stair))
        for shift, row in echelon:
            c = (r >> shift & mask) % p
            if c:
                r += (p - c) * row
        fields = [a % p for a in unpack(r.to_bytes(nbytes, "little"))]
        piv = next(filter(fields.__getitem__, range(D)), None)
        if piv is None:
            # dependency: t = sum of earlier staircase terms inside the quotient
            coeffs = {s: a for s, a in zip(stair, fields[D:]) if a}
            coeffs[t] = 1
            out.append(MultiPoly(n, coeffs))
            lts.append(t)
            continue
        inv = F.inv(fields[piv])
        row = int.from_bytes(pack(*[a * inv % p for a in fields]), "little")
        bisect.insort(echelon, (bits * piv, row))
        stair.append(t)
        raw_vec[t] = v
        for jj, x in enumerate(xs, start=1):
            nt = term_mul(t, x)
            if nt not in seen:
                seen.add(nt)
                heapq.heappush(heap, (key(nt), nt, t, jj))
    out.sort(key=lambda f: key(f.lt(target)))
    return GroebnerBasis(out, target)


@dataclass
class ConversionResult:
    basis: GroebnerBasis
    of_what: str  # "I" | "radical(I)"
    method_used: str  # "shape-prob" | "shape-det" | "bms" | "fglm"
    bms_passes: int | None = None


def toplevel(
    G1: GroebnerBasis,
    field: PrimeField,
    seed,
    want_radical_ok: bool = True,
    quotient: QuotientStructure | None = None,
    bms_trace: list | None = None,
) -> ConversionResult:
    """Decide the method in a fixed order and convert G1 to LEX.

    1. One random probe through shape_prob; its answer is returned.
    2. Otherwise shape_det, taking the declined probe's Krylov result as
       its first factor, decides shape position: the minimal polynomial of
       e under T_1 has degree D exactly then, and every probe's minimal
       polynomial divides it.  Not in shape position: no probe can succeed,
       so probes 2 and 3 are skipped.  Radical: its basis is that of I.
       Not radical: probes 2 and 3 may still find I; if neither does, the
       radical(I) basis is returned when want_radical_ok.
    3. Otherwise bms_change, but only when p > D: a probe drawn from GF(p)^D
       has no Schwartz-Zippel guarantee once p <= D, and classic_fglm gives
       the same (unique) reduced basis.  Last, classic_fglm.

    Probe k is the k-th of `Q.probes(seed)`, drawn even when its stage is
    skipped, and the BMS probe is the 4th.  The quotient structure and
    matrices are built once and shared by every stage.
    """
    Q = quotient if quotient is not None else QuotientStructure(G1, field)
    probes = Q.probes(seed)

    res = shape_prob(Q, next(probes))
    if not isinstance(res, Fail):
        return ConversionResult(res.to_groebner(field), "I", "shape-prob")

    det = shape_det(Q, start=res.krylov)
    if isinstance(det, Fail):
        next(probes), next(probes)  # probes 2 and 3 cannot succeed; the BMS probe stays 4th
    else:
        sb, is_radical = det
        if is_radical:
            return ConversionResult(sb.to_groebner(field), "I", "shape-det")
        for _ in range(2):
            res = shape_prob(Q, next(probes))
            if not isinstance(res, Fail):
                return ConversionResult(res.to_groebner(field), "I", "shape-prob")
        if want_radical_ok:
            return ConversionResult(sb.to_groebner(field), "radical(I)", "shape-det")

    if field.p <= Q.D:
        return ConversionResult(classic_fglm(Q, "lex"), "I", "fglm")
    trace = bms_trace if bms_trace is not None else []
    res = bms_change(Q, next(probes), trace)
    if not isinstance(res, Fail):
        return ConversionResult(res, "I", "bms", bms_passes=len(trace))

    return ConversionResult(classic_fglm(Q, "lex"), "I", "fglm", bms_passes=len(trace))
