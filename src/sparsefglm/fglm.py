"""Classic FGLM (packed-term enumeration + echelon) and the top-level dispatcher."""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from itertools import islice

from .bms import bms_change
from .field import PrimeField, field_codec
from .poly import Fail, GroebnerBasis, MultiPoly
from .quotient import QuotientStructure, apply
from .shape import shape_det, shape_prob
from .terms import OrderingTag, term_codec, unit_term


def classic_fglm(Q: QuotientStructure, target: OrderingTag) -> GroebnerBasis:
    """Reduced Groebner basis w.r.t. target by enumerating terms ascending.

    Keeps an echelon form of the coordinate vectors of the standard
    monomials seen so far; a dependency appends a basis polynomial whose
    leading term is the current term, so the basis comes out ascending.
    Terms are packed by `term_codec(n, target)`; the frontier is one heap of
    (x_j s, j, vector of s) per staircase term s, and a term pushed by
    several s pops as one run, of which the first entry is taken.
    Each echelon row is one int of 2D + 1 fields of `field_codec`: the
    normalized vector in fields 0..D-1, then its combination over the
    target-staircase terms, the k-th such term in field D + k (field 2D is
    for the terms met once all D are found).  A new term's vector is packed
    once with a 1 in its own combination field; each pivot, ascending, then
    costs one field read and one big-int multiply-add, and the result is
    unpacked once.  At most D rows of reduced fields, each scaled by at most
    p - 1, are added to reduced fields, so the bound (p-1) + D(p-1)^2 keeps
    every field from carrying into the next.
    """
    F = Q.F
    p, n, D = F.p, Q.n, Q.D
    codec = term_codec(n, target)
    guard, mark = codec.guard, codec.mark
    bits, pack, unpack = field_codec(2 * D + 1, (p - 1) + D * (p - 1) ** 2)
    mask = (1 << bits) - 1
    pad = [0] * (D + 1)

    stair: list[int] = []  # target-staircase terms, the k-th in field D + k
    echelon: list[tuple[int, int]] = []  # (bits * pivot, packed row), ascending
    out: list[MultiPoly] = []
    lows: list[int] = []  # leading terms less lift: lt divides t iff (t - low) & guard == mark

    heap: list[tuple[int, int, list[int] | None]] = [(codec.pack(unit_term(n)), 0, None)]
    last = None
    while heap:
        t, j, parent = heapq.heappop(heap)
        if t == last or any((t - low) & guard == mark for low in lows):
            continue
        last = t
        v = Q.e() if parent is None else apply(Q.matrix(j), parent)
        r = pack(v + pad) | 1 << bits * (D + len(stair))
        for shift, row in echelon:
            c = (r >> shift & mask) % p
            if c:
                r += (p - c) * row
        fields = [a % p for a in unpack(r)]
        piv = next(filter(fields.__getitem__, range(D)), None)
        if piv is None:
            # dependency: t = sum of earlier staircase terms inside the quotient
            coeffs = {codec.unpack(s): a for s, a in zip(stair, fields[D:]) if a}
            coeffs[codec.unpack(t)] = 1
            out.append(MultiPoly(n, coeffs))
            lows.append(t - codec.lift)
            continue
        inv = F.inv(fields[piv])
        row = pack([a * inv % p for a in fields])
        bisect.insort(echelon, (bits * piv, row))
        stair.append(t)
        for jj, step in enumerate(codec.steps, start=1):
            heapq.heappush(heap, (codec.check(t + step), jj, v))
    return GroebnerBasis(out, target)


@dataclass
class ConversionResult:
    basis: GroebnerBasis
    of_what: str  # "I" | "radical(I)"
    method_used: str  # "shape-prob" | "shape-det" | "bms" | "fglm"
    bms_trace: list | None = None  # the sweep's passes (u, rows, packed delta); None if none ran

    @property
    def bms_passes(self) -> int | None:
        return None if self.bms_trace is None else len(self.bms_trace)


def toplevel(
    G1: GroebnerBasis,
    field: PrimeField,
    seed,
    want_radical_ok: bool = True,
    quotient: QuotientStructure | None = None,
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

    Probe k is the k-th of `Q.probes(seed)`, drawn when its stage runs; the
    sweep's is the 4th of a fresh one, and its passes are `bms_trace`.  The
    quotient structure and matrices are built once and shared by every stage;
    a given `quotient` must be the one of G1 over field (ValueError otherwise).
    """
    Q = quotient if quotient is not None else QuotientStructure(G1, field)
    if Q.G1 != G1 or Q.F != field:
        raise ValueError("quotient was built from another basis or field")
    probes = Q.probes(seed)

    res = shape_prob(Q, next(probes))
    if not isinstance(res, Fail):
        return ConversionResult(res.to_groebner(field), "I", "shape-prob")

    det = shape_det(Q, start=res.krylov)
    if not isinstance(det, Fail):
        sb, is_radical = det
        if is_radical:
            return ConversionResult(sb.to_groebner(field), "I", "shape-det")
        for _ in range(2):
            res = shape_prob(Q, next(probes))
            if not isinstance(res, Fail):
                return ConversionResult(res.to_groebner(field), "I", "shape-prob")
        if want_radical_ok:
            return ConversionResult(sb.to_groebner(field), "radical(I)", "shape-det")

    trace = None
    if field.p > Q.D:
        trace = []
        res = bms_change(Q, next(islice(Q.probes(seed), 3, None)), trace)
        if not isinstance(res, Fail):
            return ConversionResult(res, "I", "bms", trace)
    return ConversionResult(classic_fglm(Q, "lex"), "I", "fglm", trace)
