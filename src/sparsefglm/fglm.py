"""Classic FGLM (term enumeration + echelon) and the top-level dispatcher."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from .bms import bms_change
from .field import PrimeField
from .poly import Fail, GroebnerBasis, MultiPoly
from .quotient import QuotientStructure, apply, canonical_basis
from .shape import shape_det, shape_prob
from .terms import OrderingTag, Term, divides, term_key, term_mul, unit_term, var_term


def classic_fglm(Q: QuotientStructure, target: OrderingTag) -> GroebnerBasis:
    """Reduced Groebner basis w.r.t. target by enumerating terms ascending.

    Maintains an echelon form of the coordinate vectors of the standard
    monomials seen so far; a dependency yields a basis polynomial whose
    leading term is the current term.  O(D^2) per inserted vector.
    """
    F = Q.F
    p = F.p
    n = Q.n
    key = term_key(target)

    raw_vec: dict[Term, list[int]] = {}  # target-staircase term -> vec(NF(term))
    # echelon rows: pivot -> (normalized vector, combination over staircase terms)
    rows: dict[int, tuple[list[int], dict[Term, int]]] = {}
    out: list[MultiPoly] = []
    lts: list[Term] = []

    start = unit_term(n)
    heap: list[tuple[tuple, Term, Term | None, int]] = [(key(start), start, None, 0)]
    seen = {start}
    while heap:
        _, t, parent, j = heapq.heappop(heap)
        if any(divides(l, t) for l in lts):
            continue
        v = list(Q.e()) if parent is None else apply(Q.matrix(j), raw_vec[parent])
        # reduce against the echelon, tracking the combination
        r = list(v)
        combo: dict[Term, int] = {}
        for piv in sorted(rows):
            if r[piv]:
                w, cmb = rows[piv]
                c = r[piv]
                for idx, a in enumerate(w):
                    if a:
                        r[idx] = (r[idx] - c * a) % p
                for s, a in cmb.items():
                    combo[s] = (combo.get(s, 0) - c * a) % p
        piv = next((idx for idx, a in enumerate(r) if a), None)
        if piv is None:
            # dependency: t = sum of earlier staircase terms inside the quotient
            coeffs = {s: a % p for s, a in combo.items() if a % p}
            coeffs[t] = 1
            out.append(MultiPoly(n, coeffs))
            lts.append(t)
            continue
        inv = F.inv(r[piv])
        w = [a * inv % p for a in r]
        cmb = {t: inv}
        for s, a in combo.items():
            if a % p:
                cmb[s] = a * inv % p
        rows[piv] = (w, cmb)
        raw_vec[t] = v
        for jj in range(1, n + 1):
            nt = term_mul(t, var_term(n, jj))
            if nt not in seen:
                seen.add(nt)
                heapq.heappush(heap, (key(nt), nt, t, jj))
    out.sort(key=lambda f: key(f.lt(target)))
    return GroebnerBasis(out, target, reduced=True)


@dataclass
class ConversionResult:
    basis: GroebnerBasis
    of_what: str  # "I" | "radical(I)"
    method_used: str  # "shape-prob" | "shape-det" | "bms" | "fglm"
    quotient: QuotientStructure
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
    2. Otherwise shape_det decides shape position: the minimal polynomial of
       e under T_1 has degree D exactly then, and every probe's minimal
       polynomial divides it.  Not in shape position: no probe can succeed,
       so probes 2 and 3 are skipped.  Radical: its basis is that of I.
       Not radical: probes 2 and 3 may still find I; if neither does, the
       radical(I) basis is returned when want_radical_ok.
    3. Otherwise bms_change, but only when p > D: a probe drawn from GF(p)^D
       has no Schwartz-Zippel guarantee once p <= D, and classic_fglm gives
       the same (unique) reduced basis.  Last, classic_fglm.

    Probe k is the k-th draw of random.Random(seed), drawn even when its
    stage is skipped, and the BMS probe is the 4th.  The quotient structure
    and matrices are built once and shared by every stage.
    """
    Q = quotient if quotient is not None else canonical_basis(G1, field)
    rng = random.Random(seed)

    def draw() -> list[int]:
        return [rng.randrange(field.p) for _ in range(Q.D)]

    res = shape_prob(Q, seed=None, probe=draw())
    if not isinstance(res, Fail):
        return ConversionResult(res.to_groebner(field), "I", "shape-prob", Q)

    det = shape_det(Q)
    if isinstance(det, Fail):
        draw(), draw()  # probes 2 and 3 cannot succeed; the BMS probe stays 4th
    else:
        sb, is_radical = det
        if is_radical:
            return ConversionResult(sb.to_groebner(field), "I", "shape-det", Q)
        for _ in range(2):
            res = shape_prob(Q, seed=None, probe=draw())
            if not isinstance(res, Fail):
                return ConversionResult(res.to_groebner(field), "I", "shape-prob", Q)
        if want_radical_ok:
            return ConversionResult(sb.to_groebner(field), "radical(I)", "shape-det", Q)

    if field.p <= Q.D:
        return ConversionResult(classic_fglm(Q, "lex"), "I", "fglm", Q)
    probe = draw()
    trace = bms_trace if bms_trace is not None else []
    res = bms_change(Q, seed=None, probe=probe, trace=trace)
    if not isinstance(res, Fail):
        return ConversionResult(res, "I", "bms", Q, bms_passes=len(trace))

    return ConversionResult(classic_fglm(Q, "lex"), "I", "fglm", Q, bms_passes=len(trace))
