"""Multivariate polynomials over GF(p) and polynomial reduction.

A MultiPoly keeps its coefficients in a dict keyed by exponent tuples; only
nonzero entries are stored.  Polynomials do not carry the field; operations
that need arithmetic take a PrimeField argument, mirroring the univariate
layer.

Reduction runs on packed terms (`terms.TermCodec`).  A reducer is a *row*
(lt, tail): its leading term packed, and for each other term x^s with
coefficient a the pair (pack(s) - lt, -a/lc).  Reducing the term x^t with
coefficient c then adds c * m at the packed term t + delta of each tail
entry (delta, m), so no exponent tuple is built in the loop.
`reduce_rows` is that loop, a heap of packed terms; `normal_form` runs on
it.  `buchberger` keeps its basis as rows too but reduces on DRL ranks up
to its rank limit, on this loop past it.

A MultiPoly is immutable once constructed: every operation builds a new
coefficient dict, and nothing writes to `coeffs` afterwards.  That is what
lets `lt` and `reducer_row` cache their answers on the instance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import itemgetter

from .field import PrimeField
from .terms import OrderingTag, Term, TermCodec, term_codec, term_key, term_mul, term_str
from .unipoly import UniPoly, trim

# (packed leading term, [(packed term - packed leading term, -coeff/lc)])
Row = tuple[int, list[tuple[int, int]]]


class MultiPoly:
    """A polynomial in n variables; `coeffs` must not be mutated after
    construction, since leading terms are cached per ordering in `_lt` and
    reducer rows per ordering and field in `_rows`."""

    __slots__ = ("n", "coeffs", "_lt", "_rows")

    def __init__(self, n: int, coeffs: dict[Term, int] | None = None):
        self.n = n
        self.coeffs = {t: c for t, c in (coeffs or {}).items() if c}
        self._lt: dict[str, Term] | None = None
        self._rows: dict[tuple[str, int], Row] | None = None

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n)

    @classmethod
    def from_uni(cls, n: int, f: UniPoly) -> "MultiPoly":
        """Lift an x1-polynomial given by ascending coefficients."""
        return cls(n, {(i,) + (0,) * (n - 1): c for i, c in enumerate(f) if c})

    def to_uni(self) -> UniPoly:
        """Ascending x1-coefficients; requires the poly to involve only x1."""
        if any(any(t[1:]) for t in self.coeffs):
            raise ValueError("polynomial is not univariate in x1")
        out = [0] * (1 + max((t[0] for t in self.coeffs), default=0))
        for t, c in self.coeffs.items():
            out[t[0]] = c
        return trim(out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def lt(self, ordering: OrderingTag) -> Term:
        cache = self._lt
        if cache is None:
            cache = self._lt = {}
        t = cache.get(ordering)
        if t is None:
            if not self.coeffs:
                raise ValueError("zero polynomial has no leading term")
            t = cache[ordering] = max(self.coeffs, key=term_key(ordering))
        return t

    def lc(self, ordering: OrderingTag) -> int:
        return self.coeffs[self.lt(ordering)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and other.n == self.n
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for t in sorted(self.coeffs, key=term_key("drl"), reverse=True):
            c = self.coeffs[t]
            if not any(t):
                parts.append(str(c))
            elif c == 1:
                parts.append(term_str(t))
            else:
                parts.append(f"{c}*{term_str(t)}")
        return " + ".join(parts)


def mp_sub(f: MultiPoly, g: MultiPoly, F: PrimeField) -> MultiPoly:
    out = dict(f.coeffs)
    for t, c in g.coeffs.items():
        v = (out.get(t, 0) - c) % F.p
        if v:
            out[t] = v
        else:
            out.pop(t, None)
    return MultiPoly(f.n, out)


def mp_scale(f: MultiPoly, c: int, F: PrimeField) -> MultiPoly:
    c = F.norm(c)
    if c == 0:
        return MultiPoly.zero(f.n)
    return MultiPoly(f.n, {t: c * a % F.p for t, a in f.coeffs.items()})


def mp_mul_term(f: MultiPoly, t: Term, c: int, F: PrimeField) -> MultiPoly:
    """f * c*x^t."""
    c = F.norm(c)
    if c == 0:
        return MultiPoly.zero(f.n)
    return MultiPoly(f.n, {term_mul(s, t): c * a % F.p for s, a in f.coeffs.items()})


def mp_monic(f: MultiPoly, ordering: OrderingTag, F: PrimeField) -> MultiPoly:
    if f.is_zero():
        return f
    return mp_scale(f, F.inv(f.lc(ordering)), F)


def make_row(packed: dict[int, int], F: PrimeField) -> Row:
    """The row of a nonzero packed polynomial (consumed)."""
    lt = max(packed)
    m = F.p - F.inv(packed.pop(lt))
    return lt, [(u - lt, a * m % F.p) for u, a in packed.items()]


def reducer_row(g: MultiPoly, ordering: OrderingTag, F: PrimeField) -> Row:
    """The row of a nonzero g: what `reduce_rows` reduces by, cached on g."""
    cache = g._rows
    if cache is None:
        cache = g._rows = {}
    row = cache.get((ordering, F.p))
    if row is None:
        pack = term_codec(g.n, ordering).pack
        row = cache[(ordering, F.p)] = make_row({pack(t): c for t, c in g.coeffs.items()}, F)
    return row


def reduce_rows(work: dict[int, int], rows: list[Row], codec: TermCodec, p: int) -> dict[int, int]:
    """Fully reduce the packed polynomial `work` (consumed) by rows sorted by
    leading term; the first row whose leading term divides wins.

    Returns the normal form with its terms in descending order.
    """
    guard, mark = codec.guard, codec.mark
    table = [(lt - codec.lift, tail) for lt, tail in rows]
    # a max-heap by negation, one entry per term of work: coefficients add up
    # unreduced and are reduced mod p only when their term is popped, and a
    # term whose sum cancels stays until then, so none is ever pushed twice
    heap = [-t for t in work]
    heapq.heapify(heap)
    out: dict[int, int] = {}
    while heap:
        t = -heapq.heappop(heap)
        c = work.pop(t) % p
        if not c:
            continue
        for lt_lifted, tail in table:
            if (t - lt_lifted) & guard == mark:
                for delta, m in tail:
                    u = t + delta
                    old = work.get(u)
                    if old is None:
                        if u & guard:
                            codec.check(u)  # raises: an exponent left its field
                        work[u] = c * m
                        heapq.heappush(heap, -u)
                    else:
                        work[u] = old + c * m
                break
        else:
            out[t] = c
    return out


def normal_form(
    f: MultiPoly,
    reducers: list[MultiPoly],
    ordering: OrderingTag,
    F: PrimeField,
) -> MultiPoly:
    """Fully reduce f modulo the reducers.

    When several leading terms divide the current term, the reducer with the
    smallest leading term wins — an arbitrary but fixed rule, so reductions
    are reproducible.
    """
    codec = term_codec(f.n, ordering)
    rows = sorted((reducer_row(g, ordering, F) for g in reducers if g.coeffs), key=itemgetter(0))
    out = reduce_rows({codec.pack(t): c for t, c in f.coeffs.items()}, rows, codec, F.p)
    return MultiPoly(f.n, {codec.unpack(u): c for u, c in out.items()})


def row_poly(row: Row, codec: TermCodec, F: PrimeField) -> MultiPoly:
    """The monic MultiPoly of a row, with its caches filled from the row."""
    lt, tail = row
    coeffs = {codec.unpack(lt): 1}
    coeffs.update((codec.unpack(lt + d), F.p - m) for d, m in tail)
    g = MultiPoly(codec.n, coeffs)
    g._lt = {codec.ordering: codec.unpack(lt)}
    g._rows = {(codec.ordering, F.p): row}
    return g


class InternalError(AssertionError):
    """A defect: an invariant the algorithms rely on does not hold.

    Raised explicitly, so it survives `python -O`; subclassing AssertionError
    keeps the CLI's exit code 4 for it.
    """


class Fail:
    """A method declined the input (not an error: the caller falls back)."""

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self) -> str:
        return f"Fail({self.reason!r})"


@dataclass
class GroebnerBasis:
    polys: list[MultiPoly]
    ordering: OrderingTag
    n: int = field(init=False)

    def __post_init__(self):
        if not self.polys:
            raise ValueError("empty basis")
        self.n = self.polys[0].n
