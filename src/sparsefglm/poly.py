"""Multivariate polynomials over GF(p) and polynomial reduction.

A MultiPoly is the input and output type: it keeps its coefficients in a
dict keyed by exponent tuples, only nonzero entries stored, and does not
carry the field.  It has no arithmetic of its own.

Arithmetic runs on rows over packed terms (`terms.TermCodec`).  A row is
(lt, tail): the leading term packed, and for each other term x^s with
coefficient a the pair (pack(s) - lt, -a/lc); it stands for the monic
polynomial.  Reducing the term x^t with coefficient c then adds c * m at
the packed term t + delta of each tail entry (delta, m), so no exponent
tuple is built in the loop, and moving a row to another leading term
leaves its tail as it is.  `reduce_rows` is that loop, a heap of packed
terms; `normal_form` runs on it.  `buchberger` and the BMS sweep keep their
polynomials as rows, and `row_poly` turns a row back into a MultiPoly;
`buchberger` reduces on DRL ranks up to its rank limit, on this loop past
it.

A MultiPoly caches nothing: `lt` packs the terms by the ordering's
`TermCodec` and takes the max, so it raises ValueError for a term past
MAX_EXP as every packed path does.  Rows are built by `make_row` and not
cached.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import itemgetter

from .field import PrimeField
from .terms import OrderingTag, Term, TermCodec, term_codec, term_str
from .unipoly import UniPoly, trim

# (packed leading term, [(packed term - packed leading term, -coeff/lc)])
Row = tuple[int, list[tuple[int, int]]]


class MultiPoly:
    """A polynomial in n variables: its nonzero coefficients by exponent
    tuple in `coeffs`."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[Term, int] | None = None):
        self.n = n
        self.coeffs = {t: c for t, c in (coeffs or {}).items() if c}

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
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading term")
        codec = term_codec(self.n, ordering)
        return codec.unpack(max(codec.pack_all(self.coeffs)))

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
        try:  # packed DRL terms compare as the terms do
            order = sorted(self.coeffs, key=term_codec(self.n, "drl").pack, reverse=True)
        except ValueError:  # a degree past MAX_EXP, which no packed term holds
            order = sorted(self.coeffs, key=lambda t: (sum(t), [-e for e in t]), reverse=True)
        parts = []
        for t in order:
            c = self.coeffs[t]
            if not any(t):
                parts.append(str(c))
            elif c == 1:
                parts.append(term_str(t))
            else:
                parts.append(f"{c}*{term_str(t)}")
        return " + ".join(parts)


def make_row(terms: Iterable[tuple[int, int]], F: PrimeField) -> Row:
    """The row of a nonzero packed polynomial given as its (packed term,
    nonzero coefficient) pairs by descending term; the tail keeps that order."""
    p, it = F.p, iter(terms)
    lt, c = next(it)
    m = p - F.inv(c)
    return lt, [(u - lt, a * m % p) for u, a in it]


def reducer_row(g: MultiPoly, ordering: OrderingTag, F: PrimeField) -> Row:
    """The row of a nonzero g, its tail by descending term (`make_row`)."""
    pack = term_codec(g.n, ordering).pack
    return make_row(sorted(zip(map(pack, g.coeffs), g.coeffs.values()), reverse=True), F)


def reduce_rows(work: dict[int, int], rows: list[Row], codec: TermCodec, p: int) -> dict[int, int]:
    """Fully reduce the packed polynomial `work` (consumed) by rows in the
    caller's order; the first row whose leading term divides wins.

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
    """The monic MultiPoly of a row."""
    lt, tail = row
    coeffs = {codec.unpack(lt): 1}
    coeffs.update((codec.unpack(lt + d), F.p - m) for d, m in tail)
    return MultiPoly(codec.n, coeffs)


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
