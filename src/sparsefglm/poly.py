"""Multivariate polynomials over GF(p) and polynomial reduction.

Coefficients live in dicts keyed by exponent tuples; only nonzero entries
are stored.  Polynomials do not carry the field; operations that need
arithmetic take a PrimeField argument, mirroring the univariate layer.

A MultiPoly is immutable once constructed: every operation builds a new
coefficient dict, and nothing writes to `coeffs` afterwards.  That is what
lets `lt` cache its answer per ordering on the instance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .field import PrimeField
from .terms import (
    OrderingTag,
    Term,
    divides,
    term_desc_key,
    term_div,
    term_key,
    term_mul,
    term_str,
)
from .unipoly import UniPoly, trim


class MultiPoly:
    """A polynomial in n variables; `coeffs` must not be mutated after
    construction, since leading terms are cached per ordering in `_lt`."""

    __slots__ = ("n", "coeffs", "_lt")

    def __init__(self, n: int, coeffs: dict[Term, int] | None = None):
        self.n = n
        self.coeffs = {t: c for t, c in (coeffs or {}).items() if c}
        self._lt: dict[str, Term] | None = None

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c: int, F: PrimeField) -> "MultiPoly":
        return cls(n, {(0,) * n: F.norm(c)})

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

    def num_terms(self) -> int:
        return len(self.coeffs)

    def copy(self) -> "MultiPoly":
        return MultiPoly(self.n, dict(self.coeffs))

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


def mp_add(f: MultiPoly, g: MultiPoly, F: PrimeField) -> MultiPoly:
    out = dict(f.coeffs)
    for t, c in g.coeffs.items():
        v = (out.get(t, 0) + c) % F.p
        if v:
            out[t] = v
        else:
            out.pop(t, None)
    return MultiPoly(f.n, out)


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


def mp_mul(f: MultiPoly, g: MultiPoly, F: PrimeField) -> MultiPoly:
    out: dict[Term, int] = {}
    for s, a in f.coeffs.items():
        for t, b in g.coeffs.items():
            u = term_mul(s, t)
            v = (out.get(u, 0) + a * b) % F.p
            if v:
                out[u] = v
            else:
                out.pop(u, None)
    return MultiPoly(f.n, out)


def mp_monic(f: MultiPoly, ordering: OrderingTag, F: PrimeField) -> MultiPoly:
    if f.is_zero():
        return f
    return mp_scale(f, F.inv(f.lc(ordering)), F)


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
    key = term_key(ordering)
    desc = term_desc_key(ordering)
    p = F.p
    table = sorted(
        ((g.lt(ordering), F.inv(g.lc(ordering)), g) for g in reducers if not g.is_zero()),
        key=lambda row: key(row[0]),
    )
    work = dict(f.coeffs)
    # every term of work has an entry here, keyed once when it entered work;
    # entries whose term has cancelled since are skipped when popped
    heap = [(desc(t), t) for t in work]
    heapq.heapify(heap)
    out: dict[Term, int] = {}
    while heap:
        t = heapq.heappop(heap)[1]
        c = work.pop(t, None)
        if c is None:
            continue
        for lt_g, inv_g, g in table:
            if divides(lt_g, t):
                shift = term_div(t, lt_g)
                scale = c * inv_g % p
                for s, a in g.coeffs.items():
                    if s == lt_g:
                        continue
                    u = term_mul(s, shift)
                    old = work.get(u)
                    v = ((old or 0) - scale * a) % p
                    if v:
                        if old is None:
                            heapq.heappush(heap, (desc(u), u))
                        work[u] = v
                    elif old is not None:
                        del work[u]
                break
        else:
            out[t] = c
    return MultiPoly(f.n, out)


def reduce_basis(
    polys: list[MultiPoly], ordering: OrderingTag, F: PrimeField
) -> list[MultiPoly]:
    """Minimal, monic, pairwise-reduced version of a Groebner basis."""
    nonzero = [g for g in polys if not g.is_zero()]
    lts = [g.lt(ordering) for g in nonzero]
    keep = []
    for i, g in enumerate(nonzero):
        if any(
            j != i and divides(lts[j], lts[i]) and (lts[j] != lts[i] or j < i)
            for j in range(len(nonzero))
        ):
            continue
        keep.append(g)
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form(g, others, ordering, F)
        if not r.is_zero():
            out.append(mp_monic(r, ordering, F))
    key = term_key(ordering)
    out.sort(key=lambda g: key(g.lt(ordering)))
    return out


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
    reduced: bool = True
    n: int = field(init=False)

    def __post_init__(self):
        if not self.polys:
            raise ValueError("empty basis")
        self.n = self.polys[0].n

    def leading_terms(self) -> list[Term]:
        return [g.lt(self.ordering) for g in self.polys]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroebnerBasis)
            and other.ordering == self.ordering
            and other.polys == self.polys
        )
