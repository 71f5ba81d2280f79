"""Terms (monomials) and the two term orderings used throughout.

A term in n variables x1 < x2 < ... < xn is an exponent tuple
(e1, ..., en).  Both orderings refine total degree or variable order the
usual way:

* DRL (degree reverse lexicographic): compare total degree first, then
  reverse-compare exponents; among terms of equal degree the one with the
  larger exponent on the *earlier* variable is smaller.  E.g. for n = 2:
  1 < x1 < x2 < x1^2 < x1*x2 < x2^2 < ...
* LEX (lexicographic): compare the exponent of xn first, then x(n-1), ...
  Every power of x1 is below x2, so for n = 2:
  1 < x1 < x1^2 < ... < x2 < x1*x2 < ...

`TermCodec` is the one definition of both orders: the `TermCodec` of
(n, ordering) packs a term into an int that compares as the term does, so
a leading term is the max of the packed terms (`MultiPoly.lt`).  Inside
the reduction layers (`poly.normal_form`, `buchberger`, the BMS sweep),
the quotient (`QuotientStructure`'s index, row maps and `term_vec`
cascade) and `fglm.classic_fglm`'s term walk a term is one such int: a
product of terms is an int addition, and divisibility is one mask test.
`buchberger` also numbers the packed DRL terms of low degree by their
place in the order, so that a polynomial can be one int with a field per
rank.  Exponent tuples stay the format of every public interface.

Terms repeat from one system to the next, so the conversions at the
pipeline's edges are table lookups: each codec keeps its packings and
unpackings, `term_str` its texts, and `sysio` the exponents of each
monomial text.  A table starts empty and stores each miss until it holds
TABLE_CAP entries; a full one keeps what it holds, so past the cap a
miss costs one failed lookup and nothing is evicted.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Collection, Iterator
from functools import cache
from typing import Literal

Term = tuple[int, ...]
OrderingTag = Literal["drl", "lex"]


def unit_term(n: int) -> Term:
    return (0,) * n


def var_term(n: int, i: int) -> Term:
    """The term x_i (1-based variable index)."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range")
    return tuple(1 if k == i - 1 else 0 for k in range(n))


# the most entries one term table keeps
TABLE_CAP = 1 << 12


def remember(table: dict, key, value):
    """Store value at key in a term table unless it is full; return value."""
    if len(table) < TABLE_CAP:
        table[key] = value
    return value


# term -> text, for terms in any number of variables
_TEXTS: dict[Term, str] = {}


def term_str(t: Term) -> str:
    s = _TEXTS.get(t)
    if s is None:
        parts = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(t, 1) if e]
        s = remember(_TEXTS, t, "*".join(parts) or "1")
    return s


# largest exponent (DRL: total degree) a field holds: fields are unsigned
# 16-bit struct fields whose top bit is the guard
MAX_EXP = 0x7FFF


class TermCodec:
    """Packs the terms in n variables into ints ordered as the terms are.

    Every field is `bits` = 16 bits wide, and its top bit is a guard that
    each valid encoding keeps clear.  DRL puts the total degree in the most
    significant field, then MAX_EXP - e_i for x1, ..., xn (a larger exponent
    on an earlier variable makes the term smaller); LEX puts e_n in the most
    significant field down to e_1 in the least.  Hence:

    * pack(a) < pack(b) iff a < b in the ordering;
    * pack(a * b) = pack(a) + pack(b) - offset, where offset holds MAX_EXP
      in every variable field for DRL and is 0 for LEX, so x_i's product is
      one addition of steps[i - 1];
    * a divides b iff (pack(b) - pack(a) + lift) & guard == mark, with
      (lift, mark) = (offset, 0) for DRL and (guard, guard) for LEX; the
      packed quotient is then pack(b) - pack(a) + offset;
    * an exponent that leaves its field (DRL: a total degree) in a product
      sets a guard bit, so `check` catches it instead of letting it wrap.

    MAX_EXP is all ones, so MAX_EXP - e = MAX_EXP ^ e and a DRL term is its
    exponent fields XOR offset: both directions are one struct call, made
    once for each term that the codec's tables hold.
    """

    __slots__ = ("n", "ordering", "guard", "offset", "lift", "mark", "steps",
                 "_fields", "_packed", "_unpacked")
    bits = 16

    def __init__(self, n: int, ordering: OrderingTag):
        if ordering not in ("drl", "lex"):
            raise ValueError(f"unknown term ordering {ordering!r}")
        self.n, self.ordering = n, ordering
        drl = ordering == "drl"
        self._fields = struct.Struct(("<>"[drl]) + "H" * (n + drl))
        self.guard = int.from_bytes(b"\x80\x00" * (n + drl), "big")
        if drl:
            self.offset = int.from_bytes(b"\x7f\xff" * n, "big")
            self.lift, self.mark = self.offset, 0
        else:
            self.offset = 0
            self.lift = self.mark = self.guard
        # exponents -> packed term and back, of the terms converted so far
        self._packed: dict[Term, int] = {}
        self._unpacked: dict[int, Term] = {}
        self.steps = [self.pack(var_term(n, i)) - self.offset for i in range(1, n + 1)]

    def pack(self, t: Term) -> int:
        x = self._packed.get(t)
        if x is None:
            try:
                if self.offset:
                    x = int.from_bytes(self._fields.pack(sum(t), *t), "big") ^ self.offset
                else:
                    x = int.from_bytes(self._fields.pack(*t), "little")
            except struct.error as exc:  # not n exponents in 0..65535
                raise ValueError(f"term {t} does not fit {self.n} packed fields") from exc
            x = remember(self._packed, t, self.check(x))
        return x

    def pack_all(self, terms: Collection[Term]) -> list[int]:
        """The packed terms, in one table lookup each once all are held."""
        xs = list(map(self._packed.get, terms))
        return list(map(self.pack, terms)) if None in xs else xs

    def unpack(self, x: int) -> Term:
        t = self._unpacked.get(x)
        if t is None:
            if self.offset:
                t = self._fields.unpack((x ^ self.offset).to_bytes(self._fields.size, "big"))[1:]
            else:
                t = self._fields.unpack(x.to_bytes(self._fields.size, "little"))
            remember(self._unpacked, x, t)
        return t

    def check(self, x: int) -> int:
        """x, a packed term or product, unless an exponent overflowed it."""
        if x & self.guard:
            raise ValueError(f"exponent past MAX_EXP = {MAX_EXP} in a packed term")
        return x


@cache
def term_codec(n: int, ordering: OrderingTag) -> TermCodec:
    return TermCodec(n, ordering)


def drl_fronts(n: int, keep: Callable[[list[int]], list[int]] = list) -> Iterator[list[int]]:
    """The packed DRL terms in n variables degree by degree from 1 up, each
    degree's ascending: keep(front) of the products x_i t of the last
    degree's terms, until one is empty.  The caller stops the default walk
    before a degree past MAX_EXP."""
    codec = term_codec(n, "drl")
    front = [codec.pack(unit_term(n))]
    while front := keep(front):
        yield front
        front = sorted({t + s for t in front for s in codec.steps})
