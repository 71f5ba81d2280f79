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

Sort keys are exposed instead of comparator objects; ascending sorts with
these keys produce ascending term order.

Inside the reduction layers (`poly.normal_form`, `buchberger`) a term is
one int instead, packed by the `TermCodec` of its (n, ordering): the ints
compare as the terms do, a product of terms is an int addition, and
divisibility is one mask test.  `buchberger` also numbers the packed DRL
terms of low degree by their place in the order, so that a polynomial can
be one int with a field per rank.  Exponent tuples stay the format of
every public interface.
"""

from __future__ import annotations

import struct
from functools import cache
from operator import add, le
from typing import Literal

Term = tuple[int, ...]
OrderingTag = Literal["drl", "lex"]


def drl_key(t: Term):
    return (sum(t), tuple(-e for e in t))


def lex_key(t: Term):
    return tuple(reversed(t))


def term_key(ordering: OrderingTag):
    if ordering == "drl":
        return drl_key
    if ordering == "lex":
        return lex_key
    raise ValueError(f"unknown term ordering {ordering!r}")


def term_mul(a: Term, b: Term) -> Term:
    return tuple(map(add, a, b))


def divides(a: Term, b: Term) -> bool:
    """Does x^a divide x^b?"""
    return all(map(le, a, b))


def unit_term(n: int) -> Term:
    return (0,) * n


def var_term(n: int, i: int) -> Term:
    """The term x_i (1-based variable index)."""
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def term_str(t: Term) -> str:
    if not any(t):
        return "1"
    parts = []
    for i, e in enumerate(t):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


# largest exponent (DRL: total degree) a field holds: fields are unsigned
# 16-bit struct fields whose top bit is the guard
MAX_EXP = 0x7FFF


class TermCodec:
    """Packs the terms in n variables into ints ordered as the terms are.

    Every field is 16 bits wide, and its top bit is a guard that each valid
    encoding keeps clear.  DRL puts the total degree in the most
    significant field, then MAX_EXP - e_i for x1, ..., xn (a larger exponent
    on an earlier variable makes the term smaller); LEX puts e_n in the most
    significant field down to e_1 in the least.  Hence:

    * pack(a) < pack(b) iff a < b in the ordering;
    * pack(a * b) = pack(a) + pack(b) - offset, where offset holds MAX_EXP
      in every variable field for DRL and is 0 for LEX;
    * a divides b iff (pack(b) - pack(a) + lift) & guard == mark, with
      (lift, mark) = (offset, 0) for DRL and (guard, guard) for LEX; the
      packed quotient is then pack(b) - pack(a) + offset;
    * an exponent that leaves its field (DRL: a total degree) in a product
      sets a guard bit, so `check` catches it instead of letting it wrap.

    MAX_EXP is all ones, so MAX_EXP - e = MAX_EXP ^ e and a DRL term is its
    exponent fields XOR offset: both directions are one struct call.
    """

    __slots__ = ("n", "ordering", "guard", "offset", "lift", "mark", "_fields")

    def __init__(self, n: int, ordering: OrderingTag):
        term_key(ordering)  # validates the tag
        self.n = n
        self.ordering = ordering
        drl = ordering == "drl"
        self._fields = struct.Struct(("<>"[drl]) + "H" * (n + drl))
        self.guard = int.from_bytes(b"\x80\x00" * (n + drl), "big")
        if drl:
            self.offset = int.from_bytes(b"\x7f\xff" * n, "big")
            self.lift, self.mark = self.offset, 0
        else:
            self.offset = 0
            self.lift = self.mark = self.guard

    def pack(self, t: Term) -> int:
        try:
            if self.offset:
                x = int.from_bytes(self._fields.pack(sum(t), *t), "big") ^ self.offset
            else:
                x = int.from_bytes(self._fields.pack(*t), "little")
        except struct.error as exc:  # not n exponents in 0..65535
            raise ValueError(f"term {t} does not fit {self.n} packed fields") from exc
        return self.check(x)

    def unpack(self, x: int) -> Term:
        if self.offset:
            return self._fields.unpack((x ^ self.offset).to_bytes(self._fields.size, "big"))[1:]
        return self._fields.unpack(x.to_bytes(self._fields.size, "little"))

    def check(self, x: int) -> int:
        """x, a packed term or product, unless an exponent overflowed it."""
        if x & self.guard:
            raise ValueError(f"exponent past MAX_EXP = {MAX_EXP} in a packed term")
        return x


@cache
def term_codec(n: int, ordering: OrderingTag) -> TermCodec:
    return TermCodec(n, ordering)
