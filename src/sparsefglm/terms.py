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
these keys produce ascending term order, and the descending keys put the
largest term first (what a min-heap needs to pop leading terms).
"""

from __future__ import annotations

from operator import add, le, sub
from typing import Literal

Term = tuple[int, ...]
OrderingTag = Literal["drl", "lex"]


def drl_key(t: Term):
    return (sum(t), tuple(-e for e in t))


def lex_key(t: Term):
    return tuple(reversed(t))


def drl_desc_key(t: Term):
    return (-sum(t), t)


def lex_desc_key(t: Term):
    return tuple(-e for e in reversed(t))


def term_key(ordering: OrderingTag):
    if ordering == "drl":
        return drl_key
    if ordering == "lex":
        return lex_key
    raise ValueError(f"unknown term ordering {ordering!r}")


def term_desc_key(ordering: OrderingTag):
    """Key under which ascending sorts give descending term order."""
    if ordering == "drl":
        return drl_desc_key
    if ordering == "lex":
        return lex_desc_key
    raise ValueError(f"unknown term ordering {ordering!r}")


def term_mul(a: Term, b: Term) -> Term:
    return tuple(map(add, a, b))


def term_div(a: Term, b: Term) -> Term:
    """a / b; caller must ensure divisibility."""
    return tuple(map(sub, a, b))


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
