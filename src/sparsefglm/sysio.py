"""Text format for polynomial systems.

    p 11
    vars 3
    # optional comment
    x2^2 + 9*x2 + 2*x1 + 6
    x1^2 + 2*x2 + 9
    x3 + 9

After the `p <modulus>` and `vars <n>` headers, each non-blank line is one
polynomial: terms joined by `+` or `-`, only the first with an optional
leading `-`; a term is factors joined by `*`, each `<digits>`, `x<i>` or
`x<i>^<digits>`, a digit being ASCII 0-9.  Blanks (spaces and tabs) may
sit between tokens; `#` starts a comment.  A line ends at a newline, CRLF
accepted; any other space or line break is a bad character.  Variable
indices run 1..n and coefficients must lie in [0, p).  A `ParseError` gives
the line and the raw-line column of the first offending character; a digit
run longer than `int()` converts is one at its first digit.
"""

from __future__ import annotations

import re

from .field import PrimeField
from .poly import MultiPoly
from .terms import Term, remember


class ParseError(ValueError):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


_SIGN = re.compile(r"[-+]")
# The longest prefix of a factor, with the blanks around it: a coefficient
# (group 1), or x, its index (2), a '^' (3) and the exponent (4).  The
# factor is whole when the last group it matched is 1, 2 or 4; otherwise
# the match ends at the first character that no completion allows.
_FACTOR_PREFIX = re.compile(r"[ \t]*(?:([0-9]+)[ \t]*|x(?:([0-9]+)[ \t]*(?:(\^)[ \t]*(?:([0-9]+)[ \t]*)?)?)?)?")


# (n, monomial text) -> exponents, of the monomials without a coefficient
# factor parsed so far (a `terms` table).  Only `_factors` stores a text, once
# it has read the whole term, so a text found here needs no check.
_MONOMIALS: dict[tuple[int, str], Term] = {}


def _int(m: re.Match, group: int, ln: int) -> int:
    """The digit run m[group], or a ParseError at its first digit when it is
    longer than int() converts (4,300 digits by default)."""
    try:
        return int(m[group])
    except ValueError:
        msg = f"number of {len(m[group])} digits is too long"
        raise ParseError(ln, m.start(group) + 1, msg) from None


def _factors(text: str, pos: int, end: int, ln: int, n: int, p: int) -> tuple[int, Term, int]:
    """The coefficient and exponents of the term text[pos:end], and how many
    coefficient factors it has; a ParseError at the first bad factor or at
    the first character that no completion of the line allows."""
    coef, found, expo = 1, 0, [0] * n
    while True:
        f = _FACTOR_PREFIX.match(text, pos, end)
        num, idx, _, e = f.groups()
        if num is not None and (c := _int(f, 1, ln)) < p:
            coef, found = coef * c % p, found + 1
        elif num is not None:
            raise ParseError(ln, f.start(1) + 1, f"coefficient {c} not reduced mod {p}")
        elif idx is not None and 1 <= (i := _int(f, 2, ln)) <= n:
            expo[i - 1] += _int(f, 4, ln) if e else 1
        elif idx is not None:
            raise ParseError(ln, f.start(2), f"variable x{idx} out of range (vars = {n})")  # at the x
        pos = f.end()
        if f.lastindex not in (1, 2, 4) or pos < end and text[pos] != "*":
            msg = f"unexpected {text[pos]!r}" if pos < len(text) else "unexpected end of line"
            raise ParseError(ln, min(pos, len(text.rstrip(" \t"))) + 1, msg)
        if pos == end:
            return coef, tuple(expo), found
        pos += 1


def _parse_poly(text: str, ln: int, n: int, F: PrimeField) -> MultiPoly:
    # each piece between signs is one term, but for the blank before a leading
    # '-'.  A term's exponents are looked up by its monomial text, the term
    # after a leading coefficient (ASCII digits before a '*'); a miss, or a
    # coefficient not reduced mod p, reads the term with `_factors`
    p = F.p
    coeffs: dict[Term, int] = {}
    start = 0
    for term in _SIGN.split(text):
        end = start + len(term)
        if start or term.strip(" \t") or text[end:end + 1] != "-":
            head, star, mono = term.partition("*")
            digits = head.strip(" \t")
            lead = 1 if star and digits.isascii() and digits.isdigit() else 0
            try:
                coef = int(digits) if lead else 1
            except ValueError:  # too long for int(): `_factors` names its column
                coef = p
            expo = _MONOMIALS.get((n, mono if lead else term)) if coef < p else None
            if expo is None:
                coef, expo, found = _factors(text, start, end, ln, n, p)
                if found == lead:  # no coefficient inside the monomial
                    remember(_MONOMIALS, (n, mono if lead else term), expo)
            if start and text[start - 1] == "-":
                coef = -coef
            v = (coeffs.get(expo, 0) + coef) % p
            if v:
                coeffs[expo] = v
            else:
                coeffs.pop(expo, None)
        start = end + 1
    return MultiPoly(n, coeffs)


def parse_system(text: str) -> tuple[PrimeField, list[MultiPoly]]:
    field: PrimeField | None = None
    n: int | None = None
    polys: list[MultiPoly] = []
    for ln, raw in enumerate(re.split(r"\r?\n", text), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip(" \t"):
            continue
        if field is None or n is None:
            key, what = ("p", "modulus") if field is None else ("vars", "count")
            m = re.fullmatch(rf"[ \t]*{key}[ \t]+([0-9]+)[ \t]*", line)
            if m is None:
                col = len(line) - len(line.lstrip(" \t")) + 1
                raise ParseError(ln, col, f"expected header '{key} <{what}>'")
            value, col = _int(m, 1, ln), m.start(1) + 1
            if field is None:
                try:
                    field = PrimeField(value)
                except ValueError as exc:
                    raise ParseError(ln, col, str(exc)) from None
            elif value < 1:
                raise ParseError(ln, col, "need at least one variable")
            else:
                n = value
            continue
        polys.append(_parse_poly(line, ln, n, field))
    if field is None or n is None:
        raise ParseError(1, 1, "missing 'p'/'vars' headers")
    if not polys:
        raise ParseError(1, 1, "system contains no polynomials")
    return field, polys


def poly_str(f: MultiPoly) -> str:
    """f with its terms in descending DRL order (the same text as repr(f))."""
    return repr(f)


def write_system(F: PrimeField, polys: list[MultiPoly]) -> str:
    if not polys:
        raise ValueError("system contains no polynomials")
    lines = [f"p {F.p}", f"vars {polys[0].n}"]
    lines.extend(poly_str(f) for f in polys)
    return "\n".join(lines) + "\n"
