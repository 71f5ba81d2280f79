"""Text format for polynomial systems.

    p 11
    vars 3
    # optional comment
    x2^2 + 9*x2 + 2*x1 + 6
    x1^2 + 2*x2 + 9
    x3 + 9

Monomials are `c*x<i>^<e>` products joined by `+`/`-`; whitespace is
insignificant; `#` starts a comment.  Coefficients must already lie in
[0, p).
"""

from __future__ import annotations

import re

from .field import PrimeField
from .poly import MultiPoly


class ParseError(ValueError):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<var>x\d+)|(?P<op>[-+*^]))")


def _tokenize(text: str, ln: int):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if stripped >= len(text):
                break
            raise ParseError(ln, stripped + 1, f"unexpected character {text[stripped]!r}")
        col = m.start(m.lastgroup) + 1
        out.append((m.lastgroup, m.group(m.lastgroup), col))
        pos = m.end()
    return out


def _parse_poly(text: str, ln: int, n: int, F: PrimeField) -> MultiPoly:
    toks = _tokenize(text, ln)
    if not toks:
        raise ParseError(ln, 1, "empty polynomial")
    coeffs: dict[tuple, int] = {}
    i = 0
    sign = 1
    first = True
    while i < len(toks):
        kind, val, col = toks[i]
        if kind == "op" and val in "+-":
            if first and val == "-":
                sign = -1
                i += 1
            elif not first:
                sign = 1 if val == "+" else -1
                i += 1
            else:
                raise ParseError(ln, col, "polynomial cannot start with '+'")
            if i >= len(toks):
                raise ParseError(ln, col, "dangling sign")
        first = False
        # one monomial: factors joined by '*'
        coef = 1
        expo = [0] * n
        expect_factor = True
        while i < len(toks):
            kind, val, col = toks[i]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                if expect_factor:
                    raise ParseError(ln, col, "misplaced '*'")
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise ParseError(ln, col, f"expected '*', '+' or '-' before {val!r}")
            if kind == "num":
                c = int(val)
                if c >= F.p:
                    raise ParseError(ln, col, f"coefficient {c} not reduced mod {F.p}")
                coef = coef * c % F.p
                i += 1
            elif kind == "var":
                idx = int(val[1:])
                if not 1 <= idx <= n:
                    raise ParseError(ln, col, f"variable {val} out of range (vars = {n})")
                e = 1
                if i + 1 < len(toks) and toks[i + 1][:2] == ("op", "^"):
                    if i + 2 >= len(toks) or toks[i + 2][0] != "num":
                        raise ParseError(ln, toks[i + 1][2], "'^' needs an integer exponent")
                    e = int(toks[i + 2][1])
                    i += 3
                else:
                    i += 1
                expo[idx - 1] += e
            else:
                raise ParseError(ln, col, f"unexpected {val!r}")
            expect_factor = False
        if expect_factor:
            raise ParseError(ln, toks[-1][2], "dangling '*'")
        t = tuple(expo)
        v = (coeffs.get(t, 0) + sign * coef) % F.p
        if v:
            coeffs[t] = v
        else:
            coeffs.pop(t, None)
    return MultiPoly(n, coeffs)


def parse_system(text: str) -> tuple[PrimeField, list[MultiPoly]]:
    field: PrimeField | None = None
    n: int | None = None
    polys: list[MultiPoly] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if field is None:
            m = re.fullmatch(r"p\s+(\d+)", line)
            if m is None:
                raise ParseError(ln, 1, "expected header 'p <modulus>'")
            try:
                field = PrimeField(int(m.group(1)))
            except ValueError as exc:
                raise ParseError(ln, 3, str(exc)) from None
            continue
        if n is None:
            m = re.fullmatch(r"vars\s+(\d+)", line)
            if m is None:
                raise ParseError(ln, 1, "expected header 'vars <count>'")
            n = int(m.group(1))
            if n < 1:
                raise ParseError(ln, 6, "need at least one variable")
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
