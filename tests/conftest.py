"""Shared systems used across the suite.

Two tiny worked systems (GF(11) in shape position, GF(2) not in shape
position), a 12-dimensional bivariate ideal for the array-sweep tests, and
the monomial ideal the sweep is expected to decline.
"""

import pytest

from sparsefglm.buchberger import buchberger
from sparsefglm.field import PrimeField
from sparsefglm.poly import GroebnerBasis, MultiPoly
from sparsefglm.quotient import QuotientStructure, apply
from sparsefglm.sysio import parse_system, poly_str
from operator import sub

from sparsefglm.terms import divides, term_key, term_mul

GF11_TEXT = """\
p 11
vars 3
x2^2 + 9*x2 + 2*x1 + 6
x1^2 + 2*x2 + 9
x3 + 9
"""

GF2_TEXT = """\
p 2
vars 2
x1^3*x2 + x1^3 + x1 + 1
x1^4 + x1^3 + x2 + 1
x2^2 + x1^2
"""

# lex basis the 12-dimensional sweep is expected to return; its leading terms
# x1^4 and x2^3 are coprime, so it is a Groebner basis and D = 4 * 3 = 12
LEX12_TEXT = """\
p 65521
vars 2
x1^4 + 15*x1^2 + 19*x1 + 3
x2^3 + 7*x1^2*x2^2 + 15*x1^2*x2 + 2*x1^3 + 9
"""

# probe vector for the 12-dimensional sweep example
PROBE12 = [6757, 43420, 39830, 45356, 52762, 17712, 27676, 17194, 138, 48036, 12649, 11037]


def quotient_from_text(text: str) -> QuotientStructure:
    F, polys = parse_system(text)
    return QuotientStructure(buchberger(polys, "drl", F), F)


def basis_strs(polys) -> list[str]:
    if isinstance(polys, GroebnerBasis):
        polys = polys.polys
    return [poly_str(f) for f in polys]


def normal_form_linear_scan(f, reducers, ordering, F):
    """Reference oracle for `normal_form`, on exponent tuples: the leading
    term of what is left is found by a linear scan on every step, with the
    same smallest-leading-term rule."""
    key = term_key(ordering)
    table = sorted(
        ((g.lt(ordering), g.lc(ordering), g) for g in reducers if not g.is_zero()),
        key=lambda row: key(row[0]),
    )
    work = dict(f.coeffs)
    out = {}
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        for lt_g, lc_g, g in table:
            if divides(lt_g, t):
                shift = tuple(map(sub, t, lt_g))
                scale = c * F.inv(lc_g) % F.p
                for s, a in g.coeffs.items():
                    if s == lt_g:
                        continue
                    u = term_mul(s, shift)
                    v = (work.get(u, 0) - scale * a) % F.p
                    if v:
                        work[u] = v
                    else:
                        work.pop(u, None)
                break
        else:
            out[t] = c
    return MultiPoly(f.n, out)


def noncommuting_units(Q: QuotientStructure) -> list[int]:
    """Indices i of the bivariate Q with T_1 T_2 e_i != T_2 T_1 e_i."""
    T1, T2 = Q.matrix(1), Q.matrix(2)
    bad = []
    for i in range(Q.D):
        e = [int(k == i) for k in range(Q.D)]
        if apply(T1, apply(T2, e)) != apply(T2, apply(T1, e)):
            bad.append(i)
    return bad


@pytest.fixture(scope="session")
def gf11() -> QuotientStructure:
    return quotient_from_text(GF11_TEXT)


@pytest.fixture(scope="session")
def gf2q() -> QuotientStructure:
    return quotient_from_text(GF2_TEXT)


@pytest.fixture(scope="session")
def trusted12() -> QuotientStructure:
    """Bivariate D = 12 structure over GF(65521): the reduced DRL basis of
    the ideal generated by the lex basis in LEX12_TEXT, the basis the array
    sweep is expected to return on it."""
    return quotient_from_text(LEX12_TEXT)


@pytest.fixture(scope="session")
def monomial6() -> QuotientStructure:
    """<x1^3, x1^2*x2, x1*x2^2, x2^3> over GF(65521); D = 6, not cyclic."""
    F = PrimeField(65521)
    gens = [
        MultiPoly(2, {(3, 0): 1}),
        MultiPoly(2, {(2, 1): 1}),
        MultiPoly(2, {(1, 2): 1}),
        MultiPoly(2, {(0, 3): 1}),
    ]
    return QuotientStructure(GroebnerBasis(gens, "drl", reduced=True), F)
