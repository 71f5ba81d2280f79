"""Shared systems used across the suite.

Two tiny worked systems (GF(11) in shape position, GF(2) not in shape
position), a 12-dimensional bivariate ideal for the array-sweep tests, and
the monomial ideal the sweep is expected to decline; and reference oracles
that tests compare the library against.
"""

import bisect
import heapq
import importlib
import math
import re
from operator import itemgetter, mul, sub

import pytest

from sparsefglm import shape
from sparsefglm.buchberger import buchberger
from sparsefglm.field import PrimeField
from sparsefglm.linrec import berlekamp_massey, hankel_solve
from sparsefglm.poly import (
    GroebnerBasis,
    MultiPoly,
    Row,
    make_row,
    normal_form,
    reduce_rows,
    reducer_row,
    row_poly,
)
from sparsefglm.quotient import CoordVector, QuotientStructure
from sparsefglm.sysio import ParseError, parse_system, poly_str
from sparsefglm.terms import (
    OrderingTag,
    Term,
    TermCodec,
    divides,
    term_codec,
    term_key,
    term_mul,
    unit_term,
    var_term,
)
from sparsefglm.unipoly import UniPoly, deg, trim

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


def reference_nf_term(Q: QuotientStructure, t: Term) -> CoordVector:
    """Coordinate vector of NF(x^t) by direct reduction against the basis."""
    f = normal_form(MultiPoly(Q.n, {t: 1}), Q.G1.polys, "drl", Q.F)
    v = [0] * Q.D
    for s, c in f.coeffs.items():
        v[Q.index[s]] = c
    return v


def reference_matrix(Q: QuotientStructure, j: int) -> list[CoordVector]:
    """Reference oracle for T_j, dense and column by column: column c is
    NF(b_c * x_j) by direct reduction, b_c the c-th staircase term.  It
    shares neither the cascade nor the packed layout of `Q.matrix(j)`."""
    xj = var_term(Q.n, j)
    return [reference_nf_term(Q, term_mul(b, xj)) for b in Q.basis]


def reference_apply(M: list[CoordVector], v: CoordVector, p: int) -> CoordVector:
    """Reference oracle for `quotient.apply` on the columns M of
    `reference_matrix`: the schoolbook loop over each column's nonzero
    (row, a) entries that the packed columns replaced."""
    out = [0] * len(M)
    for col, vc in enumerate(v):
        if vc:
            for row, a in enumerate(M[col]):
                if a:
                    out[row] = (out[row] + a * vc) % p
    return out


def reference_classic_fglm(Q: QuotientStructure, target: OrderingTag) -> GroebnerBasis:
    """Reference oracle for `classic_fglm`, the unpacked version it replaced,
    on `reference_matrix` and `reference_apply` rather than Q's matrices.

    Reduced Groebner basis w.r.t. target by enumerating terms ascending.

    Maintains an echelon form of the coordinate vectors of the standard
    monomials seen so far; a dependency yields a basis polynomial whose
    leading term is the current term.  O(D^2) per inserted vector.
    """
    F = Q.F
    p = F.p
    n = Q.n
    key = term_key(target)
    mats = [None] + [reference_matrix(Q, j) for j in range(1, n + 1)]

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
        v = list(Q.e()) if parent is None else reference_apply(mats[j], raw_vec[parent], p)
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
    return GroebnerBasis(out, target)


# Reference oracle for `sysio._parse_poly`: the per-token tokenizer and
# flag-driven parser it replaced, verbatim.  It takes the line with its
# comment and blanks already stripped, and reports some errors at other
# columns, but accepts the same lines and builds the same polynomials.
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

# Reference oracles for the packed univariate arithmetic: the schoolbook
# `uni_mul`, `uni_divmod` and `linrec._numerator` it replaced, verbatim.
def reference_uni_mul(f: UniPoly, g: UniPoly, F: PrimeField) -> UniPoly:
    if not f or not g:
        return []
    if len(f) > len(g):
        f, g = g, f
    m = len(g)
    # one shifted row of g per coefficient of the shorter f, reduced once
    out = [0] * (len(f) + m - 1)
    for i, a in enumerate(f):
        if a:
            out[i : i + m] = [c + a * b for c, b in zip(out[i : i + m], g)]
    return trim([c % F.p for c in out])


def reference_uni_divmod(f: UniPoly, g: UniPoly, F: PrimeField) -> tuple[UniPoly, UniPoly]:
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    p = F.p
    n = len(g) - 1
    r = list(f)
    q = [0] * (len(f) - n)  # empty when deg f < deg g
    inv = F.inv(g[-1])
    # the steps leave r unreduced; only the remainder is reduced, once per
    # coefficient, at the end
    for i in range(len(q) - 1, -1, -1):
        c = r[i + n] * inv % p
        if c:
            q[i] = c
            r[i : i + n] = [a - c * b for a, b in zip(r[i : i + n], g)]
    return trim(q), trim([a % p for a in r[:n]])


def reference_numerator(f: UniPoly, s: list[int], p: int) -> UniPoly:
    """N with sum_j s_j x^(-j-1) = N / f, from the first deg(f) terms of s."""
    return trim([sum(map(mul, f[k + 1 :], s)) % p for k in range(deg(f))])


def prefix_fit(s: list[int], d: int, F: PrimeField) -> tuple[UniPoly, UniPoly]:
    """The Berlekamp-Massey fit of s[:2d], zero-padded to 2d terms: the fit
    `hankel_solve` takes for the d x d Hankel matrix H[j][k] = s[j+k]."""
    head = s[: 2 * d]
    return berlekamp_massey(head + [0] * (2 * d - len(head)), F)


def record_shape(monkeypatch) -> dict[str, list]:
    """Wrap the shape globals the benchmark's tracer wraps and record, in
    call order, what they see: "bm" gets (s, fit) per Berlekamp-Massey run,
    "hankel" (fit, rhs, c) per Hankel solve and "poly" (step, v, result)
    per matrix_poly_apply."""
    rec = {"bm": [], "hankel": [], "poly": []}
    bm, solve, poly_apply = shape.berlekamp_massey, shape.hankel_solve, shape.matrix_poly_apply

    def fitted(s, F):
        fit = bm(s, F)
        rec["bm"].append((list(s), fit))
        return fit

    def solved(fit, rhs, F):
        c = solve(fit, rhs, F)
        rec["hankel"].append((fit, rhs, c))
        return c

    def applied(g, step, T, v, F):
        out = poly_apply(g, step, T, v, F)
        rec["poly"].append((step, v, out))
        return out

    monkeypatch.setattr(shape, "berlekamp_massey", fitted)
    monkeypatch.setattr(shape, "hankel_solve", solved)
    monkeypatch.setattr(shape, "matrix_poly_apply", applied)
    return rec


def record_buchberger(monkeypatch) -> dict[str, int]:
    """Wrap `buchberger`'s `_PackedRows.normal_form` and count, over every
    run until undone: "zero" S-pair reductions to zero, "new" S-pair
    reductions to a new row, "final" normal forms of the final pass (one
    per minimal leading term) and "generators" reductions of a generator by
    the rows before it.  S-pair reductions are the ones bounded by a
    signature."""
    rec = dict.fromkeys(("zero", "new", "final", "generators"), 0)
    rows = importlib.import_module("sparsefglm.buchberger")._PackedRows
    normal_form = rows.normal_form

    def counted(self, m, parts, sig=math.inf):
        out = normal_form(self, m, parts, sig)
        if len(parts) == 1:
            rec["final"] += 1
        elif sig == math.inf:
            rec["generators"] += 1
        else:
            rec["new" if out else "zero"] += 1
        return out

    monkeypatch.setattr(rows, "normal_form", counted)
    return rec


def shape_factors(rec: dict[str, list]) -> list[tuple[UniPoly, list[list[int]]]]:
    """(g, tails) for each recorded Krylov fit (g, N_s^-1) of positive
    degree, in peeling order, with the tails solved on that fit: on a
    shape_det call that succeeds, its factors and their tails."""
    return [
        (fit[0], [c for h, _, c in rec["hankel"] if h is fit])
        for _, fit in rec["bm"]
        if deg(fit[0]) > 0
    ]


def _packed_divides(codec: TermCodec, a: int, b: int) -> bool:
    """Whether packed term a divides packed term b (see `terms.TermCodec`)."""
    return (b - a + codec.lift) & codec.guard == codec.mark


# Interreduction for `reference_buchberger`: each kept row is reduced by
# every other kept row in its unreduced form.
def reference_interreduce_rows(rows: list[Row], codec: TermCodec, p: int) -> list[Row]:
    """Rows of the minimal, monic, pairwise-reduced basis, by ascending
    leading term; of several equal leading terms the first row is kept."""
    lts = [lt for lt, _ in rows]
    keep = sorted(
        (
            row
            for i, row in enumerate(rows)
            if not any(
                j != i and _packed_divides(codec, lt, lts[i]) and (lt != lts[i] or j < i)
                for j, lt in enumerate(lts)
            )
        ),
        key=itemgetter(0),
    )
    out = []
    for i, (lt, tail) in enumerate(keep):
        # the leading term is divisible by no other, so only the tail reduces
        rest = reduce_rows({lt + d: p - m for d, m in tail}, keep[:i] + keep[i + 1 :], codec, p)
        out.append((lt, [(u - lt, p - c) for u, c in rest.items()]))
    return out


# Reference oracle for `buchberger`: the version that reduced every
# S-polynomial with the heap loop `poly.reduce_rows`, its interreduction
# replaced by `reference_interreduce_rows`.
def _lcm(a: Term, b: Term) -> Term:
    return tuple(map(max, a, b))


def _coprime(a: Term, b: Term) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _spoly(f: Row, g: Row, m: int, codec: TermCodec, p: int) -> dict[int, int]:
    """The packed S-polynomial of two monic rows whose leading terms have the
    packed lcm m: the term at m cancels, and a tail entry (delta, c) of a row
    lands at m + delta."""
    out = {codec.check(m + d): p - c for d, c in f[1]}
    for d, c in g[1]:
        u = codec.check(m + d)
        v = (out.get(u, 0) + c) % p
        if v:
            out[u] = v
        else:
            out.pop(u, None)
    return out


def reference_buchberger(polys: list[MultiPoly], ordering: OrderingTag, F: PrimeField) -> GroebnerBasis:
    """Reduced Groebner basis via S-polynomials.

    Pairs are pruned with the product criterion (coprime leading terms) and
    the chain criterion; pairs are handled smallest-lcm first.  The working
    basis is kept as monic packed rows (see `poly`) from the first reduction
    to the final interreduction; only the result is built as MultiPolys.
    """
    G = [g for g in polys if not g.is_zero()]
    if not G:
        raise ValueError("empty generating set")
    codec = term_codec(G[0].n, ordering)
    p = F.p
    rows = [reducer_row(g, ordering, F) for g in G]
    lts = [codec.unpack(lt) for lt, _ in rows]
    # the reducers by ascending leading term, equal ones in basis order
    table = sorted(rows, key=itemgetter(0))
    # pending pairs: the set answers the chain criterion's membership test,
    # the heap pops them smallest-lcm first, keyed once when each is made
    pairs: set[tuple[int, int]] = set()
    queue: list[tuple[int, int, int]] = []

    def add_pair(i: int, j: int) -> None:
        pairs.add((i, j))
        heapq.heappush(queue, (codec.pack(_lcm(lts[i], lts[j])), i, j))

    for j in range(len(rows)):
        for i in range(j):
            add_pair(i, j)

    def chain_prunable(i: int, j: int, m: int) -> bool:
        for k, (lk, _) in enumerate(rows):
            if k in (i, j):
                continue
            if _packed_divides(codec, lk, m):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pairs and b not in pairs:
                    return True
        return False

    while queue:
        m, i, j = heapq.heappop(queue)
        pairs.discard((i, j))
        if _coprime(lts[i], lts[j]):
            continue
        if chain_prunable(i, j, m):
            continue
        r = reduce_rows(_spoly(rows[i], rows[j], m, codec, p), table, codec, p)
        if not r:
            continue
        row = make_row(r, F)
        rows.append(row)
        lts.append(codec.unpack(row[0]))
        bisect.insort(table, row, key=itemgetter(0))
        k = len(rows) - 1
        for i2 in range(k):
            add_pair(i2, k)
    basis = [row_poly(row, codec, F) for row in reference_interreduce_rows(rows, codec, p)]
    return GroebnerBasis(basis, ordering)


# The rank of a matrix over GF(p) by Gauss-Jordan elimination; the
# reference oracle of c07's Hankel rank certificates.
def rank_mod_p(rows: list[list[int]], F: PrimeField) -> int:
    p = F.p
    M = [[a % p for a in row] for row in rows]
    rank = 0
    ncols = len(M[0]) if M else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(M)) if M[r][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = F.inv(M[rank][col])
        M[rank] = [a * inv % p for a in M[rank]]
        for r in range(len(M)):
            if r != rank and M[r][col]:
                c = M[r][col]
                M[r] = [(a - c * b) % p for a, b in zip(M[r], M[rank])]
        rank += 1
    return rank


def noncommuting_units(Q: QuotientStructure) -> list[int]:
    """Indices i of the bivariate Q with T_1 T_2 e_i != T_2 T_1 e_i, on
    `reference_matrix` and `reference_apply`."""
    T1, T2 = reference_matrix(Q, 1), reference_matrix(Q, 2)
    p = Q.F.p
    bad = []
    for i in range(Q.D):
        e = [int(k == i) for k in range(Q.D)]
        if reference_apply(T1, reference_apply(T2, e, p), p) != reference_apply(
            T2, reference_apply(T1, e, p), p
        ):
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
    return QuotientStructure(GroebnerBasis(gens, "drl"), F)
