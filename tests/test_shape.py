import random

from sparsefglm.buchberger import buchberger, gen_random_system
from sparsefglm.fglm import classic_fglm
from sparsefglm.field import PrimeField
from sparsefglm import linrec, shape, unipoly
from sparsefglm.linrec import HankelSystem, berlekamp_massey, hankel_solve
from sparsefglm.poly import Fail, normal_form
from sparsefglm.quotient import QuotientStructure, apply, apply_transpose
from sparsefglm.shape import (
    ShapeBasis,
    WiedemannTrace,
    incremental_univariate,
    matrix_poly_apply,
    shape_det,
    shape_prob,
)
from sparsefglm.unipoly import squarefree_part, trim, uni_crt, uni_mod

from conftest import basis_strs


def test_shape_basis_container():
    sb = ShapeBasis([9, 8, 0, 0, 1], [[1, 0, 5, 0], [2, 0, 0, 0]])
    assert sb.n == 3
    assert sb.tails == [[1, 0, 5], [2]]
    assert sb == ShapeBasis([9, 8, 0, 0, 1], [[1, 0, 5], [2]])
    assert sb != ShapeBasis([9, 8, 0, 0, 1], [[1, 0, 5], [3]])
    assert "f1=" in repr(sb)


def test_shape_prob_gf11_pinned_probe(gf11):
    sb = shape_prob(gf11, seed=0, probe=[8, 4, 8, 6])
    assert not isinstance(sb, Fail)
    assert sb.f1 == [9, 8, 0, 0, 1]
    assert sb.tails == [[1, 0, 5], [2]]
    assert basis_strs(sb.to_polys(gf11.F)) == [
        "x1^4 + 8*x1 + 9",
        "6*x1^2 + x2 + 10",
        "x3 + 9",
    ]
    gb = sb.to_groebner(gf11.F)
    assert gb.ordering == "lex"


def test_shape_prob_gf11_random_probe_agrees(gf11):
    pinned = shape_prob(gf11, seed=0, probe=[8, 4, 8, 6])
    got = shape_prob(gf11, seed=1)
    assert got == pinned


def test_shape_prob_gf2_probes_see_proper_factors(gf2q):
    # over GF(2) no probe is safe: these two reach degrees 5 and 4, both
    # proper divisors of the degree-7 minimal polynomial
    res = shape_prob(gf2q, seed=0, probe=[1, 1, 0, 1, 0, 1, 0])
    assert isinstance(res, Fail)
    assert res.reason == "minimal polynomial degree 5 < ideal degree 7"
    res = shape_prob(gf2q, seed=0, probe=[1, 0, 0, 0, 0, 0, 0])
    assert isinstance(res, Fail)
    assert res.reason == "minimal polynomial degree 4 < ideal degree 7"


def test_shape_det_gf2_peels_two_factors(gf2q):
    tr = WiedemannTrace()
    out = shape_det(gf2q, trace_out=tr)
    assert not isinstance(out, Fail)
    sb, is_radical = out
    assert not is_radical
    assert sb.f1 == [1, 0, 0, 1]
    assert sb.tails == [[0, 1]]
    assert basis_strs(sb.to_polys(gf2q.F)) == ["x1^3 + 1", "x2 + x1"]

    assert [g for g, _ in tr.factors] == [[1, 1, 0, 1, 1], [1, 0, 0, 1]]
    assert tr.factors[0][1] == [[0, 1, 0, 0]]
    assert tr.factors[1][1] == [[0, 1, 0]]
    assert tr.probe_vectors[0] == [1, 0, 0, 0, 0, 0, 0]
    assert tr.sequences[0] == [1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0]
    assert tr.b_vectors[0] == [0, 1, 1, 0, 0, 0, 0]
    assert tr.b_vectors[-1] == [0] * 7


def test_gf2_intermediate_pairs(gf2q):
    tr = WiedemannTrace()
    shape_det(gf2q, trace_out=tr)
    pairs = [basis_strs(ShapeBasis(g, tails).to_polys(gf2q.F)) for g, tails in tr.factors]
    assert pairs[0] == ["x1^4 + x1^3 + x1 + 1", "x2 + x1"]
    assert pairs[1] == ["x1^3 + 1", "x2 + x1"]


def test_crt_glue_matches_direct_route(gf2q):
    # residues modulo the prime pieces x1+1 and x1^2+x1+1
    glued = uni_crt([[1], [0, 1]], [[1, 1], [1, 1, 1]], gf2q.F)
    sb, _ = shape_det(gf2q)
    assert glued == [0, 1] == sb.tails[0]


def test_shape_tails_match_classic_fglm_on_small_primes():
    """Seeded random systems over small and large primes: every shape-prob
    answer and every shape-det answer flagged radical is the LEX basis that
    classic FGLM computes; every radical(I) answer has a squarefree f1 and
    contains I.  Shape-det meets factors of degree 1 and 2 on the way, so the
    short per-factor tail solves run too."""
    seen = {"prob": 0, "det": 0, "radical_of": 0, "dk1": 0, "dk2": 0}
    rejected = 0
    for p in (2, 3, 5, 7, 101, 65521):
        F = PrimeField(p)
        for n, d in ((1, 4), (2, 2), (2, 3), (3, 2), (4, 2)):
            for seed in range(6):
                gb = buchberger(gen_random_system(n, d, p, seed), "drl", F)
                try:
                    Q = QuotientStructure(gb, F)
                except ValueError:
                    # over GF(2) a few draws generate the unit ideal or a
                    # positive-dimensional one: bad input, not a shape system
                    rejected += 1
                    continue
                lex = classic_fglm(Q, "lex")
                res = shape_prob(Q, seed)
                if not isinstance(res, Fail):
                    assert basis_strs(res.to_groebner(F)) == basis_strs(lex), (p, n, d, seed)
                    seen["prob"] += 1
                tr = WiedemannTrace()
                res = shape_det(Q, trace_out=tr)
                for g, _ in tr.factors:
                    if len(g) - 1 in (1, 2):
                        seen[f"dk{len(g) - 1}"] += 1
                if isinstance(res, Fail):
                    continue
                sb, is_radical = res
                if is_radical:
                    assert basis_strs(sb.to_groebner(F)) == basis_strs(lex), (p, n, d, seed)
                    seen["det"] += 1
                else:
                    assert squarefree_part(sb.f1, F) == sb.f1
                    got = sb.to_polys(F)
                    assert all(normal_form(g, got, "lex", F).is_zero() for g in lex.polys)
                    seen["radical_of"] += 1
    assert all(seen.values()) and rejected <= 2, (seen, rejected)


def _count_fits(monkeypatch):
    """Count Berlekamp-Massey runs as shape and linrec look them up, extended
    Euclid runs in unipoly, and record every Hankel system shape solves."""
    calls = {"bm": 0, "xgcd": 0}
    systems = []

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    def recorded(sys, F):
        systems.append(sys)
        return hankel_solve(sys, F)

    monkeypatch.setattr(shape, "berlekamp_massey", counted("bm", berlekamp_massey))
    monkeypatch.setattr(linrec, "berlekamp_massey", counted("bm", berlekamp_massey))
    monkeypatch.setattr(unipoly, "uni_xgcd", counted("xgcd", unipoly.uni_xgcd))
    monkeypatch.setattr(shape, "hankel_solve", recorded)
    return calls, systems


def _fresh_solves(systems, F):
    return [hankel_solve(HankelSystem(H.d, H.seq, H.rhs), F) for H in systems]


def test_shape_prob_fits_its_sequence_once(monkeypatch):
    """On an n = 4 system one shape_prob call runs Berlekamp-Massey once (its
    Krylov fit, which also gives N_s^-1) and no extended Euclid for all three
    tails, and each tail is what a fresh hankel_solve gives for that
    right-hand side."""
    F = PrimeField(65521)
    Q = QuotientStructure(buchberger(gen_random_system(4, 2, 65521, 0), "drl", F), F)
    calls, systems = _count_fits(monkeypatch)
    sb = shape_prob(Q, seed=0)
    monkeypatch.undo()
    assert not hasattr(linrec, "uni_xgcd")
    assert not isinstance(sb, Fail)
    assert calls == {"bm": 1, "xgcd": 0}
    assert len(systems) == 3
    assert sb.tails == [trim(t) for t in _fresh_solves(systems, F)]


def test_shape_det_fits_each_factor_once(monkeypatch):
    """shape_det runs Berlekamp-Massey once per probe (on the second system
    one of three probes peels nothing) and hands each factor's Krylov fit to
    its tail solves, which then refit nothing; the only extended Euclid runs
    are the CRT glue steps.  Each per-factor tail is what a fresh
    hankel_solve on the prefix that defines H gives."""
    for p, seed, degrees, probes in ((3, 1, [1, 8], 2), (7, 1, [8, 1], 3)):
        F = PrimeField(p)
        Q = QuotientStructure(buchberger(gen_random_system(2, 3, p, seed), "drl", F), F)
        calls, systems = _count_fits(monkeypatch)
        tr = WiedemannTrace()
        out = shape_det(Q, trace_out=tr)
        monkeypatch.undo()
        assert out[1] is True
        assert [len(g) - 1 for g, _ in tr.factors] == degrees
        assert calls == {"bm": probes, "xgcd": len(degrees) - 1}
        assert [H.d for H in systems] == degrees
        assert [t for _, tails in tr.factors for t in tails] == _fresh_solves(systems, F)


def test_shape_det_gf11_reports_nonradical(gf11):
    out = shape_det(gf11)
    assert not isinstance(out, Fail)
    sb, is_radical = out
    assert not is_radical
    assert sb.f1 == [6, 5, 4, 1]
    assert basis_strs(sb.to_polys(gf11.F)) == [
        "x1^3 + 4*x1^2 + 5*x1 + 6",
        "6*x1^2 + x2 + 10",
        "x3 + 9",
    ]


def test_matrix_poly_apply_horner(gf11):
    # f(T)v and f(T^t)v for f = x^2 + 2x + 5, against the assembled power sum
    T = gf11.matrix(1)
    v = [3, 1, 4, 1]
    for step in (apply, apply_transpose):
        t1 = step(T, v)
        t2 = step(T, t1)
        want = [(a + 2 * b + 5 * c) % 11 for a, b, c in zip(t2, t1, v)]
        assert matrix_poly_apply([5, 2, 1], step, T, v, gf11.F) == want
    # T is not symmetric, so the two steps must give different answers
    assert matrix_poly_apply([0, 1], apply, T, v, gf11.F) != matrix_poly_apply(
        [0, 1], apply_transpose, T, v, gf11.F
    )


def test_incremental_univariate_gf11_matches_full_bm(gf11):
    for seed in range(5):
        m = incremental_univariate(gf11, seed)
        # replicate the probe draw and run BM on the full-length sequence
        rng = random.Random(seed)
        r = [rng.randrange(gf11.F.p) for _ in range(gf11.D)]
        s = []
        cur = r
        for _ in range(2 * gf11.D):
            s.append(cur[0])
            cur = apply_transpose(gf11.matrix(1), cur)
        assert m == berlekamp_massey(s, gf11.F)[0]
        # unlucky probes land on proper divisors of x1^4 + 8*x1 + 9, never junk
        assert uni_mod([9, 8, 0, 0, 1], m, gf11.F) == []


def test_incremental_univariate_gf2_early_stops(gf2q):
    # an estimate, not a guarantee: over GF(2) the two-window stability rule
    # fires prematurely for seeds 0 and 2 (seed 2 on a non-divisor)
    expected = {
        0: [1, 1],
        1: [1, 0, 1, 0, 1],
        2: [0, 0, 1, 1],
        3: [1, 0, 1, 1, 0, 1],
        4: [1, 1, 0, 0, 0, 0, 1, 1],
    }
    for seed, want in expected.items():
        assert incremental_univariate(gf2q, seed) == want
