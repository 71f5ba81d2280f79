"""End-to-end checks, one test per headline behavior of the package.

Each test stands alone and prints a single pass/fail line under -v.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    PROBE12,
    basis_strs,
    noncommuting_units,
    rank_mod_p,
    record_shape,
    shape_factors,
)

from sparsefglm.bms import bms_change, is_gb
from sparsefglm.buchberger import buchberger, gen_random_system
from sparsefglm.fglm import classic_fglm, toplevel
from sparsefglm.field import PrimeField
from sparsefglm.generic import asymptotic_estimate, dense_column_count, verify_moreno_socias
from sparsefglm.linrec import berlekamp_massey, hankel_solve
from sparsefglm.poly import Fail, MultiPoly, mp_sub, normal_form
from sparsefglm.quotient import QuotientStructure, apply, apply_transpose
from sparsefglm.shape import ShapeBasis, shape_det, shape_prob
from sparsefglm.unipoly import (
    squarefree_part,
    uni_crt,
    uni_derivative,
    uni_gcd,
    uni_mod,
    uni_mul,
)

P = 65521


def _var(n: int, i: int) -> MultiPoly:
    return MultiPoly(n, {tuple(1 if k == i - 1 else 0 for k in range(n)): 1})


def test_c01_probabilistic_shape_conversion_worked_example(gf11):
    """GF(11) system in shape position: every intermediate of the probe
    r = (8,4,8,6) is pinned, and the conversion runs in under a millisecond."""
    F = gf11.F
    assert gf11.D == 4
    r = [8, 4, 8, 6]
    chain = [list(r)]
    for _ in range(2 * gf11.D - 1):
        chain.append(apply_transpose(gf11.matrix(1), chain[-1]))
    s = [v[0] for v in chain]
    assert s == [8, 4, 0, 7, 6, 8, 10, 10]
    fit = berlekamp_massey(s, F)  # s holds exactly the 2D terms H needs
    f1 = fit[0]
    assert f1 == [9, 8, 0, 0, 1]  # x1^4 + 8*x1 + 9
    b = [F.dot(chain[i], gf11.nf_of_var(2)) for i in range(4)]
    assert b == [8, 6, 8, 3]
    assert hankel_solve(fit, b, F) == [1, 0, 5, 0]

    res = shape_prob(gf11, r)
    assert res == ShapeBasis([9, 8, 0, 0, 1], [[1, 0, 5], [2]])
    out = basis_strs(res.to_groebner(F))
    assert out == ["x1^4 + 8*x1 + 9", "6*x1^2 + x2 + 10", "x3 + 9"]
    assert out == basis_strs(classic_fglm(gf11, "lex"))

    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        shape_prob(gf11, r)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3


def test_c02_deterministic_peeling_with_crt_recombination(monkeypatch, gf2q):
    """GF(2) system not radical: unit probes peel two factors, the reduced
    pairs glue by CRT, and the direct reduction of the lex basis modulo the
    squarefree part lands on the same answer."""
    F2 = gf2q.F
    assert gf2q.D == 7
    rec = record_shape(monkeypatch)
    det = shape_det(gf2q)
    monkeypatch.undo()
    assert not isinstance(det, Fail)
    sb, is_radical = det

    (g1, t1), (g2, t2) = shape_factors(rec)
    b_vectors = [out for step, _, out in rec["poly"] if step is apply]
    assert g1 == [1, 1, 0, 1, 1]  # (x1+1)^2 (x1^2+x1+1)
    assert g2 == [1, 0, 0, 1]  # (x1+1)(x1^2+x1+1)
    assert t1 == [[0, 1, 0, 0]]
    assert t2 == [[0, 1, 0]]
    assert b_vectors[0] == [0, 1, 1, 0, 0, 0, 0]
    assert b_vectors[1] == [0] * 7
    assert basis_strs(ShapeBasis(g1, t1).to_groebner(F2)) == [
        "x1^4 + x1^3 + x1 + 1", "x2 + x1",
    ]
    assert basis_strs(ShapeBasis(g2, t2).to_groebner(F2)) == ["x1^3 + 1", "x2 + x1"]

    # CRT route over one piece per distinct prime factor: each piece divides
    # the factor it is charged to, and the pieces tile the squarefree part
    full = uni_mul(g1, g2, F2)
    assert full == [1, 1, 0, 0, 0, 0, 1, 1]
    sqf = squarefree_part(full, F2)
    assert sqf == [1, 0, 0, 1]
    piece1, piece2 = [1, 1], [1, 1, 1]
    assert uni_mul(piece1, piece2, F2) == sqf
    assert uni_gcd(piece1, piece2, F2) == [1]
    assert uni_mod(g1, piece1, F2) == [] and uni_mod(g2, piece2, F2) == []
    r1 = uni_mod(t1[0], piece1, F2)
    r2 = uni_mod(t2[0], piece2, F2)
    assert basis_strs(ShapeBasis(piece1, [r1]).to_groebner(F2)) == ["x1 + 1", "x2 + 1"]
    assert basis_strs(ShapeBasis(piece2, [r2]).to_groebner(F2)) == [
        "x1^2 + x1 + 1", "x2 + x1",
    ]
    glue = uni_crt([r1, r2], [piece1, piece2], F2)
    assert glue == [0, 1]

    # direct route: reduce the full-ideal lex relations modulo sqf
    lex = classic_fglm(gf2q, "lex")
    tail_full = mp_sub(_var(2, 2), lex.polys[1], F2).to_uni()
    assert uni_mod(tail_full, sqf, F2) == glue

    assert sb.f1 == sqf
    assert sb.tails == [glue]
    assert is_radical is False
    assert basis_strs(sb.to_groebner(F2)) == ["x1^3 + 1", "x2 + x1"]


def test_c03_array_sweep_trace_and_termination_on_trusted_input(trusted12):
    """Bivariate D = 12 ideal given by the reduced DRL basis of the lex basis
    the sweep is expected to return: T_1 and T_2 commute, the first seven
    passes of the sweep reproduce the worked values exactly, and within 2nD
    passes the sweep hands back that two-element lex basis, verified."""
    assert trusted12.D == 12
    assert noncommuting_units(trusted12) == []
    trace = []
    res = bms_change(trusted12, list(PROBE12), trace=trace)

    expected = [
        ((0, 0), {(0, 0)}, ["x1", "x2"]),
        ((1, 0), {(0, 0)}, ["x1 + 65437", "x2"]),
        ((2, 0), {(0, 0), (1, 0)}, ["x1^2 + 65437*x1 + 21672", "x2"]),
        ((3, 0), {(0, 0), (1, 0)}, ["x1^2 + 62861*x1 + 41493", "x2"]),
        ((4, 0), {(0, 0), (1, 0), (2, 0)},
         ["x1^3 + 62861*x1^2 + 35812*x1 + 18557", "x2"]),
        ((5, 0), {(0, 0), (1, 0), (2, 0)},
         ["x1^3 + 30688*x1^2 + 45566*x1 + 54643", "x2"]),
        ((6, 0), {(0, 0), (1, 0), (2, 0), (3, 0)},
         ["x1^4 + 30688*x1^3 + 20026*x1^2 + 45766*x1 + 5434", "x2"]),
    ]
    for (u, delta, polys), (got_u, got_F, got_delta) in zip(expected, trace):
        assert got_u == u
        assert got_delta == delta
        assert [str(f) for f in got_F] == polys
    assert len(trace) <= 2 * 2 * trusted12.D

    assert not isinstance(res, Fail), f"sweep declined: {res.reason}"
    assert [str(f) for f in res.polys] == [
        "x1^4 + 15*x1^2 + 19*x1 + 3",
        "7*x1^2*x2^2 + x2^3 + 15*x1^2*x2 + 2*x1^3 + 9",
    ]
    assert is_gb(res.polys, trusted12)


def test_c04_sweep_declines_monomial_ideal_and_falls_back(monomial6):
    """The border array of <x1^3, x1^2 x2, x1 x2^2, x2^3> carries recurrences
    the ideal does not: ten seeds all decline, and the dispatcher lands on
    classic FGLM, which returns the (order-independent) input."""
    F = monomial6.F
    assert monomial6.D == 6
    for seed in range(10):
        res = bms_change(monomial6, next(monomial6.probes(seed)))
        assert isinstance(res, Fail), f"seed {seed} unexpectedly produced a basis"
        assert "without a verified Groebner basis" in res.reason
    conv = toplevel(monomial6.G1, F, seed=0, quotient=monomial6)
    assert conv.method_used == "fglm"
    assert conv.of_what == "I"
    assert conv.bms_passes == 14
    assert conv.basis.polys == monomial6.G1.polys


def test_c05_dispatcher_agrees_with_classic_fglm_on_random_systems():
    """Fifty seeded quadric systems in 2..4 variables: the dispatcher output
    is the ideal's own lex basis, identical to classic FGLM, within a minute."""
    F = PrimeField(P)
    t0 = time.perf_counter()
    for seed in range(50):
        n = [2, 3, 4][seed % 3]
        gb = buchberger(gen_random_system(n, 2, P, seed), "drl", F)
        Q = QuotientStructure(gb, F)
        conv = toplevel(gb, F, seed=seed, quotient=Q)
        assert conv.of_what == "I"
        assert conv.basis == classic_fglm(Q, "lex"), f"seed {seed} diverged"
    assert time.perf_counter() - t0 < 60.0


def test_c06_sweep_pass_budget_never_exceeded(trusted12, monomial6):
    """Every array sweep stays within 2nD passes: the 12-dimensional input,
    the declining monomial ideal, and honest random systems (where the result
    must also equal classic FGLM)."""
    trace = []
    bms_change(trusted12, list(PROBE12), trace=trace)
    assert len(trace) <= 2 * 2 * trusted12.D
    for seed in range(10):
        trace = []
        bms_change(monomial6, next(monomial6.probes(seed)), trace=trace)
        assert len(trace) <= 2 * 2 * monomial6.D
    F = PrimeField(P)
    for seed in range(6):
        n = [2, 3, 4][seed % 3]
        gb = buchberger(gen_random_system(n, 2, P, seed), "drl", F)
        Q = QuotientStructure(gb, F)
        trace = []
        res = bms_change(Q, next(Q.probes(seed)), trace=trace)
        assert len(trace) <= 2 * n * Q.D
        assert not isinstance(res, Fail)
        assert res == classic_fglm(Q, "lex")


def test_c07_recurrence_recovery_with_hankel_rank_certificates():
    """200 random linear recurrences of degree up to 30: Berlekamp-Massey
    recovers the generator from 2d terms, H_d is invertible and the kernel of
    H_{d+1} is spanned by the generator.  All arithmetic is exact; there is
    no tolerance anywhere."""
    F = PrimeField(P)
    for trial in range(200):
        rng = random.Random(5000 + trial)
        while True:
            d = rng.randrange(1, 31)
            m = [rng.randrange(P) for _ in range(d)] + [1]
            s = [rng.randrange(P) for _ in range(d)]
            while len(s) < 2 * d + 2:
                acc = sum(m[k] * s[len(s) - d + k] for k in range(d))
                s.append(-acc % P)
            # redraw the rare initial segments whose minimal polynomial is a
            # proper divisor of m
            if rank_mod_p([s[j : j + d] for j in range(d)], F) == d:
                break
        assert berlekamp_massey(s[: 2 * d], F)[0] == m, f"trial {trial}"
        H_d1 = [s[j : j + d + 1] for j in range(d + 1)]
        assert rank_mod_p(H_d1, F) == d
        for row in H_d1:
            assert sum(c * a for c, a in zip(m, row)) % P == 0


def test_c08_dense_column_count_matches_prediction():
    """Ten random systems at each (n, d) in {2,3}^2: the dense columns of T_1
    number exactly the greatest coefficient of (1 + ... + z^(d-1))^n, no
    column ever needs border reduction, and the quadric counts are the
    central binomials."""
    F = PrimeField(P)
    for n, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
        m0 = dense_column_count(n, d)
        for seed in range(10):
            gb = buchberger(gen_random_system(n, d, P, seed), "drl", F)
            Q = QuotientStructure(gb, F)
            rep = verify_moreno_socias(Q, n, d)
            assert rep["match"], (n, d, seed, rep)
            assert rep["case3_absent"], (n, d, seed)
            assert rep["measured"] == m0
        if d == 2:
            assert m0 == math.comb(n, math.ceil(n / 2))


def _irwin_hall_centre(n: int) -> Fraction:
    """Density of a sum of n independent uniform [0, 1] variables at n/2."""
    x = Fraction(n, 2)
    total = sum((-1) ** k * math.comb(n, k) * (x - k) ** (n - 1) for k in range(n // 2 + 1))
    return total / math.factorial(n - 1)


def test_c09_asymptotic_estimate_accuracy():
    """The closed form sqrt(6/(n pi)) d^(n-1) is the n -> oo constant of the
    dense-column count m0 (central limit theorem on (1 + ... + z^(d-1))^n):
    at d = 100 its relative error falls strictly as n goes from 3 to 8, and
    is within 5% for n = 4 to 8.

    At fixed n, m0 / d^(n-1) tends instead to the Irwin-Hall density f_n(n/2)
    (3/4 for n = 3, 2/3 for n = 4), so the relative error levels off near
    6.4% (n = 3) and 3.6% (n = 4).  The exact gap to that limit does not grow
    over d in {20, 40, 80, 160} and is below 1e-4 at d = 160.
    """
    errs = [
        abs(asymptotic_estimate(n, 100) / dense_column_count(n, 100) - 1)
        for n in range(3, 9)
    ]
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    assert all(err < 0.05 for err in errs[1:]), errs

    assert _irwin_hall_centre(3) == Fraction(3, 4)
    assert _irwin_hall_centre(4) == Fraction(2, 3)
    for n in (3, 4):
        limit = _irwin_hall_centre(n)
        gaps = [
            abs(Fraction(dense_column_count(n, d), d ** (n - 1)) - limit)
            for d in (20, 40, 80, 160)
        ]
        assert all(a >= b for a, b in zip(gaps, gaps[1:])), (n, gaps)
        assert gaps[-1] < Fraction(1, 10**4), (n, gaps)


def test_c10_non_radical_systems_reduce_to_squarefree_shape():
    """Twenty doctored systems with a doubly-squared univariate factor: the
    deterministic converter returns a squarefree f1, every input generator
    reduces to zero against the returned basis, and the result matches the
    oracle built from classic FGLM (squarefree part, tails reduced mod it)."""
    F = PrimeField(P)
    for seed in range(20):
        n = 2 + seed % 2
        rng = random.Random(900 + seed)
        a, b, c = rng.sample(range(2, P - 2), 3)
        m = uni_mul([-a % P, 1], [-b % P, 1], F)
        f1 = uni_mul(uni_mul(m, m, F), [-c % P, 1], F)
        tails = [[rng.randrange(P) for _ in range(5)] for _ in range(n - 1)]
        polys = [MultiPoly.from_uni(n, f1)]
        for i, t in enumerate(tails, start=2):
            polys.append(mp_sub(_var(n, i), MultiPoly.from_uni(n, t), F))
        Q = QuotientStructure(buchberger(polys, "drl", F), F)
        assert Q.D == 5

        det = shape_det(Q)
        assert not isinstance(det, Fail), f"seed {seed}: {det.reason}"
        sb, is_radical = det
        assert is_radical is False
        assert uni_gcd(sb.f1, uni_derivative(sb.f1, F), F) == [1]
        for g in Q.G1.polys:
            assert normal_form(g, sb.to_polys(F), "lex", F).is_zero()

        lex = classic_fglm(Q, "lex")
        sqf = squarefree_part(lex.polys[0].to_uni(), F)
        assert sb.f1 == sqf
        for i in range(2, n + 1):
            oracle_tail = uni_mod(mp_sub(_var(n, i), lex.polys[i - 1], F).to_uni(), sqf, F)
            assert sb.tails[i - 2] == oracle_tail
