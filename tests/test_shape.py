import random
import tracemalloc

import pytest

from sparsefglm.buchberger import buchberger, gen_random_system
from sparsefglm.fglm import classic_fglm
from sparsefglm.field import PrimeField
from sparsefglm import linrec, shape, unipoly
from sparsefglm.linrec import berlekamp_massey, hankel_solve
from sparsefglm.poly import Fail, normal_form
from sparsefglm.quotient import QuotientStructure, apply, apply_transpose
from sparsefglm.shape import (
    ShapeBasis,
    incremental_univariate,
    matrix_poly_apply,
    shape_det,
    shape_prob,
)
from sparsefglm.unipoly import squarefree_part, trim, uni_crt, uni_mod

from conftest import basis_strs, prefix_fit, record_shape, shape_factors


def test_shape_basis_container():
    sb = ShapeBasis([9, 8, 0, 0, 1], [[1, 0, 5, 0], [2, 0, 0, 0]])
    assert sb.n == 3
    assert sb.tails == [[1, 0, 5], [2]]
    assert sb == ShapeBasis([9, 8, 0, 0, 1], [[1, 0, 5], [2]])
    assert sb != ShapeBasis([9, 8, 0, 0, 1], [[1, 0, 5], [3]])
    assert "f1=" in repr(sb)


def test_shape_prob_gf11_pinned_probe(gf11):
    sb = shape_prob(gf11, [8, 4, 8, 6])
    assert not isinstance(sb, Fail)
    assert sb.f1 == [9, 8, 0, 0, 1]
    assert sb.tails == [[1, 0, 5], [2]]
    assert basis_strs(sb.to_groebner(gf11.F)) == [
        "x1^4 + 8*x1 + 9",
        "6*x1^2 + x2 + 10",
        "x3 + 9",
    ]
    gb = sb.to_groebner(gf11.F)
    assert gb.ordering == "lex"


def test_shape_prob_gf11_random_probe_agrees(gf11):
    pinned = shape_prob(gf11, [8, 4, 8, 6])
    got = shape_prob(gf11, next(gf11.probes(1)))
    assert got == pinned


@pytest.mark.parametrize("p", [11, 65521, 2**61 - 1, 2**89 - 1])
def test_shape_prob_reduces_its_probe_once(gf11, p):
    """A given probe is reduced mod p once, so entries below 0 or at p and
    above give the answer of the reduced probe (the products and the
    packed tail solves take reduced entries only); a probe of the wrong
    length is a ValueError, as in bms_change."""
    Q, probe = gf11, [8, 4, 8, 6]
    if p != 11:
        F = PrimeField(p)
        Q = QuotientStructure(buchberger(gen_random_system(2, 3, p, 5), "drl", F), F)
        probe = [random.Random(p).randrange(p) for _ in range(Q.D)]
    want = shape_prob(Q, probe)
    assert isinstance(want, ShapeBasis)
    for shifted in ([x - p for x in probe], [x + p for x in probe], [x - 5 * p for x in probe]):
        assert shape_prob(Q, shifted) == want
    for bad in (probe[:-1], probe + [0]):
        with pytest.raises(ValueError, match="probe length"):
            shape_prob(Q, bad)


def test_shape_prob_gf2_probes_see_proper_factors(gf2q):
    # over GF(2) no probe is safe: these two reach degrees 5 and 4, both
    # proper divisors of the degree-7 minimal polynomial
    res = shape_prob(gf2q, [1, 1, 0, 1, 0, 1, 0])
    assert isinstance(res, Fail)
    assert res.reason == "minimal polynomial degree 5 < ideal degree 7"
    res = shape_prob(gf2q, [1, 0, 0, 0, 0, 0, 0])
    assert isinstance(res, Fail)
    assert res.reason == "minimal polynomial degree 4 < ideal degree 7"


def test_shape_det_gf2_peels_two_factors(monkeypatch, gf2q):
    rec = record_shape(monkeypatch)
    out = shape_det(gf2q)
    monkeypatch.undo()
    assert not isinstance(out, Fail)
    sb, is_radical = out
    assert not is_radical
    assert sb.f1 == [1, 0, 0, 1]
    assert sb.tails == [[0, 1]]
    assert basis_strs(sb.to_groebner(gf2q.F)) == ["x1^3 + 1", "x2 + x1"]

    factors = shape_factors(rec)
    # probes view b through g(T1^t) u; the b vectors are each g(T1) b
    probe_vectors = [v for step, v, _ in rec["poly"] if step is apply_transpose]
    b_vectors = [out for step, _, out in rec["poly"] if step is apply]
    assert [g for g, _ in factors] == [[1, 1, 0, 1, 1], [1, 0, 0, 1]]
    assert factors[0][1] == [[0, 1, 0, 0]]
    assert factors[1][1] == [[0, 1, 0]]
    assert probe_vectors[0] == [1, 0, 0, 0, 0, 0, 0]
    assert rec["bm"][0][0] == [1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0]
    assert b_vectors[0] == [0, 1, 1, 0, 0, 0, 0]
    assert b_vectors[-1] == [0] * 7


def test_gf2_intermediate_pairs(monkeypatch, gf2q):
    rec = record_shape(monkeypatch)
    shape_det(gf2q)
    monkeypatch.undo()
    pairs = [basis_strs(ShapeBasis(g, t).to_groebner(gf2q.F)) for g, t in shape_factors(rec)]
    assert pairs[0] == ["x1^4 + x1^3 + x1 + 1", "x2 + x1"]
    assert pairs[1] == ["x1^3 + 1", "x2 + x1"]


def test_crt_glue_matches_direct_route(gf2q):
    # residues modulo the prime pieces x1+1 and x1^2+x1+1
    glued = uni_crt([[1], [0, 1]], [[1, 1], [1, 1, 1]], gf2q.F)
    sb, _ = shape_det(gf2q)
    assert glued == [0, 1] == sb.tails[0]


def test_shape_tails_match_classic_fglm_on_small_primes(monkeypatch):
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
                res = shape_prob(Q, next(Q.probes(seed)))
                if not isinstance(res, Fail):
                    assert basis_strs(res.to_groebner(F)) == basis_strs(lex), (p, n, d, seed)
                    seen["prob"] += 1
                rec = record_shape(monkeypatch)
                res = shape_det(Q)
                monkeypatch.undo()
                if isinstance(res, Fail):
                    continue
                for g, _ in shape_factors(rec):
                    if len(g) - 1 in (1, 2):
                        seen[f"dk{len(g) - 1}"] += 1
                sb, is_radical = res
                if is_radical:
                    assert basis_strs(sb.to_groebner(F)) == basis_strs(lex), (p, n, d, seed)
                    seen["det"] += 1
                else:
                    assert squarefree_part(sb.f1, F) == sb.f1
                    got = sb.to_groebner(F).polys
                    assert all(normal_form(g, got, "lex", F).is_zero() for g in lex.polys)
                    seen["radical_of"] += 1
    assert all(seen.values()) and rejected <= 2, (seen, rejected)


def _count_fits(monkeypatch):
    """Record what shape's globals see (`record_shape`), and count
    Berlekamp-Massey runs as shape and linrec look them up and extended
    Euclid runs in unipoly."""
    rec = record_shape(monkeypatch)
    calls = {"bm": 0, "xgcd": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(shape, "berlekamp_massey", counted("bm", shape.berlekamp_massey))
    monkeypatch.setattr(linrec, "berlekamp_massey", counted("bm", berlekamp_massey))
    monkeypatch.setattr(unipoly, "uni_xgcd", counted("xgcd", unipoly.uni_xgcd))
    return calls, rec


def _transposed_products(monkeypatch) -> list:
    """Wrap shape's apply_transpose; the returned list gets each vector it
    multiplies, in call order."""
    vectors = []

    def counted(T, w):
        vectors.append(w)
        return apply_transpose(T, w)

    monkeypatch.setattr(shape, "apply_transpose", counted)
    return vectors


def _fresh_solves(rec, F):
    """Each recorded Hankel solve again, on a fresh fit of the prefix
    s[:2d] of the sequence s whose Krylov fit it was given."""
    seqs = {id(fit): s for s, fit in rec["bm"]}
    return [
        hankel_solve(prefix_fit(seqs[id(fit)], len(rhs), F), rhs, F)
        for fit, rhs, _ in rec["hankel"]
    ]


def test_shape_prob_fits_its_sequence_once(monkeypatch):
    """On an n = 4 system one shape_prob call runs Berlekamp-Massey once (its
    Krylov fit, which also gives N_s^-1) and no extended Euclid for all three
    tails, and each tail is what a fresh hankel_solve gives for that
    right-hand side.  Its 2D = 32 terms take 2D - 1 - J = 27 transposed
    products: 1, x1, ..., x1^J lie in B for J = 4, and the last chain vector
    gives the last J terms."""
    F = PrimeField(65521)
    Q = QuotientStructure(buchberger(gen_random_system(4, 2, 65521, 0), "drl", F), F)
    calls, rec = _count_fits(monkeypatch)
    vectors = _transposed_products(monkeypatch)
    sb = shape_prob(Q, next(Q.probes(0)))
    monkeypatch.undo()
    assert not hasattr(linrec, "uni_xgcd")
    assert not isinstance(sb, Fail)
    assert calls == {"bm": 1, "xgcd": 0}
    assert (Q.D, len(vectors)) == (16, 27)
    assert [t for t in Q.basis if not any(t[1:])] == [(j, 0, 0, 0) for j in range(5)]
    assert len(rec["hankel"]) == 3
    assert sb.tails == [trim(t) for t in _fresh_solves(rec, F)]


def test_shape_det_fits_each_factor_once(monkeypatch):
    """shape_det runs Berlekamp-Massey once per probe, and each probe peels a
    factor of positive degree, so there are as many runs as factors.  Each
    factor's Krylov fit goes to its tail solves, which then refit nothing;
    the only extended Euclid runs are the CRT glue steps.  Each per-factor
    tail is what a fresh hankel_solve on the prefix that defines H gives."""
    for p, seed, degrees in ((3, 1, [1, 8]), (7, 1, [8, 1])):
        F = PrimeField(p)
        Q = QuotientStructure(buchberger(gen_random_system(2, 3, p, seed), "drl", F), F)
        calls, rec = _count_fits(monkeypatch)
        out = shape_det(Q)
        monkeypatch.undo()
        assert out[1] is True
        assert [len(fit[0]) - 1 for _, fit in rec["bm"]] == degrees
        factors = shape_factors(rec)
        assert [len(g) - 1 for g, _ in factors] == degrees
        assert calls == {"bm": len(degrees), "xgcd": len(degrees) - 1}
        assert [len(rhs) for _, rhs, _ in rec["hankel"]] == degrees
        assert [t for _, tails in factors for t in tails] == _fresh_solves(rec, F)


def test_shape_det_multiplies_no_zero_vector(monkeypatch, monomial6):
    """A Krylov chain stops multiplying once its vector is zero, and so does
    the Horner view of a unit probe: shape_det passes no all-zero vector to
    a transposed product.  On (3, 2, 2, 36) (D = 8, not in shape position)
    that leaves 15 products and four fits of degree 1, on (2, 3, 2, 21)
    (D = 9, not radical) 23 products and fits of degree 1, 7 and 1.
    univar reads the same chain: on the monomial ideal <x1^3, x1^2*x2,
    x1*x2^2, x2^3> (D = 6) each of probe seeds 0-2 makes 3 products, none
    on a zero vector, and returns x1^3."""
    for args, products, fits, want in (
        ((3, 2, 2, 36), 15, [1, 1, 1, 1], None),
        ((2, 3, 2, 21), 23, [1, 7, 1], ([0, 1, 0, 1, 1], [[0, 0, 1, 1]])),
    ):
        F = PrimeField(args[2])
        Q = QuotientStructure(buchberger(gen_random_system(*args), "drl", F), F)
        rec = record_shape(monkeypatch)
        vectors = _transposed_products(monkeypatch)
        out = shape_det(Q)
        monkeypatch.undo()
        assert all(any(w) for w in vectors)
        assert len(vectors) == products
        assert [len(fit[0]) - 1 for _, fit in rec["bm"]] == fits
        if want is None:
            assert isinstance(out, Fail) and "not in shape position" in out.reason
        else:
            assert (out[0].f1, out[0].tails, out[1]) == (*want, False)
    vectors = _transposed_products(monkeypatch)
    for seed in range(3):
        vectors.clear()
        assert incremental_univariate(monomial6, next(monomial6.probes(seed))) == [0, 0, 0, 1]
        assert all(any(w) for w in vectors)
        assert len(vectors) == 3


def test_shape_paths_hold_memory_linear_in_d():
    """With T_1 and NF(x_2) built first, the tracemalloc peak per D of
    shape_prob and of shape_det stays within 1.5x from D = 64 to D = 256:
    a run keeps the current chain vector, its sequence and one row of
    right-hand sides per tail variable, O(nD) residues.  A run that held
    its first D chain vectors (D^2 residues) would read about 2x here.
    Each stage runs once before its measured run, so that what a first call
    caches counts at neither D, whichever tests ran before this one."""
    F = PrimeField(65521)
    per_d = {"prob": [], "det": []}
    for d in (8, 16):
        Q = QuotientStructure(buchberger(gen_random_system(2, d, 65521, 0), "drl", F), F)
        Q.matrix(1)
        Q.nf_of_var(2)
        for name, run in (("prob", lambda: shape_prob(Q, next(Q.probes(0)))), ("det", lambda: shape_det(Q))):
            run()
            tracemalloc.start()
            try:
                out = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not isinstance(out, Fail)
            per_d[name].append(peak / Q.D)
    for name, (small, large) in per_d.items():
        assert large <= 1.5 * small, (name, small, large)


def test_shape_det_holds_no_more_than_one_probe(monkeypatch):
    """Each unit probe peels a factor: over GF(2), gen_random_system(2, 6, 2,
    35) (D = 30) takes shape_det through 2 probes and 80 transposed products,
    and gen_random_system(3, 3, 2, 26) (D = 27) through 5, the most of any
    small system seen.  With T_1 and NF(x_2) built first, the tracemalloc
    peak on (2, 6, 2, 35) stays within 1.2x that of one shape_prob on the
    same quotient: shape_det keeps, per factor, only the right-hand side
    rows and the fit, not the probes, sequences or b vectors it has seen.
    (On (3, 3, 2, 26) it reads about 1.24x: at D = 27 the list and tuple
    headers of five kept factors weigh as much as a few vectors.)"""
    F = PrimeField(2)
    for args, D, runs, products in (((3, 3, 2, 26), 27, 5, 77), ((2, 6, 2, 35), 30, 2, 80)):
        Q = QuotientStructure(buchberger(gen_random_system(*args), "drl", F), F)
        Q.matrix(1)
        Q.nf_of_var(2)
        assert Q.D == D
        rec = record_shape(monkeypatch)
        vectors = _transposed_products(monkeypatch)
        shape_det(Q)
        monkeypatch.undo()
        assert (len(rec["bm"]), len(vectors)) == (runs, products)
    peaks = {}
    for name, run in (("prob", lambda: shape_prob(Q, next(Q.probes(0)))), ("det", lambda: shape_det(Q))):
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["det"] <= 1.2 * peaks["prob"], peaks


def test_shape_det_keeps_d_right_hand_side_entries(monkeypatch):
    """A kept factor's rows are cut to its degree, the entries its Hankel
    solves read, so a shape_det that succeeds holds exactly D entries per
    tail variable.  Each system peels two factors: (2, 3, 2, 10) of degree
    6 and 3 (D = 9, 12 entries kept uncut), (2, 5, 3, 0) of 24 and 1
    (D = 25, 26 kept) and (3, 3, 3, 10) of 26 and 1 (D = 27, 28 kept)."""
    krylov = shape._krylov
    for n, d, p, seed in ((2, 3, 2, 10), (2, 5, 3, 0), (3, 3, 3, 10)):
        F = PrimeField(p)
        Q = QuotientStructure(buchberger(gen_random_system(n, d, p, seed), "drl", F), F)
        runs = []
        monkeypatch.setattr(shape, "_krylov", lambda *args: runs.append(krylov(*args)) or runs[-1])
        assert not isinstance(shape_det(Q), Fail)
        kept = [rows for rows, fit in runs if len(fit[0]) > 1]
        assert len(kept) == 2
        assert [sum(len(rows[i]) for rows in kept) for i in range(n - 1)] == [Q.D] * (n - 1)


def test_shape_det_gf11_reports_nonradical(gf11):
    out = shape_det(gf11)
    assert not isinstance(out, Fail)
    sb, is_radical = out
    assert not is_radical
    assert sb.f1 == [6, 5, 4, 1]
    assert basis_strs(sb.to_groebner(gf11.F)) == [
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


def test_matrix_poly_apply_makes_deg_g_products(gf11):
    """Horner from the leading coefficient: g of degree k costs at most k
    products, none while the accumulator is zero (a constant g or a zero v
    none at all), and the value is sum_i g_i T^i v."""
    T, F = gf11.matrix(1), gf11.F
    v = [3, 1, 4, 1]
    rng = random.Random(7)
    for step in (apply, apply_transpose):
        powers = [v]
        for _ in range(5):
            powers.append(step(T, powers[-1]))
        calls = []

        def counted(T, w):
            calls.append(w)
            return step(T, w)

        for k in (0, 1, 2, 5):
            g = [rng.randrange(11) for _ in range(k)] + [rng.randrange(1, 11)]
            calls.clear()
            want = [sum(c * t[i] for c, t in zip(g, powers)) % 11 for i in range(len(v))]
            assert matrix_poly_apply(g, counted, T, v, F) == want
            assert len(calls) == k
        calls.clear()
        assert matrix_poly_apply([2, 0, 1, 5], counted, T, [0] * 4, F) == [0] * 4
        assert calls == []


def test_incremental_univariate_gf11_matches_full_bm(gf11):
    for seed in range(5):
        r = next(gf11.probes(seed))
        m = incremental_univariate(gf11, r)
        # run BM on the full-length sequence of the same probe
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
        assert incremental_univariate(gf2q, next(gf2q.probes(seed))) == want


def test_incremental_univariate_feeds_one_state(monkeypatch, gf11, gf2q):
    """univar pushes each Krylov term once into one online state, refits no
    prefix (no berlekamp_massey call) and makes one transposed product per
    nonzero term after the first, none past the last term it pushes; over
    GF(2) seed 0 stops after four terms and over GF(11) seed 0 runs to 2D."""
    counts = {}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(shape, "apply_transpose", counted("matvec", apply_transpose))
    monkeypatch.setattr(shape, "berlekamp_massey", counted("bm", berlekamp_massey))
    monkeypatch.setattr(linrec.BMState, "push", counted("push", linrec.BMState.push))
    seen = {}
    for name, Q in (("gf11", gf11), ("gf2q", gf2q)):
        for seed in range(5):
            counts.update(matvec=0, bm=0, push=0)
            incremental_univariate(Q, next(Q.probes(seed)))
            assert counts["bm"] == 0
            assert 0 < counts["push"] <= 2 * Q.D and counts["push"] % 2 == 0
            assert counts["matvec"] == counts["push"] - 1
            seen[name, seed] = counts["push"]
    assert seen["gf2q", 0] == 4 and seen["gf11", 0] == 2 * gf11.D
