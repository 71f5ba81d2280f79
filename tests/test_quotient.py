import random
import tracemalloc
from itertools import islice, product
from operator import mul
from types import SimpleNamespace

import pytest

from sparsefglm.bms import bms_change
from sparsefglm import quotient
from sparsefglm.buchberger import buchberger, gen_random_system
from sparsefglm.field import PrimeField
from sparsefglm.fglm import classic_fglm, toplevel
from sparsefglm.poly import Fail, GroebnerBasis, InternalError, MultiPoly, normal_form
from sparsefglm.quotient import (
    QuotientStructure,
    SparseMat,
    apply,
    apply_transpose,
    density_stats,
    dump_matrix,
)
from sparsefglm.sysio import parse_system
from sparsefglm.terms import MAX_EXP, term_codec

from conftest import (
    GF11_TEXT,
    mp_mul_term,
    quotient_from_text,
    reference_apply,
    reference_matrix,
    reference_nf_term,
    reference_staircase,
)

F11 = PrimeField(11)
# 1-byte fields at p = 2 up to 32-byte ones at 2^89 - 1, past every struct format
TRANSPOSE_PRIMES = [2, 3, 5, 7, 257, 65521, 2**31 - 1, 2**61 - 1, 2**89 - 1]


def test_staircase_gf11(gf11):
    assert gf11.D == 4
    assert gf11.basis == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    assert gf11.e() == [1, 0, 0, 0]
    assert gf11.index[term_codec(3, "drl").pack((1, 1, 0))] == 3


def test_staircase_gf2(gf2q):
    assert gf2q.D == 7
    assert gf2q.basis == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0), (2, 1)]


def unpacked(terms: list[int] | None, n: int) -> list[tuple[int, ...]] | None:
    """A packed DRL walk from `staircase` as exponent tuples; None stays."""
    return None if terms is None else list(map(term_codec(n, "drl").unpack, terms))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_staircase_matches_box_scan(n):
    """The packed degree-by-degree walk against the box scan it replaced,
    on random leading-term sets: finite and infinite staircases (None),
    limits on both sides of the size (None past it, as `is_gb` reads it)
    and sets holding 1 ([])."""
    rng = random.Random(n)
    top = {1: 9, 2: 6, 3: 4, 4: 3}[n]
    seen = {"finite": 0, "infinite": 0, "past limit": 0, "one": 0}
    for _ in range(200):
        lts = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randint(0, 6))]
        lts = [t for t in lts if any(t)]
        if rng.random() < 0.8:
            lts += [tuple(rng.randint(1, top) if k == i else 0 for k in range(n)) for i in range(n)]
        if rng.random() < 0.1:
            lts.append((0,) * n)
        rng.shuffle(lts)
        want = reference_staircase(lts, n)
        assert unpacked(quotient.staircase(lts, n), n) == want, lts
        if want is None:
            seen["infinite"] += 1
            continue
        seen["one" if want == [] else "finite"] += 1
        for limit in {0, len(want) - 1, len(want), len(want) + 1} - {-1}:
            got = unpacked(quotient.staircase(lts, n, limit), n)
            assert got == reference_staircase(lts, n, limit), (lts, limit)
            seen["past limit"] += got is None
    assert min(seen.values()) > 0, seen


def test_nf_of_var(gf11):
    assert gf11.nf_of_var(1) == [0, 1, 0, 0]
    assert gf11.nf_of_var(2) == [0, 0, 1, 0]
    # x3 is itself a leading term: NF(x3) = -9 = 2
    assert gf11.nf_of_var(3) == [2, 0, 0, 0]
    # an index outside 1..n is refused, as by matrix(j), not read as NF(1)
    for i in (0, 4):
        with pytest.raises(ValueError, match="out of range"):
            gf11.nf_of_var(i)


def assert_columns_are_reduced_normal_forms(Q):
    """Column k of T_j, read as T_j e_k, is the reference column NF(b_k x_j)."""
    case3 = 0
    for j in range(1, Q.n + 1):
        T = Q.matrix(j)
        case3 += T.column_cases.count(3)
        for k, (eps, want) in enumerate(zip(Q.basis, reference_matrix(Q, j))):
            assert apply(T, [int(r == k) for r in range(Q.D)]) == want, (j, eps)
    return case3


def test_matrix_columns_are_normal_forms(gf11, gf2q):
    assert assert_columns_are_reduced_normal_forms(gf11) == 5
    assert assert_columns_are_reduced_normal_forms(gf2q) > 0
    # term_vec reaches the terms no column holds through the cascade
    for t in product(range(6), repeat=2):
        assert gf2q.term_vec(t) == reference_nf_term(gf2q, t), t


def test_case_counts_gf11(gf11):
    def counts(j):
        cases = gf11.matrix(j).column_cases
        return cases.count(1), cases.count(2), cases.count(3)

    # x1*B: {x1, x1*x2} stay in B, x1^2 is a leading term, x1^2*x2 is border
    assert counts(1) == (2, 1, 1)
    assert counts(3) == (0, 1, 3)
    assert sum(counts(2)) == gf11.D


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_every_column_matches_direct_reduction(p):
    F = PrimeField(p)
    case3 = 0
    for n, d in ((2, 6), (3, 3), (4, 2)):
        for seed in range(3):
            gb = buchberger(gen_random_system(n, d, p, 600 + seed), "drl", F)
            case3 += assert_columns_are_reduced_normal_forms(QuotientStructure(gb, F))
    assert case3 > 0


def test_cascade_without_reducible_divisor_is_a_defect():
    # x1^2 is a leading term; hidden from the cascade, every divisor x1 of it
    # lies in B, which a reduced basis rules out
    F, polys = parse_system(GF11_TEXT)
    Q = QuotientStructure(buchberger(polys, "drl", F), F)
    del Q._elements[term_codec(3, "drl").pack((2, 0, 0))]
    with pytest.raises(InternalError):
        Q.term_vec((2, 0, 0))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_term_vec_matches_direct_reduction(p):
    """NF(x^t) of every term t up to two degrees past the largest leading
    term, on the inputs of test_every_column_matches_direct_reduction: B,
    the leading terms, the columns of every T_j and the terms above them."""
    F = PrimeField(p)
    for n, d in ((2, 6), (3, 3), (4, 2)):
        for seed in range(3):
            Q = QuotientStructure(buchberger(gen_random_system(n, d, p, 600 + seed), "drl", F), F)
            top = max(sum(g.lt("drl")) for g in Q.G1.polys) + 2
            assert max(map(sum, Q.basis)) + 1 <= top  # every column's term is covered
            for t in product(range(top + 1), repeat=n):
                if sum(t) <= top:
                    assert Q.term_vec(t) == reference_nf_term(Q, t), (n, d, seed, t)
            assert Q.matrices == [None] * n


def test_term_vec_of_a_high_degree_term():
    """The cascade walks a chain of 5,000 divisors without recursing on it,
    and NF(x1^3000 + 1) by direct reduction reads its term vectors' sum."""
    F = PrimeField(11)
    Q = QuotientStructure(buchberger(gen_random_system(2, 3, F.p, 0), "drl", F), F)
    assert Q.term_vec((5000, 0)) == reference_nf_term(Q, (5000, 0))
    nf = normal_form(MultiPoly(2, {(3000, 0): 1, (0, 0): 1}), Q.G1.polys, "drl", F)
    want = [(a + b) % F.p for a, b in zip(Q.term_vec((3000, 0)), Q.e())]
    assert [nf.coeffs.get(b, 0) for b in Q.basis] == want


def test_term_vec_past_max_exp_raises():
    """term_vec packs its term as every packed layer does, so a total degree
    past MAX_EXP raises ValueError instead of walking the cascade; a term of
    total degree MAX_EXP is still reached, as x1 times the one below it."""
    F = PrimeField(11)
    Q = QuotientStructure(buchberger(gen_random_system(2, 3, F.p, 0), "drl", F), F)
    with pytest.raises(ValueError, match="MAX_EXP"):
        Q.term_vec((MAX_EXP, 1))
    with pytest.raises(ValueError):
        Q.term_vec((MAX_EXP + 1, 0))
    assert Q.term_vec((MAX_EXP, 0)) == apply(Q.matrix(1), Q.term_vec((MAX_EXP - 1, 0)))


def test_basis_past_max_exp_is_rejected_when_packed():
    """The structure packs each element's terms to find its leading term,
    so a DRL basis with a term past MAX_EXP raises that ValueError there,
    before the staircase walk."""
    G = GroebnerBasis(
        [MultiPoly(2, {(0, 1): 1, (0, 0): 3}), MultiPoly(2, {(40000, 0): 1, (0, 0): 1})], "drl"
    )
    with pytest.raises(ValueError, match=r"^exponent past MAX_EXP = 32767 in a packed term$"):
        QuotientStructure(G, PrimeField(7))


def test_normal_forms_build_no_matrix():
    F = PrimeField(65521)
    Q = QuotientStructure(buchberger(gen_random_system(2, 2, F.p, 0), "drl", F), F)
    Q.term_vec((3, 4))
    Q.nf_of_var(2)
    Q.term_vec((5, 1))
    assert not isinstance(bms_change(Q, next(Q.probes(0))), Fail)
    assert Q.matrices == [None, None]


class _Packs(list):
    """T_l's packed columns, noting every write, an all-zero column's too."""

    def __init__(self, cols):
        super().__init__(cols)
        self.packed = []

    def __setitem__(self, k, value):
        self.packed.append(k)
        super().__setitem__(k, value)


@pytest.mark.parametrize("p", [2, 65521])
@pytest.mark.parametrize("first", ["classic_fglm", "cascade"])
def test_matrix_completes_the_cascades_object_and_packs_each_column_once(first, p):
    """T_j is one object: the one term_vec's cascade made and matrix(j)
    completed.  Whether classic FGLM or a cascade reaches the columns
    first, each dense column is packed once, and every one is packed."""
    F = PrimeField(p)
    for n, d in ((2, 4), (3, 3)):
        Q = QuotientStructure(buchberger(gen_random_system(n, d, p, 0), "drl", F), F)
        for l in range(n):
            T = Q._store(l)
            T.cols = _Packs(T.cols)
        if first == "classic_fglm":
            classic_fglm(Q, "lex")
        else:
            top = max(sum(g.lt("drl")) for g in Q.G1.polys) + 2
            for t in product(range(top + 1), repeat=n):
                if sum(t) <= top:
                    Q.term_vec(t)
            assert Q.matrices == [None] * n
        for j in range(1, n + 1):
            T = Q._stores[j - 1]
            assert Q.matrix(j) is T
            dense = [k for k, row in enumerate(T.rows) if row is None]
            assert sorted(T.cols.packed) == dense, (n, j)
    assert_columns_are_reduced_normal_forms(Q)


def test_zero_dense_columns_are_packed_once():
    """x1^2 x2, x2^2 and x1 x2^2 reduce to 0: three of the four dense
    columns are all zero, yet each is written once, however many cascades
    meet it before matrix(j) completes T_j."""
    Q = quotient_from_text("p 65521\nvars 2\nx1^2 - x2\nx2^2\n")
    for l in range(2):
        T = Q._store(l)
        T.cols = _Packs(T.cols)
    for t in product(range(12), repeat=2):
        Q.term_vec(t)
    zeros = 0
    for j in (1, 2):
        T = Q.matrix(j)
        dense = [k for k, row in enumerate(T.rows) if row is None]
        assert sorted(T.cols.packed) == dense, j
        zeros += [T.cols[k] for k in dense].count(0)
    assert zeros == 3


def test_density_stats_gf11(gf11):
    stats = density_stats(gf11.matrix(1))
    assert stats["nnz"] == 7
    assert stats["dense_column_count"] == 2
    assert stats["percent_nonzero"] == pytest.approx(100.0 * 7 / 16)


def test_dump_matrix_gf11(gf11):
    assert dump_matrix(gf11, 1) == (
        "4 3 1 7\n"
        "1 0 1\n"
        "0 1 2\n"
        "2 1 9\n"
        "3 2 1\n"
        "0 3 1\n"
        "1 3 4\n"
        "2 3 9\n"
    )


def test_density_stats_unpacks_one_column_at_a_time():
    # D = 256: unpacking every column at once peaks near 10 D^2 bytes
    F = PrimeField(65521)
    Q = QuotientStructure(buchberger(gen_random_system(2, 16, F.p, 0), "drl", F), F)
    T = Q.matrix(1)
    assert T.dim == 256
    tracemalloc.start()
    try:
        stats = density_stats(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < T.dim**2
    M = reference_matrix(Q, 1)
    want = [f"{row} {col} {a}" for col, column in enumerate(M) for row, a in enumerate(column) if a]
    assert stats["nnz"] == len(want)
    assert dump_matrix(Q, 1) == "\n".join([f"256 2 1 {len(want)}", *want]) + "\n"


def test_matrix_holds_bytes_linear_in_its_dense_columns():
    """T_1 keeps a unit column as the row of its 1, so the bytes that
    building it adds to a quotient whose normal forms are already computed
    grow with D * (dense columns + 1), not with D^2: per such unit,
    gen_random_system(2, 24, 65521, 0) (D = 576, 24 dense columns) holds at
    most 1.3x what (2, 8) (D = 64, 8 dense) holds.  Unit columns packed
    over all D fields read 58.9 and 115.2 bytes (1.96x)."""
    F = PrimeField(65521)
    per_unit = []
    for d in (8, 24):
        Q = QuotientStructure(buchberger(gen_random_system(2, d, F.p, 0), "drl", F), F)
        for b in Q.basis:
            Q.term_vec((b[0] + 1, b[1]))
        tracemalloc.start()
        try:
            T = Q.matrix(1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        dense = len(T.column_cases) - T.column_cases.count(1)
        per_unit.append(held / (Q.D * (dense + 1)))
    assert per_unit[1] <= 1.3 * per_unit[0], per_unit


def test_term_vec_of_one_and_of_basis_members(gf11):
    """Each member's term vectors, weighted by its coefficients, sum to 0."""
    assert gf11.term_vec((1, 1, 0)) == [0, 0, 0, 1]
    assert gf11.term_vec((2, 0, 0)) == [2, 0, 9, 0]
    assert gf11.term_vec((0, 0, 0)) == gf11.e()
    for g in gf11.G1.polys:
        vecs = [[c * x for x in gf11.term_vec(t)] for t, c in g.coeffs.items()]
        assert [sum(col) % 11 for col in zip(*vecs)] == [0, 0, 0, 0]


def test_apply_transpose_is_adjoint(gf2q):
    rng = random.Random(3)
    T = gf2q.matrix(1)
    for _ in range(10):
        u = [rng.randrange(2) for _ in range(7)]
        v = [rng.randrange(2) for _ in range(7)]
        assert gf2q.F.dot(apply_transpose(T, u), v) == gf2q.F.dot(u, apply(T, v))


def product_quotients(p):
    """Every Q whose T_j the product tests run on: random systems, the
    monomial ideal (empty columns) and the D = 1 ideal <x1 - 3, x2 - 5> (a
    gather of one index)."""
    F = PrimeField(p)
    quotients = [
        QuotientStructure(buchberger(gen_random_system(n, d, p, seed), "drl", F), F)
        for n, d in ((2, 4), (3, 2))
        for seed in range(2)
    ]
    quotients.append(quotient_from_text(f"p {p}\nvars 2\nx1^3\nx1^2*x2\nx1*x2^2\nx2^3\n"))
    point = [
        MultiPoly(2, {t: c for t, c in ((x, 1), ((0, 0), -a % p)) if c})
        for x, a in (((1, 0), 3), ((0, 1), 5))
    ]
    quotients.append(QuotientStructure(buchberger(point, "drl", F), F))
    assert quotients[-1].D == 1
    return quotients


@pytest.mark.parametrize("p", TRANSPOSE_PRIMES)
def test_apply_transpose_matches_column_sums(p):
    """(T^t v)[c] = sum_r T[r][c] v[r] over the columns of reference_matrix,
    on every T_j of product_quotients.  Entries outside [0, p) are the
    caller's to reduce (see test_shape_prob_reduces_its_probe_once)."""
    rng = random.Random(p)
    empty_columns = 0
    for Q in product_quotients(p):
        for j in range(1, Q.n + 1):
            M = reference_matrix(Q, j)
            empty_columns += sum(not any(col) for col in M)
            for _ in range(3):
                v = [rng.randrange(p) for _ in range(Q.D)]
                want = [sum(map(mul, col, v)) % p for col in M]
                assert apply_transpose(Q.matrix(j), v) == want, (Q.basis, j, v)
    assert empty_columns > 0


@pytest.mark.parametrize("p", TRANSPOSE_PRIMES)
def test_apply_matches_reference_apply(p):
    """T v against the schoolbook loop over reference_matrix's columns, on
    every T_j of product_quotients, for random vectors and unit vectors."""
    rng = random.Random(p)
    for Q in product_quotients(p):
        for j in range(1, Q.n + 1):
            M = reference_matrix(Q, j)
            vectors = [[rng.randrange(p) for _ in range(Q.D)] for _ in range(3)]
            vectors.append([int(r == Q.D - 1) for r in range(Q.D)])
            for v in vectors:
                assert apply(Q.matrix(j), v) == reference_apply(M, v, p), (Q.basis, j, v)


def all_p_minus_one(D, p):
    """T with every entry p - 1, every column dense, in both packed layouts."""
    T = SparseMat([None] * D, p)
    T.cols[:] = [T.pack([p - 1] * D)] * D
    return T.complete([[p - 1] * D] * D, [3] * D)


@pytest.mark.parametrize("p", TRANSPOSE_PRIMES)
@pytest.mark.parametrize("D", [1, 2, 3, 64, 257])
def test_apply_transpose_fields_hold_the_largest_dot_product(D, p):
    """Dense columns of p - 1 against v = [p - 1] * D fill every field of
    the packed rows with D (p - 1)^2, the most it may hold; a field one
    width step narrower would carry into its neighbour."""
    T = all_p_minus_one(D, p)
    assert apply_transpose(T, [p - 1] * D) == [D * (p - 1) ** 2 % p] * D


@pytest.mark.parametrize("p", TRANSPOSE_PRIMES)
@pytest.mark.parametrize("D", [1, 2, 3, 64, 257])
def test_apply_fields_hold_the_largest_dot_product(D, p):
    """The same bound for the packed columns: every field of T v holds
    D (p - 1)^2."""
    T = all_p_minus_one(D, p)
    assert apply(T, [p - 1] * D) == [D * (p - 1) ** 2 % p] * D


def test_apply_length_check(gf11):
    with pytest.raises(ValueError):
        apply(gf11.matrix(1), [1, 2])
    with pytest.raises(ValueError):
        apply_transpose(gf11.matrix(1), [1])


@pytest.mark.parametrize("seed", [0, 3, 41100005])
def test_probes_are_consecutive_blocks_of_one_seeded_stream(gf11, gf2q, seed):
    """Probe k is the k-th block of D draws of random.Random(seed).randrange(p);
    every --seed output and the dispatcher's probe order rest on it."""
    for Q in (gf11, gf2q):
        rng = random.Random(seed)
        want = [[rng.randrange(Q.F.p) for _ in range(Q.D)] for _ in range(4)]
        assert list(islice(Q.probes(seed), 4)) == want


def test_probes_seed_one_generator_on_first_use(gf11, monkeypatch):
    seeded = []

    def Random(seed):
        seeded.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(quotient, "random", SimpleNamespace(Random=Random))
    probes = gf11.probes(7)
    assert seeded == []
    next(probes), next(probes)
    assert seeded == [7]


def test_matrix_index_bounds(gf11):
    with pytest.raises(ValueError):
        gf11.matrix(0)
    with pytest.raises(ValueError):
        gf11.matrix(4)


def test_constructor_validation():
    x1 = MultiPoly(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        QuotientStructure(GroebnerBasis([x1], "lex"), F11)
    with pytest.raises(ValueError):
        QuotientStructure(GroebnerBasis([x1], "drl"), F11)  # not zero-dimensional
    one = MultiPoly(2, {(0, 0): 1})
    with pytest.raises(ValueError):
        QuotientStructure(GroebnerBasis([one], "drl"), F11)


def test_unreduced_input_is_reduced(gf11):
    """QuotientStructure takes the reduced basis only; an unreduced one is
    bad input, and buchberger reduces it."""
    F, polys = parse_system(GF11_TEXT)
    doubled = polys + [mp_mul_term(polys[0], (0,) * 3, 2, F)]
    with pytest.raises(ValueError, match="not reduced"):
        QuotientStructure(GroebnerBasis(doubled, "drl"), F)
    Q = QuotientStructure(buchberger(doubled, "drl", F), F)
    assert Q.basis == gf11.basis
    assert [g.coeffs for g in Q.G1.polys] == [g.coeffs for g in gf11.G1.polys]


def test_tail_outside_staircase_is_bad_input():
    """Over GF(11), [x1^2, x2^3 + x1^2] has the tail term x1^2, which is a
    leading term, not a staircase term, so the case-2 column of x2^3 in T_2
    has no row for it.  The basis is rejected up front, by toplevel too;
    buchberger reduces it to one with D = 6."""
    x1sq = MultiPoly(2, {(2, 0): 1})
    G = GroebnerBasis([x1sq, MultiPoly(2, {(0, 3): 1, (2, 0): 1})], "drl")
    with pytest.raises(ValueError, match="not reduced"):
        QuotientStructure(G, F11)
    with pytest.raises(ValueError, match="not reduced"):
        toplevel(G, F11, seed=0)
    assert QuotientStructure(buchberger(G.polys, "drl", F11), F11).D == 6


def test_helper_constructors(gf11):
    F, polys = parse_system(GF11_TEXT)
    gb = buchberger(polys, "drl", F)
    Q = QuotientStructure(gb, F)
    assert Q.basis == gf11.basis
    assert Q.matrix(2).dim == 4
