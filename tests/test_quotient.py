import random
from itertools import product

import pytest

from sparsefglm.buchberger import buchberger, gen_random_system
from sparsefglm.field import PrimeField
from sparsefglm.poly import GroebnerBasis, InternalError, MultiPoly, mp_scale, normal_form
from sparsefglm.quotient import (
    QuotientStructure,
    apply,
    apply_transpose,
    canonical_basis,
    density_stats,
    dump_matrix,
)
from sparsefglm.sysio import parse_system

from conftest import GF11_TEXT

F11 = PrimeField(11)


def test_staircase_gf11(gf11):
    assert gf11.D == 4
    assert gf11.basis == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    assert gf11.e() == [1, 0, 0, 0]
    assert gf11.index[(1, 1, 0)] == 3


def test_staircase_gf2(gf2q):
    assert gf2q.D == 7
    assert gf2q.basis == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0), (2, 1)]


def test_nf_of_var(gf11):
    assert gf11.nf_of_var(1) == [0, 1, 0, 0]
    assert gf11.nf_of_var(2) == [0, 0, 1, 0]
    # x3 is itself a leading term: NF(x3) = -9 = 2
    assert gf11.nf_of_var(3) == [2, 0, 0, 0]


def nf_term_oracle(Q, t):
    """Coordinate vector of NF(x^t) by direct reduction against the basis."""
    f = normal_form(MultiPoly(Q.n, {t: 1}), Q.G1.polys, "drl", Q.F)
    v = [0] * Q.D
    for s, c in f.coeffs.items():
        v[Q.index[s]] = c
    return v


def assert_columns_are_reduced_normal_forms(Q):
    case3 = 0
    for j in range(1, Q.n + 1):
        T = Q.matrix(j)
        case3 += T.column_cases.count(3)
        for k, eps in enumerate(Q.basis):
            t = tuple(e + (idx == j - 1) for idx, e in enumerate(eps))
            col = [0] * Q.D
            for row, a in T.columns[k]:
                col[row] = a
            assert col == nf_term_oracle(Q, t), (j, eps)
    return case3


def test_matrix_columns_are_normal_forms(gf11, gf2q):
    assert assert_columns_are_reduced_normal_forms(gf11) == 5
    assert assert_columns_are_reduced_normal_forms(gf2q) > 0
    # term_vec reaches the terms no column holds through matrix products
    for t in product(range(6), repeat=2):
        assert gf2q.term_vec(t) == nf_term_oracle(gf2q, t), t


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
    del Q._lt_map[(2, 0, 0)]
    with pytest.raises(InternalError):
        Q._nf_term_cascade((2, 0, 0))


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


def test_term_vec_and_nf_vector(gf11):
    assert gf11.term_vec((1, 1, 0)) == [0, 0, 0, 1]
    assert gf11.term_vec((2, 0, 0)) == [2, 0, 9, 0]
    one = MultiPoly(3, {(0, 0, 0): 1})
    assert gf11.nf_vector(one) == gf11.e()
    for g in gf11.G1.polys:
        assert gf11.nf_vector(g) == [0, 0, 0, 0]


def test_apply_transpose_is_adjoint(gf2q):
    rng = random.Random(3)
    T = gf2q.matrix(1)
    for _ in range(10):
        u = [rng.randrange(2) for _ in range(7)]
        v = [rng.randrange(2) for _ in range(7)]
        assert gf2q.F.dot(apply_transpose(T, u), v) == gf2q.F.dot(u, apply(T, v))


def test_apply_length_check(gf11):
    with pytest.raises(ValueError):
        apply(gf11.matrix(1), [1, 2])
    with pytest.raises(ValueError):
        apply_transpose(gf11.matrix(1), [1])


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
    F, polys = parse_system(GF11_TEXT)
    doubled = polys + [mp_scale(polys[0], 2, F)]
    Q = QuotientStructure(GroebnerBasis(doubled, "drl", reduced=False), F)
    assert Q.basis == gf11.basis
    assert [g.coeffs for g in Q.G1.polys] == [g.coeffs for g in gf11.G1.polys]


def test_helper_constructors(gf11):
    F, polys = parse_system(GF11_TEXT)
    gb = buchberger(polys, "drl", F)
    Q = canonical_basis(gb, F)
    assert Q.basis == gf11.basis
    assert Q.matrix(2).dim == 4
