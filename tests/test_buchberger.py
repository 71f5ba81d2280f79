from itertools import combinations
from operator import sub

import pytest

from sparsefglm.bms import is_gb
from sparsefglm.buchberger import buchberger, gen_random_system
from sparsefglm.fglm import classic_fglm
from sparsefglm.field import PrimeField
from sparsefglm.poly import MultiPoly, mp_mul_term, mp_sub, normal_form
from sparsefglm.terms import divides
from sparsefglm.quotient import QuotientStructure
from sparsefglm.sysio import parse_system

from conftest import GF11_TEXT, GF2_TEXT, basis_strs, normal_form_linear_scan


def spoly(f, g, ordering, F):
    lf, lg = f.lt(ordering), g.lt(ordering)
    m = tuple(map(max, lf, lg))
    a = mp_mul_term(f, tuple(map(sub, m, lf)), F.inv(f.lc(ordering)), F)
    return mp_sub(a, mp_mul_term(g, tuple(map(sub, m, lg)), F.inv(g.lc(ordering)), F), F)


def spolys_reduce_to_zero(gb, F, nf=normal_form):
    for f, g in combinations(gb.polys, 2):
        s = spoly(f, g, gb.ordering, F)
        if not nf(s, gb.polys, gb.ordering, F).is_zero():
            return False
    return True


def test_fixed_point_on_groebner_input():
    for text in (GF11_TEXT, GF2_TEXT):
        F, polys = parse_system(text)
        gb = buchberger(polys, "drl", F)
        assert sorted(basis_strs(gb)) == sorted(basis_strs(polys))


def test_gf11_output_order():
    F, polys = parse_system(GF11_TEXT)
    gb = buchberger(polys, "drl", F)
    assert basis_strs(gb) == [
        "x3 + 9",
        "x1^2 + 2*x2 + 9",
        "x2^2 + 9*x2 + 2*x1 + 6",
    ]


def test_completion_adds_elements():
    F = PrimeField(11)
    f = MultiPoly(2, {(2, 0): 1, (0, 2): 1})  # x1^2 + x2^2
    g = MultiPoly(2, {(1, 1): 1, (0, 0): 10})  # x1*x2 - 1
    gb = buchberger([f, g], "drl", F)
    assert len(gb.polys) > 2
    assert spolys_reduce_to_zero(gb, F)
    for h in (f, g):
        assert normal_form(h, gb.polys, "drl", F).is_zero()
    Q = QuotientStructure(gb, F)
    assert Q.D == 4  # Bezout: no solutions at infinity


def test_random_systems_self_consistent():
    p = 65521
    F = PrimeField(p)
    for seed in range(5):
        polys = gen_random_system(2, 2, p, seed)
        gb = buchberger(polys, "drl", F)
        assert spolys_reduce_to_zero(gb, F)
        Q = QuotientStructure(gb, F)
        assert Q.D == 4  # generic quadrics
        for h in polys:
            assert not any(Q.nf_vector(h))
        # is_gb speaks lex, so exercise it on the converted basis
        assert is_gb(classic_fglm(Q, "lex").polys, Q)


@pytest.mark.parametrize("p", [3, 5, 65521])
@pytest.mark.parametrize("n,d", [(1, 4), (2, 3), (3, 2), (4, 2)])
def test_result_is_reduced_basis_whatever_the_pair_order(n, d, p):
    # the defining properties of the reduced Groebner basis, which do not
    # depend on the order in which pairs are taken from the queue
    F = PrimeField(p)
    for seed in range(3):
        polys = gen_random_system(n, d, p, 41100000 + seed)
        gb = buchberger(polys, "drl", F)
        # checked with the tuple oracle, not the packed kernel buchberger runs on
        assert spolys_reduce_to_zero(gb, F, nf=normal_form_linear_scan)
        for h in polys:
            assert normal_form_linear_scan(h, gb.polys, "drl", F).is_zero()
        lts = gb.leading_terms()
        for i, g in enumerate(gb.polys):
            assert g.lc("drl") == 1
            for j, lt_j in enumerate(lts):
                if j != i:
                    assert not any(divides(lt_j, t) for t in g.coeffs)


def test_empty_input_rejected():
    F = PrimeField(11)
    with pytest.raises(ValueError):
        buchberger([MultiPoly.zero(2)], "drl", F)


def test_gen_random_system_shape():
    polys = gen_random_system(3, 2, 65521, 7)
    assert len(polys) == 3
    assert all(f.n == 3 for f in polys)
    assert all(max(sum(t) for t in f.coeffs) <= 2 for f in polys)
    # 10 monomials of degree <= 2 in 3 variables, minus any zero draws
    assert all(f.num_terms() <= 10 for f in polys)


def test_gen_random_system_deterministic():
    a = gen_random_system(2, 3, 65521, 123)
    b = gen_random_system(2, 3, 65521, 123)
    c = gen_random_system(2, 3, 65521, 124)
    assert [f.coeffs for f in a] == [f.coeffs for f in b]
    assert [f.coeffs for f in a] != [f.coeffs for f in c]


def test_gen_random_system_validation():
    with pytest.raises(ValueError):
        gen_random_system(0, 2, 65521, 0)
    with pytest.raises(ValueError):
        gen_random_system(2, 0, 65521, 0)
    with pytest.raises(ValueError):
        gen_random_system(2, 2, 65520, 0)
