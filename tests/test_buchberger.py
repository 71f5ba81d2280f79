import importlib
import math
from itertools import combinations, product
from operator import sub

import pytest

from sparsefglm.bms import is_gb
from sparsefglm.buchberger import RANK_LIMIT, buchberger, gen_random_system
from sparsefglm.fglm import classic_fglm
from sparsefglm.field import PrimeField
from sparsefglm.poly import MultiPoly, mp_mul_term, mp_sub, normal_form, reduce_rows
from sparsefglm.terms import MAX_EXP, divides, drl_key, term_codec
from sparsefglm.quotient import QuotientStructure
from sparsefglm.sysio import parse_system

# the module, which the package's `buchberger` function shadows as an attribute
buchberger_module = importlib.import_module("sparsefglm.buchberger")

from conftest import (
    GF11_TEXT,
    GF2_TEXT,
    basis_strs,
    normal_form_linear_scan,
    reference_buchberger,
)


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
        lts = [g.lt("drl") for g in gb.polys]
        for i, g in enumerate(gb.polys):
            assert g.lc("drl") == 1
            for j, lt_j in enumerate(lts):
                if j != i:
                    assert not any(divides(lt_j, t) for t in g.coeffs)


def test_empty_input_rejected():
    F = PrimeField(11)
    with pytest.raises(ValueError):
        buchberger([MultiPoly.zero(2)], "drl", F)


# primes from one bit up to fields wider than 8 bytes ((p-1)^2 needs 122 and
# 178 bits at the last two)
DIFF_PRIMES = [2, 3, 5, 7, 65521, 2**61 - 1, 618970019642690137449562111]


def assert_matches_reference(F, polys):
    assert basis_strs(buchberger(polys, "drl", F)) == basis_strs(
        reference_buchberger(polys, "drl", F)
    )


@pytest.mark.parametrize("p", DIFF_PRIMES)
@pytest.mark.parametrize("n,d", [(1, 4), (2, 8), (3, 3), (4, 2), (4, 3)])
def test_matches_reference_on_random_systems(n, d, p):
    F = PrimeField(p)
    for seed in range(1 if (n, d) == (4, 3) else 3):
        assert_matches_reference(F, gen_random_system(n, d, p, 41800000 + seed))


def test_matches_reference_on_worked_texts():
    for text in (GF11_TEXT, GF2_TEXT):
        assert_matches_reference(*parse_system(text))


@pytest.mark.parametrize("p", [7, 65521])
def test_matches_reference_on_sparse_wide_family(p):
    # x1^k + x2 + 1, x1*x2^2 + 3: few terms spread over a rank span that grows
    # with k^2
    for k in range(1, 61):
        assert_matches_reference(*parse_system(f"p {p}\nvars 2\nx1^{k} + x2 + 1\nx1*x2^2 + 3\n"))


def test_input_containing_one():
    F, polys = parse_system("p 65521\nvars 2\nx1^2 + x2\n5\nx1*x2 + 3*x2^2\n")
    assert basis_strs(buchberger(polys, "drl", F)) == ["1"]
    assert_matches_reference(F, polys)


@pytest.mark.parametrize("p", [2, 65521, 2**61 - 1])
def test_fields_hold_the_largest_values(p):
    # g = 1 + x + ... + x^300 and f = g^2, both with coefficients 1: every
    # multiplier of g's row is p - 1, and the S-polynomial x^300 g - f reduces
    # by g over a chain of 300 pivots, each p - 1, so a middle field gathers
    # 300 (p-1)^2 before it is read: more than a field one width step below
    # that of the bound (p-1) + RANK_LIMIT (p-1)^2 holds (at p = 2, 300 > 255)
    F = PrimeField(p)
    g = MultiPoly(1, {(e,): 1 for e in range(301)})
    f = MultiPoly(1, {(e,): (min(e, 600 - e) + 1) % p for e in range(601)})
    assert basis_strs(buchberger([g, f], "drl", F)) == basis_strs([g])
    assert_matches_reference(F, [g, f])


@pytest.mark.parametrize(
    "text",
    [
        # leading terms pairwise coprime, so no S-pair is reduced and no tail
        # is reducible; the ranks up to x1^200 number C(204, 4), about 70.7M
        "p 65521\nvars 4\nx1^200 + x4\nx2\nx3\nx4^2\n",
        # S-pairs from degree 301 down, each on a few terms
        "p 65521\nvars 3\nx1^300 + x2 + x3\nx1*x2 + x3\nx3^2 + 1\n",
    ],
)
def test_sparse_high_degree_inputs_stay_within_the_rank_limit(monkeypatch, text):
    F, polys = parse_system(text)
    n = polys[0].n
    top = max(sum(t) for g in polys for t in g.coeffs)
    assert RANK_LIMIT < math.comb(top + n, n)
    calls = []

    def counting_reduce_rows(*args):
        calls.append(args)
        return reduce_rows(*args)

    monkeypatch.setattr(buchberger_module, "reduce_rows", counting_reduce_rows)
    assert_matches_reference(F, polys)
    # the ranks up to the top degree outnumber the limit, so the reductions
    # up there, the final one of x1^200 + x4 included, ran on the heap loop
    assert calls


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_table_numbers_terms_in_drl_order(n):
    C = term_codec(n, "drl")
    for limit in (1, 30, RANK_LIMIT):
        terms, ranks = buchberger_module._rank_table(n, limit)
        top = max(d for d in range(limit) if math.comb(d + n, n) <= limit)
        want = sorted(
            (t for t in product(range(top + 1), repeat=n) if sum(t) <= top),
            key=drl_key,
        )
        assert len(terms) == math.comb(top + n, n)
        assert terms == [C.pack(t) for t in want]
        assert ranks == {x: r for r, x in enumerate(terms)}
    # each limit has its own table in one process
    assert len(buchberger_module._rank_table(n, 30)[0]) < len(
        buchberger_module._rank_table(n, RANK_LIMIT)[0]
    )


@pytest.mark.parametrize("limit", [1, 30, 200])
def test_heap_path_past_the_rank_limit_matches_reference(monkeypatch, limit):
    # a low limit sends the S-pairs and final rows above a small degree to the
    # heap loop, so one run mixes both paths over the same table
    monkeypatch.setattr(buchberger_module, "RANK_LIMIT", limit)
    for n, d in [(1, 4), (2, 6), (3, 3), (4, 2)]:
        for p in (7, 65521):
            assert_matches_reference(PrimeField(p), gen_random_system(n, d, p, 41810000 + n))
    for k in (5, 17, 40):
        assert_matches_reference(*parse_system(f"p 65521\nvars 2\nx1^{k} + x2 + 1\nx1*x2^2 + 3\n"))


def test_rejects_orderings_other_than_drl():
    F, polys = parse_system(GF11_TEXT)
    with pytest.raises(ValueError, match="'lex'"):
        buchberger(polys, "lex", F)


def test_exponent_overflow_raises():
    # the lcm x1^MAX_EXP * x2 of the two leading terms leaves its field
    F = PrimeField(11)
    polys = [MultiPoly(2, {(MAX_EXP, 0): 1}), MultiPoly(2, {(1, 1): 1, (0, 0): 1})]
    for gb in (buchberger, reference_buchberger):
        with pytest.raises(ValueError, match="MAX_EXP"):
            gb(polys, "drl", F)


def test_gen_random_system_shape():
    polys = gen_random_system(3, 2, 65521, 7)
    assert len(polys) == 3
    assert all(f.n == 3 for f in polys)
    assert all(max(sum(t) for t in f.coeffs) <= 2 for f in polys)
    # 10 monomials of degree <= 2 in 3 variables, minus any zero draws
    assert all(len(f.coeffs) <= 10 for f in polys)


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
