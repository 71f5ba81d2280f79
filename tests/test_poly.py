import random

import pytest

from sparsefglm.field import PrimeField
from sparsefglm.poly import Fail, GroebnerBasis, MultiPoly, make_row, normal_form, reducer_row, row_poly
from sparsefglm.buchberger import buchberger, gen_random_system
from sparsefglm.quotient import QuotientStructure
from sparsefglm.terms import MAX_EXP, term_codec

from conftest import mp_mul_term, mp_sub, normal_form_linear_scan, reference_buchberger, term_key

F11 = PrimeField(11)


def test_constructor_drops_zero_coefficients():
    f = MultiPoly(2, {(1, 0): 0, (0, 1): 3, (0, 0): 0})
    assert f.coeffs == {(0, 1): 3}
    assert MultiPoly(2).is_zero()
    assert MultiPoly(2, {(0, 0): 13 % 11}).coeffs == {(0, 0): 2}


def test_uni_round_trip():
    f = MultiPoly.from_uni(3, [9, 8, 0, 0, 1])
    assert f.coeffs == {(0, 0, 0): 9, (1, 0, 0): 8, (4, 0, 0): 1}
    assert f.to_uni() == [9, 8, 0, 0, 1]
    g = MultiPoly(2, {(0, 1): 1})
    with pytest.raises(ValueError):
        g.to_uni()


def test_leading_term_depends_on_ordering():
    f = MultiPoly(2, {(3, 0): 5, (0, 1): 7, (0, 0): 1})
    assert f.lt("drl") == (3, 0)
    assert f.coeffs[f.lt("drl")] == 5
    assert f.lt("lex") == (0, 1)
    assert f.coeffs[f.lt("lex")] == 7
    with pytest.raises(ValueError):
        MultiPoly(2).lt("drl")


def test_mul_term():
    """A row times a term is the row moved to the product's leading term,
    its tail unchanged, under either ordering."""
    f = MultiPoly(2, {(1, 0): 1, (0, 1): 1, (0, 0): 4})
    for ordering in ("drl", "lex"):
        codec = term_codec(2, ordering)
        lt, tail = reducer_row(f, ordering, F11)
        moved = (lt + codec.pack((1, 1)) - codec.offset, tail)
        assert row_poly(moved, codec, F11).coeffs == {(2, 1): 1, (1, 2): 1, (1, 1): 4}


def test_monic():
    """make_row makes the row of the monic polynomial, whatever the leading
    coefficient; row_poly gives that polynomial back."""
    codec = term_codec(2, "drl")
    row = make_row([(codec.pack((2, 0)), 3), (codec.pack((0, 0)), 6)], F11)
    assert row == (codec.pack((2, 0)), [(codec.pack((0, 0)) - codec.pack((2, 0)), 9)])
    assert row_poly(row, codec, F11).coeffs == {(2, 0): 1, (0, 0): 2}
    assert row_poly(row, codec, F11).lt("drl") == (2, 0)


def test_normal_form_against_known_basis():
    # x2^2 = -(9 x2 + 2 x1 + 6) modulo the first generator
    g = MultiPoly(3, {(0, 2, 0): 1, (0, 1, 0): 9, (1, 0, 0): 2, (0, 0, 0): 6})
    f = MultiPoly(3, {(0, 2, 0): 1})
    nf = normal_form(f, [g], "drl", F11)
    assert nf.coeffs == {(0, 1, 0): 2, (1, 0, 0): 9, (0, 0, 0): 5}


def test_normal_form_prefers_smallest_leading_term():
    g_small = MultiPoly(2, {(1, 0): 1, (0, 0): 2})  # lt x1
    g_big = MultiPoly(2, {(1, 1): 1, (0, 0): 1})  # lt x1*x2
    f = MultiPoly(2, {(1, 1): 1})
    nf = normal_form(f, [g_big, g_small], "drl", F11)
    # reduction through x1 + 2 leaves 9*x2, not the constant route through x1*x2 + 1
    assert nf.coeffs == {(0, 1): 9}


def random_poly(rng, n, deg, terms, p):
    return MultiPoly(
        n,
        {
            tuple(rng.randrange(deg + 1) for _ in range(n)): rng.randrange(1, p)
            for _ in range(terms)
        },
    )


@pytest.mark.parametrize("ordering", ["drl", "lex"])
@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_normal_form_matches_linear_scan_oracle(ordering, p):
    F = PrimeField(p)
    rng = random.Random(411)
    grown = 0
    for _ in range(100):
        n = rng.randrange(1, 6)
        k = rng.randrange(4)
        reducers = [random_poly(rng, n, 2, rng.randrange(1, 4), p) for _ in range(k)]
        if ordering == "lex" and n > 1:
            # the reduce_set pattern: a tail with more x1 than its leading
            # term, so x1 exponents grow past the inputs'
            xn = (0,) * (n - 1) + (1,)
            x1_cubed = (3,) + (0,) * (n - 1)
            reducers.append(MultiPoly(n, {xn: 1, x1_cubed: rng.randrange(1, p)}))
        f = random_poly(rng, n, 4, rng.randrange(1, 9), p)
        got = normal_form(f, reducers, ordering, F)
        assert got == normal_form_linear_scan(f, reducers, ordering, F)
        inputs = [f, *reducers]
        if max((t[0] for t in got.coeffs), default=0) > max(t[0] for g in inputs for t in g.coeffs):
            grown += 1
    assert ordering == "drl" or grown > 50


@pytest.mark.parametrize("ordering", ["drl", "lex"])
def test_exponent_past_the_field_width_raises(ordering):
    top = MultiPoly(2, {(MAX_EXP, 0): 1})
    assert normal_form(top, [], ordering, F11) == top
    with pytest.raises(ValueError):
        normal_form(MultiPoly(2, {(MAX_EXP + 1, 0): 1}), [], ordering, F11)
    # a DRL reduction never raises the total degree, so only input overflows
    if ordering == "lex":
        # x2 -> -x1^MAX_EXP, so x1*x2 reduces to a power one past the field
        g = MultiPoly(2, {(0, 1): 1, (MAX_EXP, 0): 1})
        assert normal_form(MultiPoly(2, {(0, 1): 1}), [g], "lex", F11) == MultiPoly(
            2, {(MAX_EXP, 0): 10}
        )
        with pytest.raises(ValueError):
            normal_form(MultiPoly(2, {(1, 1): 1}), [g], "lex", F11)


@pytest.mark.parametrize("ordering", ["drl", "lex"])
def test_leading_term_past_max_exp_raises(ordering):
    """lt packs the terms, so a term past MAX_EXP raises as every packed
    path does; MAX_EXP itself still packs."""
    assert MultiPoly(2, {(MAX_EXP, 0): 1, (0, 1): 2}).lt(ordering) == (
        (MAX_EXP, 0) if ordering == "drl" else (0, 1)
    )
    with pytest.raises(ValueError, match="MAX_EXP"):
        MultiPoly(2, {(MAX_EXP + 1, 0): 1, (0, 1): 2}).lt(ordering)


def test_cached_leading_terms_match_uncached_scan():
    rng = random.Random(7)
    for _ in range(50):
        f = random_poly(rng, 3, 4, rng.randrange(1, 10), 65521)
        for ordering in ("drl", "lex", "drl", "lex", "lex", "drl"):
            assert f.lt(ordering) == max(f.coeffs, key=term_key(ordering))


def test_normal_form_of_member_is_zero():
    g = MultiPoly(2, {(1, 0): 1, (0, 0): 2})
    # g * (3*x2 + x1)
    f = MultiPoly(2, {(1, 1): 3, (0, 1): 6, (2, 0): 1, (1, 0): 2})
    assert normal_form(f, [g], "drl", F11).is_zero()


def test_reduce_basis_minimalizes_and_sorts():
    """buchberger of a redundant Groebner basis (a leading term divisible by
    another, a zero and a non-monic member) is its reduced basis, sorted."""
    redundant = [
        MultiPoly(2, {(1, 0): 2, (0, 0): 2}),
        MultiPoly(2, {(2, 0): 1, (1, 0): 1}),  # lt divisible by x1
        MultiPoly(2),
        MultiPoly(2, {(0, 2): 3}),
    ]
    out = buchberger(redundant, "drl", F11).polys
    assert [f.coeffs for f in out] == [{(1, 0): 1, (0, 0): 1}, {(0, 2): 1}]


@pytest.mark.parametrize("n,d,p", [(2, 8, 65521), (4, 2, 65521), (3, 3, 7), (2, 6, 5)])
def test_interreduce_rows_matches_reference(n, d, p):
    """buchberger of a spoiled DRL Groebner basis is the reduced basis, as
    the reference interreduction gives it.  Input: the reduced basis of a
    random system, each member's tail spoiled by scaled multiples of the
    basis elements below it, and scaled copies and term multiples of it
    appended; leading terms stay, so it is a Groebner basis.  QuotientStructure
    rejects the spoiled basis."""
    F = PrimeField(p)
    for seed in range(3):
        rng = random.Random(seed)
        polys = buchberger(gen_random_system(n, d, p, 41600000 + seed), "drl", F).polys
        spoiled = []
        for i, g in enumerate(polys):
            for h in polys[:i]:
                g = mp_sub(g, mp_mul_term(h, (0,) * n, rng.randrange(p), F), F)
            spoiled.append(mp_mul_term(g, (0,) * n, rng.randrange(1, p), F))
        extra = [mp_mul_term(g, (0,) * (n - 1) + (1,), rng.randrange(1, p), F) for g in spoiled]
        inputs = spoiled + extra + [mp_mul_term(g, (0,) * n, 2 % p or 1, F) for g in spoiled[::2]]
        rng.shuffle(inputs)
        assert buchberger(inputs, "drl", F).polys == polys
        assert reference_buchberger(inputs, "drl", F).polys == polys
        with pytest.raises(ValueError, match="not reduced"):
            QuotientStructure(GroebnerBasis(inputs, "drl"), F)


def test_equality_and_hash():
    f = MultiPoly(2, {(1, 0): 1})
    assert f == MultiPoly(2, {(1, 0): 1, (0, 1): 0})
    assert f != MultiPoly(3, {(1, 0, 0): 1})
    assert hash(f) == hash(MultiPoly(2, {(1, 0): 1, (0, 1): 0}))


def test_repr_orders_terms_drl_descending():
    f = MultiPoly(2, {(0, 0): 9, (2, 0): 1, (0, 1): 6})
    assert repr(f) == "x1^2 + 6*x2 + 9"
    assert repr(MultiPoly(2)) == "0"


def test_fail_carries_reason():
    f = Fail("probe saw a proper factor")
    assert f.reason == "probe saw a proper factor"
    assert "probe saw a proper factor" in repr(f)


def test_groebner_basis_container():
    g = MultiPoly(2, {(1, 0): 1})
    h = MultiPoly(2, {(0, 1): 1})
    gb = GroebnerBasis([g, h], "drl")
    assert gb.n == 2
    assert [f.lt(gb.ordering) for f in gb.polys] == [(1, 0), (0, 1)]
    assert gb == GroebnerBasis([g, h], "drl")
    assert gb != GroebnerBasis([h, g], "drl")
    with pytest.raises(ValueError):
        GroebnerBasis([], "drl")
