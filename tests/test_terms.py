import itertools
import random
from operator import sub

import pytest

from sparsefglm.terms import (
    MAX_EXP,
    divides,
    drl_key,
    lex_key,
    term_codec,
    term_key,
    term_mul,
    term_str,
    unit_term,
    var_term,
)


def test_drl_order_two_variables():
    # 1 < x1 < x2 < x1^2 < x1*x2 < x2^2 < x1^3 < ...
    want = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0)]
    assert sorted(want, key=drl_key) == want
    shuffled = list(reversed(want))
    assert sorted(shuffled, key=drl_key) == want


def test_lex_order_two_variables():
    # every power of x1 sits below x2
    want = [(0, 0), (1, 0), (2, 0), (9, 0), (0, 1), (1, 1), (0, 2)]
    assert sorted(want, key=lex_key) == want
    assert lex_key((5, 0)) < lex_key((0, 1))


def test_orders_differ_on_mixed_degrees():
    # x1^3 vs x2: DRL ranks by degree, LEX by the last variable
    assert drl_key((3, 0)) > drl_key((0, 1))
    assert lex_key((3, 0)) < lex_key((0, 1))


def test_drl_three_variables_matches_staircase_enumeration():
    terms = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    s = sorted(terms, key=drl_key)
    assert s[0] == (0, 0, 0)
    assert s[1:4] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    degs = [sum(t) for t in s]
    assert degs == sorted(degs)


def test_term_key_dispatch():
    assert term_key("drl") is drl_key
    assert term_key("lex") is lex_key
    with pytest.raises(ValueError):
        term_key("grevlex")


def test_mul_div_divides():
    a, b = (2, 1, 0), (1, 3, 2)
    assert term_mul(a, b) == (3, 4, 2)
    assert divides(a, term_mul(a, b))
    assert not divides(b, a)
    assert divides(unit_term(3), b)


def test_unit_and_var_terms():
    assert unit_term(3) == (0, 0, 0)
    assert var_term(3, 1) == (1, 0, 0)
    assert var_term(3, 3) == (0, 0, 1)
    assert sum(unit_term(4)) == 0


def test_term_str():
    assert term_str((0, 0)) == "1"
    assert term_str((1, 0)) == "x1"
    assert term_str((2, 3)) == "x1^2*x2^3"
    assert term_str((0, 1, 4)) == "x2*x3^4"


@pytest.mark.parametrize("ordering", ["drl", "lex"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_terms_order_multiply_and_divide_as_tuples(n, ordering):
    C = term_codec(n, ordering)
    assert term_codec(n, ordering) is C
    key = term_key(ordering)
    rng = random.Random(n)
    terms = [tuple(rng.randrange(5) for _ in range(n)) for _ in range(40)]
    for a in terms:
        assert C.unpack(C.pack(a)) == a
    for a, b in itertools.product(terms, repeat=2):
        pa, pb = C.pack(a), C.pack(b)
        assert (pa < pb) == (key(a) < key(b))
        assert C.check(pa + pb - C.offset) == C.pack(term_mul(a, b))
        assert ((pb - pa + C.lift) & C.guard == C.mark) == divides(a, b)
        if divides(a, b):
            assert pb - pa + C.offset == C.pack(tuple(map(sub, b, a)))


@pytest.mark.parametrize("ordering", ["drl", "lex"])
def test_packed_exponent_overflow_raises(ordering):
    C = term_codec(3, ordering)
    top = C.pack((MAX_EXP, 0, 0))
    x1, x3 = C.pack((1, 0, 0)), C.pack((0, 0, 1))
    for bad in [(MAX_EXP + 1, 0, 0), (0, -1, 0), (1, 1)]:
        with pytest.raises(ValueError):
            C.pack(bad)
    with pytest.raises(ValueError):
        C.check(top + x1 - C.offset)
    if ordering == "drl":  # the total degree is what must fit
        with pytest.raises(ValueError):
            C.pack((MAX_EXP, 0, 1))
        with pytest.raises(ValueError):
            C.check(top + x3 - C.offset)
    else:
        assert C.unpack(C.check(top + x3)) == (MAX_EXP, 0, 1)
    with pytest.raises(ValueError):
        term_codec(3, "grevlex")
