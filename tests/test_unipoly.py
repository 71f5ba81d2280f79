import random

import pytest

from sparsefglm.field import PrimeField
from sparsefglm.unipoly import (
    deg,
    is_zero,
    squarefree_part,
    trim,
    uni_add,
    uni_crt,
    uni_derivative,
    uni_divmod,
    uni_gcd,
    uni_mod,
    uni_monic,
    uni_mul,
    uni_pth_root,
    uni_scale,
    uni_sub,
    uni_xgcd,
)

F2 = PrimeField(2)
F11 = PrimeField(11)


def test_zero_conventions():
    assert trim([0, 0]) == []
    assert trim([1, 0]) == [1]
    assert deg([]) == -1
    assert deg([7]) == 0
    assert is_zero([]) and not is_zero([1])


def test_add_sub_scale():
    f, g = [1, 2, 3], [10, 9]
    assert uni_add(f, g, F11) == [0, 0, 3]
    assert uni_sub(f, f, F11) == []
    assert uni_scale(f, 0, F11) == []
    assert uni_scale([1, 1], 6, F11) == [6, 6]


def test_mul_and_monic():
    assert uni_mul([10, 1], [1, 1], F11) == [10, 0, 1]  # (x-1)(x+1) = x^2 - 1
    assert uni_mul([], [1, 2], F11) == []
    assert uni_monic([4, 0, 2], F11) == [2, 0, 1]
    assert uni_monic([], F11) == []


def test_divmod_reconstruction():
    f = [3, 1, 4, 1, 5]
    g = [2, 7, 1]
    q, r = uni_divmod(f, g, F11)
    assert deg(r) < deg(g)
    assert uni_add(uni_mul(q, g, F11), r, F11) == f
    with pytest.raises(ZeroDivisionError):
        uni_divmod(f, [], F11)


def _schoolbook_mul(f, g, p):
    out = [0] * max(0, len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim([c % p for c in out])


def _schoolbook_divmod(f, g, p):
    r = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv = pow(g[-1], -1, p)
    for i in range(len(q) - 1, -1, -1):
        q[i] = r[i + len(g) - 1] * inv % p
        for j, b in enumerate(g):
            r[i + j] = (r[i + j] - q[i] * b) % p
    return trim(q), trim(r)


def test_mul_and_divmod_match_schoolbook():
    """Seeded operands with zero, constant and leading-zero-free random
    polynomials of unequal lengths: the kernels give the schoolbook answers,
    coefficient for coefficient."""
    rng = random.Random(77)
    for p in (2, 65521):
        F = PrimeField(p)

        def poly(length):
            if length == 0:
                return []
            return [rng.randrange(p) for _ in range(length - 1)] + [rng.randrange(1, p)]

        lengths = [0, 1, 1, 2, 3, 5, 8, 13, 30]
        for lf in lengths:
            for lg in lengths:
                f, g = poly(lf), poly(lg)
                assert uni_mul(f, g, F) == _schoolbook_mul(f, g, p), (p, f, g)
                if g:
                    assert uni_divmod(f, g, F) == _schoolbook_divmod(f, g, p), (p, f, g)
        # a product divides exactly; a constant divisor leaves no remainder
        f, g = poly(9), poly(4)
        assert uni_divmod(uni_mul(f, g, F), g, F) == (f, [])
        assert uni_divmod(f, [1], F) == (f, [])


def test_gcd_and_xgcd():
    # gcd(x^2 - 1, x^2 - 2x + 1) = x - 1
    f, g = [10, 0, 1], [1, 9, 1]
    assert uni_gcd(f, g, F11) == [10, 1]
    d, s = uni_xgcd(f, g, F11)
    assert d == [10, 1]
    assert uni_mod(uni_mul(s, f, F11), g, F11) == d
    # coprime inputs: s inverts f modulo g
    d, s = uni_xgcd([1, 1], [2, 0, 1], F11)
    assert d == [1]
    assert uni_mod(uni_mul(s, [1, 1], F11), [2, 0, 1], F11) == [1]
    assert uni_gcd([], [0, 0, 3], F11) == [0, 0, 1]


def test_derivative():
    assert uni_derivative([5, 3, 2], F11) == [3, 4]
    assert uni_derivative([7], F11) == []
    # derivative kills p-th powers: d/dx of x^11 + 1 over GF(11)
    assert uni_derivative([1] + [0] * 10 + [1], F11) == []


def test_pth_root():
    assert uni_pth_root([1, 0, 1], F2) == [1, 1]  # x^2 + 1 = (x + 1)^2
    assert uni_pth_root([1, 0, 0, 1], PrimeField(3)) == [1, 1]
    with pytest.raises(ValueError):
        uni_pth_root([0, 1], F2)


def test_squarefree_part_known_values():
    # x^4 + 8x + 9 = (x - 4)^2 (x^2 + 8x + 4) over GF(11)
    assert squarefree_part([9, 8, 0, 0, 1], F11) == [6, 5, 4, 1]
    # (x+1)^2 (x^2+x+1) over GF(2) -> (x+1)(x^2+x+1) = x^3 + 1
    assert squarefree_part([1, 1, 0, 1, 1], F2) == [1, 0, 0, 1]
    # x^7 + x^6 + x + 1 over GF(2) has the same distinct factors
    assert squarefree_part([1, 1, 0, 0, 0, 0, 1, 1], F2) == [1, 0, 0, 1]
    assert squarefree_part([5], F11) == [1]


def test_squarefree_part_through_pth_power():
    # (x + 1)^3 = x^3 + 1 over GF(3): derivative vanishes, root extraction path
    F3 = PrimeField(3)
    assert squarefree_part([1, 0, 0, 1], F3) == [1, 1]


def test_squarefree_part_is_squarefree_and_divides():
    f = uni_mul(uni_mul([3, 1], [3, 1], F11), [5, 0, 1], F11)
    sf = squarefree_part(f, F11)
    assert uni_mod(f, sf, F11) == []
    assert deg(uni_gcd(sf, uni_derivative(sf, F11), F11)) == 0


def test_crt_two_pieces_gf2():
    glued = uni_crt([[1], [0, 1]], [[1, 1], [1, 1, 1]], F2)
    assert glued == [0, 1]


def test_crt_interpolates_three_points():
    moduli = [[10, 1], [9, 1], [8, 1]]  # x-1, x-2, x-3
    residues = [[5], [7], [2]]
    f = uni_crt(residues, moduli, F11)
    assert deg(f) < 3
    for r, m in zip(residues, moduli):
        assert uni_mod(f, m, F11) == r


def test_crt_rejects_common_factor():
    with pytest.raises(ValueError):
        uni_crt([[1], [0]], [[10, 1], [10, 0, 1]], F11)
