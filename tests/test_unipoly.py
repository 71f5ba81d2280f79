import random

import pytest

from conftest import reference_uni_divmod, reference_uni_mul

from sparsefglm.field import PrimeField
from sparsefglm.unipoly import (
    deg,
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
                assert uni_mul(f, g, F) == reference_uni_mul(f, g, F), (p, f, g)
                if g:
                    assert uni_divmod(f, g, F) == reference_uni_divmod(f, g, F), (p, f, g)
        # a product divides exactly; a constant divisor leaves no remainder
        f, g = poly(9), poly(4)
        assert uni_divmod(uni_mul(f, g, F), g, F) == (f, [])
        assert uni_divmod(f, [1], F) == (f, [])


# every prime width the field packing meets: one byte, two, four, eight,
# and the int.from_bytes path above eight
PRIMES = [2, 3, 5, 7, 65521, 2**61 - 1, 618970019642690137449562111]
LENGTHS = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 1024]


@pytest.mark.parametrize("p", PRIMES)
def test_packed_arithmetic_matches_schoolbook_oracles(p):
    """Products and divisions agree with the schoolbook oracles on random
    operands: every pair of lengths up to 89, and each longer length against
    itself, against a short operand and against half its length, divisors
    longer than the dividend included."""
    F = PrimeField(p)
    rng = random.Random(p)

    def poly(length):
        if length == 0:
            return []
        return [rng.randrange(p) for _ in range(length - 1)] + [rng.randrange(1, p)]

    short = [L for L in LENGTHS if L <= 89]
    pairs = [(a, b) for a in short for b in short]
    for L in LENGTHS[len(short) :]:
        pairs += [(L, L), (L, 3), (3, L), (L, L // 2 + 1), (L // 2, L)]
    for lf, lg in pairs:
        f, g = poly(lf), poly(lg)
        assert uni_mul(f, g, F) == reference_uni_mul(f, g, F), (p, lf, lg)
        if g:
            assert uni_divmod(f, g, F) == reference_uni_divmod(f, g, F), (p, lf, lg)


@pytest.mark.parametrize("p", PRIMES)
def test_packed_fields_hold_the_largest_values(p):
    """Operands of p - 1 at the longest lengths fill the packed fields up to
    their bounds, min(len) (p-1)^2 for a product and (p-1) + k (p-1)^2 for a
    division with quotient length k; a field one width step narrower would
    carry into its neighbour."""
    F = PrimeField(p)
    top = [p - 1] * 1024
    for lg in (1024, 512):
        # (p-1)^2 = 1, so coefficient i counts the products that meet there
        want = trim([min(i + 1, lg, 1024 + lg - 1 - i) % p for i in range(1024 + lg - 1)])
        assert uni_mul(top, top[:lg], F) == want
    # g of p - 1 and a quotient of ones: each step adds (p-1) * g, so the
    # remainder fields take k additions of (p-1)^2 each
    g, k = top[:513], 512
    f = uni_add(reference_uni_mul([1] * k, g, F), top[:512], F)
    assert uni_divmod(f, g, F) == ([1] * k, top[:512])


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
    assert uni_xgcd([], [], F11) == ([], [1])


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


def _radical_corpus(p: int, count: int, seed: int):
    """Seeded products of random monic factors of degree 1 to 3, times a unit,
    each factor to a power in {1, 2, 3, p, 2p, p + 1, p^2}, the powers that
    keep it at degree 32 or less."""
    F = PrimeField(p)
    rng = random.Random(seed)
    for _ in range(count):
        f = [rng.randrange(1, p)]
        for _ in range(rng.randint(1, 4)):
            g = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
            m = rng.choice([m for m in (1, 2, 3, p, 2 * p, p + 1, p * p) if m * deg(g) <= 32])
            for _ in range(m):
                f = uni_mul(f, g, F)
        yield F, f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101, 65521])
def test_squarefree_part_is_the_radical_on_seeded_products(p):
    """r = squarefree_part(f) is monic, divides f and is squarefree, and
    every prime of f divides r: dividing f by gcd(f, r) over and over
    reaches a constant."""
    for F, f in _radical_corpus(p, 60, seed=p):
        r = squarefree_part(f, F)
        assert r[-1] == 1 and uni_mod(f, r, F) == [], f
        assert deg(uni_gcd(r, uni_derivative(r, F), F)) == 0, f
        while deg(g := uni_gcd(f, r, F)) > 0:
            f = uni_divmod(f, g, F)[0]
        assert deg(f) == 0


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
