import pytest

from sparsefglm.field import PrimeField, _is_prime


def test_rejects_composite_modulus():
    for bad in (0, 1, 4, 91, 65520):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_accepts_word_sized_primes():
    for p in (2, 3, 11, 65521, 2**31 - 1):
        assert PrimeField(p).p == p


def test_is_prime_agrees_with_trial_division():
    def slow(n):
        return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))

    assert all(_is_prime(n) == slow(n) for n in range(2000))


def test_norm_maps_into_range():
    F = PrimeField(11)
    assert F.norm(-1) == 10
    assert F.norm(22) == 0
    assert F.norm(7) == 7


def test_ring_operations():
    F = PrimeField(11)
    # callers work on plain ints and reduce with norm (or % p)
    assert F.norm(9 + 5) == 3
    assert F.norm(2 - 5) == 8
    assert F.norm(7 * 8) == 1
    assert F.norm(-4) == 7
    assert F.norm(-0) == 0


def test_inverses_over_full_group():
    for p in (2, 11, 101):
        F = PrimeField(p)
        for a in range(1, p):
            assert a * F.inv(a) % p == 1
        assert F.inv(1) == 1


def test_inverse_of_zero_raises():
    F = PrimeField(11)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.inv(22)


def test_dot_product():
    F = PrimeField(11)
    assert F.dot([1, 2, 3], [4, 5, 6]) == (4 + 10 + 18) % 11
    assert F.dot([], []) == 0
    assert F.dot([10, 10], [10, 10]) == 200 % 11


def test_equality_and_hash():
    assert PrimeField(11) == PrimeField(11)
    assert PrimeField(11) != PrimeField(13)
    assert hash(PrimeField(11)) == hash(PrimeField(11))
    assert PrimeField(11) != 11
