import math

import pytest

from sparsefglm.field import PrimeField, _is_prime, _strong_lucas, field_codec

# 1287836182261 * 2575672364521, the least strong pseudoprime to all twelve
# prime bases 2..37 (Sorenson-Webster): Miller-Rabin to those bases passes it
SORENSON_WEBSTER = 3317044064679887385961981


def test_rejects_composite_modulus():
    # 5459, 5777 and 10877 are strong Lucas pseudoprimes, so Miller-Rabin rejects them
    assert SORENSON_WEBSTER == 1287836182261 * 2575672364521
    for bad in (0, 1, 4, 91, 65520, 5459, 5777, 10877, SORENSON_WEBSTER):
        with pytest.raises(ValueError, match=f"modulus {bad} is not prime"):
            PrimeField(bad)


def test_accepts_word_sized_primes():
    for p in (2, 3, 11, 65521, 2**31 - 1):
        assert PrimeField(p).p == p


def test_accepts_mersenne_primes_on_both_sides_of_the_bound():
    # 2^89 - 1 and 2^127 - 1 lie past SORENSON_WEBSTER, where the Lucas test runs too
    for p in (2**61 - 1, 2**89 - 1, 2**127 - 1):
        assert PrimeField(p).p == p


def test_strong_lucas_passes_primes_and_its_known_pseudoprimes():
    """Below 30,000 the odd non-squares past 37 that the strong Lucas test
    with Selfridge's parameters passes are the primes and the first eight
    strong Lucas pseudoprimes (OEIS A217255).  It passes the Mersenne primes
    2^89 - 1 and 2^127 - 1 and fails SORENSON_WEBSTER."""

    def slow(n):
        return all(n % k for k in range(2, math.isqrt(n) + 1))

    passed = {n for n in range(39, 30000, 2) if math.isqrt(n) ** 2 != n and _strong_lucas(n)}
    pseudo = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
    assert sorted(n for n in passed if not slow(n)) == pseudo
    assert all(n in passed for n in range(39, 30000, 2) if slow(n))
    assert _strong_lucas(2**89 - 1) and _strong_lucas(2**127 - 1)
    assert not _strong_lucas(SORENSON_WEBSTER)


def test_is_prime_agrees_with_trial_division():
    def slow(n):
        return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))

    assert all(_is_prime(n) == slow(n) for n in range(2000))


def test_each_modulus_is_proved_prime_once():
    # parse_system and gen_random_system build a field per call; the
    # Miller-Rabin rounds run on the first construction of a modulus only
    PrimeField(2**61 - 1)
    before = _is_prime.cache_info()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    after = _is_prime.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert after.maxsize is not None  # bounded: one entry per distinct modulus at most


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


@pytest.mark.parametrize("bound", [1, 255, 256, 65521**2, 2**64, 2**64 + 1, 2**200])
def test_field_codec_width_and_round_trip(bound):
    """Both paths, struct (bound <= 2^64) and slice (above), take any iterable
    of ints and give field i at bit bits * i."""
    for count in (1, 5):
        bits, pack, unpack = field_codec(count, bound)
        width = bits // 8
        # whole bytes, the smallest power of two of them with 8 * width >= bit_length(bound)
        assert bits == 8 * width and width & (width - 1) == 0 and bits >= bound.bit_length()
        assert width == 1 or 4 * width < bound.bit_length()
        values = [bound, 0, 1, bound // 2, bound - 1][:count]
        x = pack(values)
        assert x == sum(a << bits * i for i, a in enumerate(values))
        # a list, a tuple, a row of `zip(*columns)` as `SparseMat.complete`
        # packs it, and a one-pass iterator
        for row in (values, tuple(values), next(zip(*[[a] for a in values])), map(int, values)):
            assert pack(row) == x and list(unpack(x)) == values
        # made once per (count, width)
        assert field_codec(count, bound)[1] is pack
