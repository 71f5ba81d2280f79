"""Arithmetic over a prime field GF(p).

Elements are plain ints in [0, p).  The class only carries the modulus and
the handful of operations the rest of the package needs; everything stays
exact.  `field_codec` packs many elements, or sums of their products, into
one int of fixed-width fields, for matrix rows and polynomial products.
"""

from __future__ import annotations

import math
import struct
from functools import cache, lru_cache
from operator import mul


@lru_cache(maxsize=64, typed=True)
def _is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..37, a proof below 3317044064679887385961981 (the least
    strong pseudoprime to all twelve, Sorenson-Webster); at and above it also a strong Lucas
    test (Baillie-PSW), which has no known counterexample but is not a proof."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < 3317044064679887385961981 or math.isqrt(n) ** 2 != n and _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    a, t = a % n, 1
    while a:
        while a % 2 == 0:
            a, t = a // 2, -t if n % 8 in (3, 5) else t
        t = -t if a % 4 == n % 4 == 3 else t
        a, n = n % a, a
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas test of an odd non-square n > 37 with Selfridge's parameters (D the first of
    5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4): U_d = 0 or V_(d 2^r) = 0, r < s."""
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d 2^s, d odd
    d, Q, half = (n + 1) >> s, (1 - D) // 4, (n + 1) // 2
    U, V, Qk = 0, 2, 1  # U_k, V_k and Q^k from k = 0: each bit of d doubles k, a 1 adds one
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    zero = U == 0
    for _ in range(s):
        zero, V, Qk = zero or V == 0, (V * V - 2 * Qk) % n, Qk * Qk % n
    return j == -1 and zero


class PrimeField:
    """GF(p) for a prime modulus p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.p)

    def dot(self, u, v) -> int:
        """Inner product of two equal-length int vectors."""
        return sum(map(mul, u, v)) % self.p


def field_codec(count: int, bound: int):
    """(bits, pack, unpack) for `count` unsigned fields of bits = 8w bits, w the
    smallest power of two with 8w >= bit_length(bound): pack(values) gives the int
    with the i-th value at bit bits * i, unpack(x) the fields of int x.  A struct
    format up to w = 8, `int.from_bytes` slices above; made once per (count, w)."""
    # bit_length L needs ceil(L / 8) bytes, rounded up to a power of two
    return _field_codec(count, 1 << ((max(bound.bit_length(), 1) - 1) // 8).bit_length())


@cache
def _field_codec(count: int, width: int):
    nbytes, zero = count * width, bytes(width)
    if width <= 8:
        fmt = struct.Struct(f"<{count}{'BHIQ'[width.bit_length() - 1]}")
        join, split = fmt.pack, fmt.unpack
    else:
        def join(*values: int) -> bytes:
            return b"".join([a.to_bytes(width, "little") if a else zero for a in values])

        def split(b: bytes) -> list[int]:
            return [int.from_bytes(b[at : at + width], "little") for at in range(0, nbytes, width)]

    def pack(values) -> int:
        return int.from_bytes(join(*values), "little")

    def unpack(x: int):
        return split(x.to_bytes(nbytes, "little"))

    return 8 * width, pack, unpack
