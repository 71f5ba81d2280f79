"""Arithmetic over a prime field GF(p).

Elements are plain ints in [0, p).  The class only carries the modulus and
the handful of operations the rest of the package needs; everything stays
exact.
"""

from __future__ import annotations


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, valid far beyond 64 bits with this base set
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
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
    return True


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

    def norm(self, a: int) -> int:
        return a % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.p)

    def dot(self, u, v) -> int:
        """Inner product of two equal-length int vectors."""
        return sum(a * b for a, b in zip(u, v)) % self.p
