"""Prime sieving, integer factorization, and signed factorizations of positive rationals.

Every other module evaluates arithmetic functions through the factorizations
produced here, so this module sticks to exact integer arithmetic throughout.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

import numpy as np


class PrimePower(NamedTuple):
    """A single p**a term; a is negative only inside a SignedFactorization."""

    prime: int
    exponent: int


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (fine for n below ~10**12)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


@dataclass(frozen=True)
class Factorization:
    """n = prod p**a with strictly increasing primes and positive exponents.

    The empty tuple represents n = 1 (the empty product), not a special flag.
    """

    factors: tuple[PrimePower, ...]

    def __post_init__(self) -> None:
        last = 1
        for p, a in self.factors:
            if p <= last:
                raise ValueError("primes must be distinct and strictly increasing")
            if a <= 0:
                raise ValueError("exponents must be positive")
            last = p

    def __iter__(self) -> Iterator[PrimePower]:
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def value(self) -> int:
        n = 1
        for p, a in self.factors:
            n *= p**a
        return n


@dataclass(frozen=True)
class SignedFactorization:
    """A positive rational in lowest terms as prod p**e, e any nonzero integer.

    The empty tuple represents 1.
    """

    factors: tuple[PrimePower, ...]

    def __post_init__(self) -> None:
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("primes must be distinct and strictly increasing")
            if e == 0:
                raise ValueError("exponents must be nonzero")
            last = p

    def __iter__(self) -> Iterator[PrimePower]:
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def value(self) -> Fraction:
        x = Fraction(1)
        for p, e in self.factors:
            x *= Fraction(p) ** e
        return x


@dataclass(frozen=True, eq=False)
class SieveTable:
    """Smallest-prime-factor table for 2..limit; spf[n] is the least prime dividing n.

    spf[0] and spf[1] are unused filler; primes lists the primes <= limit in
    increasing order.  Memory is one machine word per integer up to the limit,
    plus the primes, and one more for split once tabulation builds it: two
    int32 arrays, half of what int64 would take.  spf stays a list, which
    factorize reads one entry at a time.  Treat as read-only after construction.
    """

    limit: int
    spf: list[int]
    primes: list[int]

    def smallest_prime_factor(self, n: int) -> int:
        if not 2 <= n <= self.limit:
            raise ValueError(f"n={n} outside sieve range [2, {self.limit}]")
        return self.spf[n]

    @functools.cached_property
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """(pk, rest), int32 arrays (int64 from 2**31) with n = pk[n] rest[n] and pk[n] the
        full power of spf(n) dividing n (pk[1] = rest[1] = 1).  The primes up to sqrt(limit),
        largest first, write their powers, lowest first, at their multiples (odd ones for odd
        p), so the last write at n is the full power of its least prime; primes keep pk[n] = n."""
        n = np.arange(self.limit + 1, dtype=np.int32 if self.limit < 2**31 else np.int64)
        pk = n.copy()
        for p in reversed(self.primes[: bisect.bisect_right(self.primes, math.isqrt(self.limit))]):
            q = p
            while q <= self.limit:
                pk[q :: q if p == 2 else 2 * q] = q
                q *= p
        return pk, n // np.maximum(pk, 1)


def build_sieve(limit: int) -> SieveTable:
    """Smallest-prime-factor table filled from the Eratosthenes pass of primes_up_to.

    Entries start at 2; the odd primes up to sqrt(limit), largest first, overwrite
    their odd multiples from p*p on, so the least prime factor is written last.
    """
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    spf = [2] * (limit + 1)
    spf[0] = spf[1] = 0
    root = math.isqrt(limit)
    primes = primes_up_to(limit)
    for p in reversed(primes):
        if 2 < p <= root:
            spf[p * p :: 2 * p] = [p] * ((limit - p * p) // (2 * p) + 1)
        spf[p] = p
    return SieveTable(limit, spf, primes)


def factorize(n: int, sieve: Optional[SieveTable] = None) -> Factorization:
    """Prime factorization of n >= 1; uses the sieve when it covers n."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: list[PrimePower] = []
    if sieve is not None and n <= sieve.limit:
        spf = sieve.spf
        while n > 1:
            p = spf[n]
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append(PrimePower(p, a))
        return Factorization(tuple(out))
    # Trial division up to sqrt(n); exact for any n this package targets.
    for p in (2, 3):
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append(PrimePower(p, a))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                a = 0
                while n % p == 0:
                    n //= p
                    a += 1
                out.append(PrimePower(p, a))
        f += 6
    if n > 1:
        out.append(PrimePower(n, 1))
    return Factorization(tuple(out))


def factorize_rational(
    numerator: int, denominator: int, sieve: Optional[SieveTable] = None
) -> SignedFactorization:
    """Signed factorization of numerator/denominator with net-zero exponents dropped."""
    if numerator < 1 or denominator < 1:
        raise ValueError("numerator and denominator must be >= 1")
    exps: dict[int, int] = {}
    for p, a in factorize(numerator, sieve):
        exps[p] = exps.get(p, 0) + a
    for p, a in factorize(denominator, sieve):
        exps[p] = exps.get(p, 0) - a
    factors = tuple(PrimePower(p, e) for p, e in sorted(exps.items()) if e != 0)
    return SignedFactorization(factors)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, increasing.  Plain Eratosthenes over a bytearray."""
    if limit < 2:
        return []
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start : limit + 1 : p] = b"\x00" * ((limit - start) // p + 1)
    return list(itertools.compress(range(limit + 1), flags))


def _primes_from(sieve: Optional[SieveTable], limit: int) -> list[int]:
    """The primes <= limit, cut from the sieve's list when it covers limit."""
    if sieve is None or sieve.limit < limit:
        return primes_up_to(limit)
    return sieve.primes[: bisect.bisect_right(sieve.primes, limit)]


def divisors(n: int, sieve: Optional[SieveTable] = None) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, a in factorize(n, sieve):
        pk = 1
        powers = []
        for _ in range(a):
            pk *= p
            powers.append(pk)
        divs += [d * q for q in powers for d in divs]
    divs.sort()
    return divs
