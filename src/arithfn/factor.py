"""Prime sieving, integer factorization, and signed factorizations of positive rationals.

Every other module evaluates arithmetic functions through the factorizations
produced here, so this module sticks to exact integer arithmetic throughout.
One class, SignedFactorization, holds the factorization of a positive rational;
factorize returns its subclass Factorization: positive exponents, an int value().

Past the sieve, is_prime and factorize share one trial pass over the 168 primes
below B = 1000, so every n < B**2 is factored by division alone.  The first 13 of
those primes, 2..41, are the Miller-Rabin bases for a cofactor m >= B**2: the test
is exact for m < psi_13 = 3317044064679887385961981 (Sorenson & Webster, 2015), and
a composite m is split by Brent's rho (Brent, 1980), part by part.  A composite
m < psi_13 has a prime factor below 1.9e12, which rho finds in about 10**6 steps
(under 3 s); a cofactor m >= psi_13 is refused with a ValueError.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

import numpy as np


class PrimePower(NamedTuple):
    """A single p**a term; a is negative only inside a SignedFactorization."""

    prime: int
    exponent: int


def _prime_array(limit: int) -> np.ndarray:
    """The primes <= limit, increasing, as an int64 array, by Eratosthenes over a bool array:
    the even numbers past 2 go in one strided slice, then each odd prime p <= sqrt(limit)
    clears its odd multiples from p*p on in one more."""
    flags = np.ones(max(limit, 1) + 1, bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(len(flags) - 1) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    return np.flatnonzero(flags)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, increasing, from the Eratosthenes pass that build_sieve shares."""
    return _prime_array(limit).tolist()


# Trial division stops at B.  Near 10**3, the divisions and one 13-base test of a
# 12-digit cofactor cost the same order of time (on Python 3.11, divisions up to
# 10**3 take about 25 us; the test takes about 100 us on a prime and under 10 us on
# most composites), so a larger B buys little.
_B = 1000
# The trial divisors; the first 13, 2..41, are the Miller-Rabin bases.
_SMALL_PRIMES = primes_up_to(_B)
# psi_13, the least strong pseudoprime to the bases 2..41: the test is exact below it.
_PSI13 = 3317044064679887385961981


def _require_int(n: object) -> None:
    if not isinstance(n, int):
        raise TypeError(f"expected an int, got {n!r}")


def _divide_out(n: int, p: int, out: list) -> int:
    """n without its factors p, whose power p**a is appended to out; p divides n."""
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    out.append(PrimePower(p, a))
    return n


def _trial(n: int) -> tuple[list, int]:
    """(prime powers of n found below B, cofactor) for n >= 1; the cofactor is 1, a prime,
    or a number >= B**2 with no prime factor below B."""
    out: list[PrimePower] = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n = _divide_out(n, p, out)
    return out, n


def _is_prime_large(m: int, n: int) -> bool:
    """Miller-Rabin to the bases 2..41 for odd m >= _B**2 with no prime factor below _B;
    a cofactor of n, which is named when m is past the exact range."""
    if m >= _PSI13:
        raise ValueError(
            f"{n} is out of range: its cofactor {m} has no prime factor below {_B} and is not "
            f"below {_PSI13}, where the primality test stops being exact"
        )
    s = ((m - 1) & -(m - 1)).bit_length() - 1  # m - 1 = d * 2**s with d odd
    d = (m - 1) >> s
    for a in _SMALL_PRIMES[:13]:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _rho(m: int) -> int:
    """A proper divisor of the odd composite m, by Brent's cycle search on y -> y*y + c."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = math.gcd(q, m)
                k += 128
            r *= 2
        if g == m:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(x - ys, m)
        if g != m:
            return g


def is_prime(n: int) -> bool:
    """Deterministic primality test: n has no prime factor in the trial pass below B = 1000,
    and its cofactor is below B**2 or passes Miller-Rabin to the bases 2..41, exact below
    psi_13 = 3317044064679887385961981 (Sorenson & Webster, 2015).  An n >= psi_13 with no
    prime factor below B raises a ValueError; a non-int raises a TypeError."""
    _require_int(n)
    if n < 2:
        return False
    found, m = _trial(n)
    return not found and (m < _B * _B or _is_prime_large(m, n))


@dataclass(frozen=True)
class SignedFactorization:
    """A positive rational in lowest terms as prod p**e: strictly increasing primes, nonzero
    exponents.  The empty tuple represents 1 (the empty product), not a special flag."""

    factors: tuple[PrimePower, ...]
    _exponents = "nonzero"  # the exponent rule, as the rejection message names it

    def __post_init__(self) -> None:
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("primes must be distinct and strictly increasing")
            if e <= 0 and (e == 0 or self._exponents == "positive"):
                raise ValueError(f"exponents must be {self._exponents}")
            last = p

    def __iter__(self) -> Iterator[PrimePower]:
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def value(self) -> Fraction:
        return math.prod((Fraction(p) ** e for p, e in self.factors), start=Fraction(1))


class Factorization(SignedFactorization):
    """n >= 1 as prod p**a: a SignedFactorization whose exponents are positive, so that
    value() is the int n."""

    _exponents = "positive"

    def value(self) -> int:
        return math.prod(p**a for p, a in self.factors)


@dataclass(frozen=True, eq=False)
class SieveTable:
    """Smallest-prime-factor table for 2..limit; spf[n] is the least prime dividing n.

    spf[0] and spf[1] are unused filler; primes holds the primes <= limit in
    increasing order.  Both are stdlib int32 arrays (int64 from 2**31), which
    factorize reads one entry at a time as fast as lists of the same ints; they
    take half a machine word per entry, without an int object for each prime, and
    numpy reads and writes them through views of their buffers without a copy.
    Memory is half a machine word per integer up to the limit, plus the primes,
    and one machine word more for split once tabulation builds it: two int32
    arrays, half of what int64 would take.  Treat as read-only after construction.
    """

    limit: int
    spf: array
    primes: array

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
    """Smallest-prime-factor table from the Eratosthenes pass of primes_up_to.

    spf is written through a numpy view of its buffer: 2 at the even entries, then
    the odd primes up to sqrt(limit), largest first, at their odd multiples from
    p*p on, so the least prime factor is written last, and every odd prime at
    itself in one assignment.
    """
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    code, dtype = ("i", np.int32) if limit < 2**31 else ("q", np.int64)
    primes = _prime_array(limit).astype(dtype)
    spf = array(code, bytes(np.dtype(dtype).itemsize * (limit + 1)))
    view = np.frombuffer(spf, dtype)
    view[2::2] = 2
    odd = primes[1:]
    for p in reversed(odd[: np.searchsorted(odd, math.isqrt(limit), "right")].tolist()):
        view[p * p :: 2 * p] = p
    view[odd] = odd
    return SieveTable(limit, spf, array(code, primes.tobytes()))


def factorize(n: int, sieve: Optional[SieveTable] = None) -> Factorization:
    """Prime factorization of n >= 1; uses the sieve when it covers n.

    Otherwise it runs the trial pass over the primes below B = 1000.  A cofactor
    m >= B**2 is tested by Miller-Rabin to the bases 2..41, exact for m < psi_13 =
    3317044064679887385961981 (Sorenson & Webster, 2015), and a composite one is
    split by Brent's rho (Brent, 1980), recursively.  Rho needs about p**(1/2)
    Python steps to find the prime p, so its worst case below psi_13, a product of
    two primes near 1.8 * 10**12, takes 2-3 s.  A cofactor m >= psi_13 raises a
    ValueError that names n; a non-int raises a TypeError.
    """
    _require_int(n)
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if sieve is not None and n <= sieve.limit:
        out: list[PrimePower] = []
        while n > 1:
            n = _divide_out(n, sieve.spf[n], out)
        return Factorization(tuple(out))
    out, m = _trial(n)
    if m >= _B * _B:
        large, stack = [], [m]
        while stack:  # every part has no prime factor below B, so one under B**2 is prime
            m = stack.pop()
            if m < _B * _B or _is_prime_large(m, n):
                large.append(m)
            else:
                d = _rho(m)
                stack += [d, m // d]
        out += [PrimePower(p, len(list(g))) for p, g in itertools.groupby(sorted(large))]
    elif m > 1:
        out.append(PrimePower(m, 1))
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


def _primes_from(sieve: Optional[SieveTable], limit: int) -> np.ndarray:
    """The primes <= limit as an int64 array, cut from the sieve's array when it covers limit."""
    if sieve is None or sieve.limit < limit:
        return _prime_array(limit)
    return np.asarray(sieve.primes[: bisect.bisect_right(sieve.primes, limit)], np.int64)


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
