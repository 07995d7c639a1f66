"""Deliberately naive reference implementations used only by the tests.

Everything here avoids the library's code paths: factoring is plain trial
division starting at 2, the arithmetic derivative is the Leibniz recursion
(not the closed form), convolution is direct divisor enumeration, and the
totient counts coprime residues one by one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def naive_factor(n: int) -> list[tuple[int, int]]:
    """Trial division by every integer from 2 upward."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def naive_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def naive_primes_up_to(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if naive_is_prime(n)]


def smallest_factor(n: int) -> int:
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return d
    return n


@lru_cache(maxsize=None)
def leibniz_delta(n: int) -> int:
    """Arithmetic derivative by the Leibniz recursion seeded with delta(p) = 1."""
    if n == 1:
        return 0
    d = smallest_factor(n)
    if d == n:
        return 1
    m = n // d
    return d * leibniz_delta(m) + m * leibniz_delta(d)


def leibniz_ld(n: int) -> Fraction:
    return Fraction(leibniz_delta(n), n)


def l_additive_recursive(f_p, h_p, n: int) -> Fraction:
    """Generic L-additive value by recursion on the smallest-factor split."""
    if n == 1:
        return Fraction(0)
    d = smallest_factor(n)
    if d == n:
        return Fraction(f_p(n))
    m = n // d
    h = lambda v: h_multiplicative(h_p, v)  # noqa: E731
    return l_additive_recursive(f_p, h_p, d) * h(m) + l_additive_recursive(f_p, h_p, m) * h(d)


def h_multiplicative(h_p, n: int) -> Fraction:
    out = Fraction(1)
    for p, a in naive_factor(n):
        out *= Fraction(h_p(p)) ** a
    return out


def naive_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def naive_convolve_at(f, g, n: int) -> Fraction:
    return sum((Fraction(f(d)) * Fraction(g(n // d)) for d in naive_divisors(n)), Fraction(0))


def naive_mobius(n: int) -> int:
    fact = naive_factor(n)
    if any(a > 1 for _, a in fact):
        return 0
    return -1 if len(fact) % 2 else 1


def naive_tau(n: int) -> int:
    return len(naive_divisors(n))


def naive_sigma_k(n: int, k: int) -> int:
    return sum(d**k for d in naive_divisors(n))


def naive_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def delta_closed_form(n: int) -> Fraction:
    """n * sum(a/p) straight from trial-division factors (no library code)."""
    return n * sum((Fraction(a, p) for p, a in naive_factor(n)), Fraction(0))


def fraction_sum_bracket(terms, bits: int = 256) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= sum of num/den over terms <= hi = lo + count * 2**-bits.

    An exact Fraction sum over many unrelated denominators grows too large to
    finish; flooring each term at 2**-bits keeps the work in plain integers.
    """
    low = count = 0
    for num, den in terms:
        low += (num << bits) // den
        count += 1
    return Fraction(low, 1 << bits), Fraction(low + count, 1 << bits)


def harmonic_inverse(values) -> list:
    """Dirichlet inverse of the values at 1..N by the forward harmonic loop:
    out[n] collects a(d) out[n/d] over d | n, d > 1, from the smaller n/d
    before the loop reaches n; then out[n] = -out[n]/a(1)."""
    limit = len(values)
    a = [0, *values]
    inv1 = 1 / Fraction(a[1])
    out = [Fraction(0)] * (limit + 1)
    out[1] = inv1
    for n in range(1, limit + 1):
        if n > 1:
            out[n] = -inv1 * out[n]
        v = out[n]
        if v == 0:
            continue
        for d in range(2, limit // n + 1):
            if a[d] != 0:
                out[n * d] += a[d] * v
    return out[1:]
