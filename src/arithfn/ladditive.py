"""Leibniz-additive arithmetic functions over the naturals and positive rationals.

A function f is Leibniz-additive when some completely multiplicative h
satisfies f(mn) = f(m)h(n) + f(n)h(m) for all m, n >= 1.  Such a pair is
pinned down by its values on primes, and f(n) follows from the prime
factorization as h(n) * sum(a_i * f(p_i)/h(p_i)).  Values are exact
rationals; h must never vanish.

The natural-log variant (f(p) = log p) is irrational-valued and therefore
lives in the float-based series module, not here.

The sieve tabulators of every function class share two helpers here: values
at the prime powers (prime_power_table) and one recurrence (split_recurrence).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import UnknownNameError
from .factor import (
    SignedFactorization,
    SieveTable,
    _primes_from,
    factorize,
    is_prime,
)

Rational = Union[int, Fraction]
# Default rules for primes absent from a custom function's finite maps:
# a constant, the prime itself, or its reciprocal.
DefaultRule = Union[int, Fraction, str]  # "identity" | "reciprocal" | constant


def exact_ratio(a: int, b: int) -> Rational:
    """a/b as an int when b divides a, else as a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def as_exact(v: Rational) -> Rational:
    """v as an int when it is integral, else as a Fraction; floats and other types are rejected."""
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    raise TypeError(f"prime values must be exact rationals (int or Fraction), got {v!r}")


@dataclass(frozen=True)
class LAdditiveFunction:
    """An L-additive function given by its prime values f(p) and h(p)."""

    name: str
    f_at_prime: Callable[[int], Rational]
    h_at_prime: Callable[[int], Rational]

    def at_prime(self, p: int) -> tuple[Rational, Rational]:
        """(f(p), h(p)), each an int when it is integral; h(p) must be nonzero."""
        h = as_exact(self.h_at_prime(p))
        if h == 0:
            raise ValueError(f"h_{self.name}({p}) = 0; h must be nonzero-valued")
        return as_exact(self.f_at_prime(p)), h

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LAdditiveFunction({self.name!r})"


def delta() -> LAdditiveFunction:
    """The arithmetic derivative: f(p) = 1 with h(p) = p."""
    return LAdditiveFunction("delta", lambda p: 1, lambda p: p)


def delta_partial(p0: int) -> LAdditiveFunction:
    """Partial arithmetic derivative with respect to the prime p0."""
    if not is_prime(p0):
        raise ValueError(f"delta_partial requires a prime, got {p0}")
    return LAdditiveFunction(f"delta_p:{p0}", lambda p: 1 if p == p0 else 0, lambda p: p)


def ld() -> LAdditiveFunction:
    """The logarithmic derivative delta(n)/n: completely additive, h = 1."""
    return LAdditiveFunction("ld", lambda p: Fraction(1, p), lambda p: 1)


def big_omega() -> LAdditiveFunction:
    """Prime factor count with multiplicity: completely additive, h = 1."""
    return LAdditiveFunction("big_omega", lambda p: 1, lambda p: 1)


def _rule_to_callable(rule: DefaultRule, role: str) -> Callable[[int], Rational]:
    if rule == "identity":
        return lambda p: p
    if rule == "reciprocal":
        return lambda p: Fraction(1, p)
    if isinstance(rule, (int, Fraction)):
        c = as_exact(rule)
        return lambda p: c
    raise ValueError(f"{role} default rule must be a rational constant, 'identity', or 'reciprocal'")


def custom(
    name: str,
    f_at_prime: Optional[Mapping[int, Rational]] = None,
    h_at_prime: Optional[Mapping[int, Rational]] = None,
    *,
    f_default: DefaultRule = 0,
    h_default: DefaultRule = 1,
) -> LAdditiveFunction:
    """User-defined function: finitely many explicit prime values plus default rules."""
    f_map = {p: as_exact(v) for p, v in (f_at_prime or {}).items()}
    h_map = {p: as_exact(v) for p, v in (h_at_prime or {}).items()}
    for m in (f_map, h_map):
        for p in m:
            if not is_prime(p):
                raise ValueError(f"map key {p} is not prime")
    for p, v in h_map.items():
        if v == 0:
            raise ValueError(f"h({p}) = 0; h must be nonzero-valued")
    if h_default == 0:
        raise ValueError("h default rule must be nonzero")
    f_rule = _rule_to_callable(f_default, "f")
    h_rule = _rule_to_callable(h_default, "h")

    def f(p: int) -> Rational:
        return f_map[p] if p in f_map else f_rule(p)

    def h(p: int) -> Rational:
        return h_map[p] if p in h_map else h_rule(p)

    return LAdditiveFunction(name, f, h)


def l_additive_by_token(token: str) -> LAdditiveFunction:
    """Resolve a textual name: delta, ld, big_omega, or delta_p:<prime>."""
    if token == "delta":
        return delta()
    if token == "ld":
        return ld()
    if token == "big_omega":
        return big_omega()
    if token.startswith("delta_p:"):
        tail = token.split(":", 1)[1]
        if not (tail.isascii() and tail.isdigit()):
            raise UnknownNameError(token)
        return delta_partial(int(tail))
    raise UnknownNameError(token)


def _leibniz(fn: LAdditiveFunction, n: int, sieve: Optional[SieveTable]) -> tuple[int, int, int]:
    """(F, H, D) with f(n) = F/D and h(n) = H/D, in one int pass over the factorization of n.

    Each prime power contributes f(p**a) = a f(p) h(p)**(a-1) and h(p)**a, and
    the factors combine by f(mk) = f(m)h(k) + f(k)h(m).  With f(p) = x/y and
    h(p) = z/w, both prime-power values are taken over the common denominator
    y w**a, and D is the product of those denominators, reduced only by the
    callers' Fraction.  For int prime values D stays 1 and the pass is the
    plain int Leibniz pass.
    """
    if n < 1:
        raise ValueError("eval_natural requires n >= 1")
    f_n, h_n, den = 0, 1, 1
    for p, a in factorize(n, sieve):
        fp, hp = fn.at_prime(p)
        x, y = fp.numerator, fp.denominator
        z, w = hp.numerator, hp.denominator
        z_a1 = z ** (a - 1)
        f_pa = a * x * z_a1
        h_pa = z_a1 * z
        if y != 1 or w != 1:
            f_pa *= w
            h_pa *= y
            den *= y * w**a
        f_n = f_n * h_pa + f_pa * h_n
        h_n *= h_pa
    return f_n, h_n, den


def eval_natural(fn: LAdditiveFunction, n: int, sieve: Optional[SieveTable] = None) -> Fraction:
    """f(n) = h(n) * sum(a_i * f(p_i)/h(p_i)) over the factorization of n."""
    f_n, _, den = _leibniz(fn, n, sieve)
    return Fraction(f_n, den)


def h_eval(fn: LAdditiveFunction, n: int, sieve: Optional[SieveTable] = None) -> Fraction:
    """The completely multiplicative companion: h(n) = prod h(p_i)**a_i, h(1) = 1."""
    if n < 1:
        raise ValueError("h_eval requires n >= 1")
    return Fraction(math.prod(fn.at_prime(p)[1] ** a for p, a in factorize(n, sieve)))


def eval_inverse(fn: LAdditiveFunction, n: int, sieve: Optional[SieveTable] = None) -> Fraction:
    """f(1/n) = -f(n) / h(n)**2."""
    f_n, h_n, den = _leibniz(fn, n, sieve)
    return Fraction(-f_n * den, h_n * h_n)


def eval_rational(
    fn: LAdditiveFunction,
    numerator: int,
    denominator: int,
    sieve: Optional[SieveTable] = None,
) -> Fraction:
    """f(n/m) = (f(n)h(m) - f(m)h(n)) / h(m)**2; agrees with eval_natural at m = 1."""
    if numerator < 1 or denominator < 1:
        raise ValueError("numerator and denominator must be >= 1")
    f_n, h_n, d_n = _leibniz(fn, numerator, sieve)
    f_m, h_m, d_m = _leibniz(fn, denominator, sieve)
    return Fraction((f_n * h_m - f_m * h_n) * d_m, d_n * h_m * h_m)


def eval_signed(fn: LAdditiveFunction, sf: SignedFactorization) -> Fraction:
    """Evaluate directly on a signed factorization: h(x) * sum(e_i * f(p_i)/h(p_i)).

    Independent of eval_rational; the two are cross-checked in the tests.
    """
    h_x = Fraction(1)
    total = Fraction(0)
    for p, e in sf:
        fp, hp = map(Fraction, fn.at_prime(p))
        h_x *= hp**e
        total += e * fp / hp
    return h_x * total


def quotient_ratio(fn: LAdditiveFunction, n: int, sieve: Optional[SieveTable] = None) -> Fraction:
    """f(n)/h(n), which is completely additive whenever h never vanishes."""
    f_n, h_n, _ = _leibniz(fn, n, sieve)
    return Fraction(f_n, h_n)


def tabulate_l_additive(fn: LAdditiveFunction, limit: int, sieve: SieveTable) -> list:
    """Values f(1..limit) as a padded list (index 0 unused), from leibniz_numerators.

    Bulk companion to eval_natural; the two paths agree and are tested
    against each other.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if sieve.limit < limit:
        raise ValueError("sieve does not cover the requested limit")
    return leibniz_numerators(fn, limit, sieve).tolist()


def leibniz_numerators(fn: LAdditiveFunction, limit: int, sieve: SieveTable) -> np.ndarray:
    """f(n) on [0, limit] from a sieve covering limit, by f(p**a) = a f(p) h(p)**(a-1) and
    h(p**a) = h(p)**a."""
    ps = _primes_from(sieve, limit)
    pairs = [fn.at_prime(p) for p in ps]
    fs, hs = [f for f, _ in pairs], [h for _, h in pairs]
    f_pk = prime_power_table(limit, ps, fs, lambda i, a: a * fs[i] * hs[i] ** (a - 1))
    return split_recurrence(sieve, limit, prime_power_table(limit, ps, hs, lambda i, a: hs[i] ** a), f_pk)


def exact_array(values: Sequence) -> np.ndarray:
    """[0, *values] as numerators: int64 when all are ints in range, else object dtype.
    Anything but an int or a Fraction raises TypeError naming its n (values[n - 1]),
    since int64 would truncate it silently."""
    types = set(map(type, values))
    if not types <= {int, Fraction}:
        for n, v in enumerate(values, 1):
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"value at n = {n} is not an exact rational (int or Fraction): {v!r}")
    num = np.zeros(len(values) + 1, np.int64 if types <= {int} else object)
    try:
        num[1:] = values
    except OverflowError:  # an int beyond int64
        num = num.astype(object)
        num[1:] = values
    return num


def prime_power_table(limit: int, ps: list, at_primes: list, at_power: Callable[[int, int], Rational]) -> np.ndarray:
    """Values on [0, limit] at the prime powers, 0 elsewhere: at_primes[i] at the prime ps[i]
    (ps the primes <= limit) and at_power(i, a) at ps[i]**a, a >= 2; int64 when all are ints
    in range, else object dtype."""
    higher = {
        p**a: at_power(i, a)
        for i, p in enumerate(ps[: bisect.bisect_right(ps, math.isqrt(limit))])
        for a in range(2, limit.bit_length())
        if p**a <= limit
    }
    num = exact_array([*at_primes, *higher.values()])
    table = np.zeros(limit + 1, num.dtype)
    table[[*ps, *higher]] = num[1:]
    return table


def split_recurrence(sieve: SieveTable, limit: int, h_pk: np.ndarray, f_pk: Optional[np.ndarray] = None) -> np.ndarray:
    """The multiplicative h, or with f_pk the Leibniz-additive f with companion h, on [0, limit],
    from the values at the prime powers, as one recurrence v[n] = A[n] + B[n] v[rest[n]] over
    n = pk * rest (SieveTable.split), B = h_pk[pk]: h(n) = h(pk) h(rest) with A = [n == 1], then
    f(n) = f(pk) h(rest) + h(pk) f(rest) with A = f_pk[pk] h[rest].  As rest[n] <= n/2, a chunk
    [lo, hi) with hi <= 2 lo reads only finished entries: one gather, product and sum each.

    int64 when the tables are and their shadow, the same run in float64 on |h_pk| and |f_pk|,
    stays below 2**62; else object.  By induction on n, the exact run on |A| and |B| bounds
    |v[n]|, |A[n]| and |B[n] v[rest[n]]|, and it equals the tables at prime powers.  The shadow
    takes a product and a sum per distinct prime of n, at most 15 (16 primes multiply past
    2**63): a relative error below 2**-47, for which 2**62 leaves room under 2**63 - 1.
    """
    pk, rest = (x[: limit + 1] for x in sieve.split)
    tables = [x for x in (h_pk, f_pk) if x is not None]

    def run(dtype: type, cast: Callable[[np.ndarray], np.ndarray]) -> list:
        out: list = []  # h, then f when f_pk is given
        for a_pk in (None, f_pk)[: len(tables)]:
            v = np.zeros(limit + 1, dtype)
            v[1] = 0 if out else 1
            lo = 2
            while lo <= limit:
                hi = min(2 * lo, lo + 2**15, limit + 1)  # 2**15 bounds the temporaries
                p, r = pk[lo:hi], rest[lo:hi]
                x = cast(h_pk.take(p)) * v.take(r)
                if out:
                    x += cast(a_pk.take(p)) * out[0].take(r)
                v[lo:hi] = x
                lo = hi
            out.append(v)
        return out

    if all(x.dtype == np.int64 for x in tables):
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail the bound
            fits = max(x.max() for x in run(np.float64, lambda x: np.abs(x, dtype=np.float64))) < 2.0**62
        if fits:
            return run(np.int64, lambda x: x)[-1]
    return run(object, lambda x: x.astype(object))[-1]
