"""Leibniz-additive arithmetic functions over the naturals and positive rationals.

A function f is Leibniz-additive when some completely multiplicative h
satisfies f(mn) = f(m)h(n) + f(n)h(m) for all m, n >= 1.  Such a pair is
pinned down by its values on primes, and f(n) follows from the prime
factorization as h(n) * sum(a_i * f(p_i)/h(p_i)).  Values are exact
rationals; h must never vanish.  A function is data: the rules f(p) = c p**i
and h(p) = c' p**j, plus finitely many exceptional primes (LAdditiveFunction).

The natural-log variant (f(p) = log p) is irrational-valued and therefore
lives in the float-based series module, not here.

A Leibniz-additive function tabulates by one recurrence over the least prime
factor of n (leibniz_numerators), from its values at the primes alone.  The
tabulators of the other function classes share two helpers here: values at
the prime powers (prime_power_table), filled from numpy arrays over the primes
and over the pairs (p, a) of the higher powers (prime_powers), and, for the
multiplicative class, one recurrence over the full power of the least prime
(split_recurrence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ParseError, UnknownNameError
from .factor import (
    _PSI13,
    SignedFactorization,
    SieveTable,
    _primes_from,
    factorize,
    is_prime,
)

Rational = Union[int, Fraction]
# A custom function's default rules for primes absent from its finite maps: a constant c,
# the prime itself or its reciprocal, the rules (c, 0), (1, 1) and (1, -1).
DefaultRule = Union[int, Fraction, str]  # "identity" | "reciprocal" | constant
_RULES = {"identity": (1, 1), "reciprocal": (1, -1)}
INT64_MAX = 2**63 - 1  # the int64 bound of every table


def as_exact(v: Rational) -> Rational:
    """v as an int when it is integral, else as a Fraction; floats and other types are rejected."""
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    raise TypeError(f"prime values must be exact rationals (int or Fraction), got {v!r}")


def _prime_value(rule: tuple, exceptions: Mapping[int, Rational], p: int) -> Rational:
    """The value at the prime p of the exceptions where they name p, else of the rule (c, i):
    c p**i, an int when it is integral."""
    v = exceptions.get(p)
    if v is None:
        c, i = rule
        v = c * p**i if i >= 0 else Fraction(c, p**-i)
        if type(v) is not int and v.denominator == 1:
            v = v.numerator
    return v


@dataclass(frozen=True, slots=True)
class LAdditiveFunction:
    """An L-additive function as data: f(p) = c p**i and h(p) = c' p**j at every prime p, the
    rules f_rule = (c, i) and h_rule = (c', j) with c, c' exact and i, j ints, except at the
    primes of the finite maps f_map and h_map, which give f(p) and h(p) there.

    Values are normalized by as_exact, so a float raises TypeError at construction; h must
    never vanish, so c' = 0 or a 0 in h_map raises ValueError, as does a map key that is not
    a prime.
    """

    name: str
    f_rule: tuple[Rational, int]
    h_rule: tuple[Rational, int]
    f_map: Mapping[int, Rational] = field(default_factory=dict, hash=False)
    h_map: Mapping[int, Rational] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        for role in ("f", "h"):
            c, i = getattr(self, f"{role}_rule")
            if not isinstance(i, int):
                raise TypeError(f"the exponent of {role}'s rule must be an int, got {i!r}")
            exceptions = {p: as_exact(v) for p, v in getattr(self, f"{role}_map").items()}
            for p in exceptions:
                if not is_prime(p):
                    raise ValueError(f"map key {p} is not prime")
            object.__setattr__(self, f"{role}_rule", (as_exact(c), i))
            object.__setattr__(self, f"{role}_map", exceptions)
        if self.h_rule[0] == 0:
            raise ValueError("h default rule must be nonzero")
        for p, v in self.h_map.items():
            if v == 0:
                raise ValueError(f"h({p}) = 0; h must be nonzero-valued")

    @property
    def k(self) -> int:
        """max(0, -i, -j): p**k f(p) and p**k h(p) follow rules with no negative power of p, and
        the tables of f hold the numerators n**k f(n)."""
        return max(0, -self.f_rule[1], -self.h_rule[1])

    def at_prime(self, p: int) -> tuple[Rational, Rational]:
        """(f(p), h(p)) at the prime p, each an int when it is integral: the scalar lookup of
        point evaluation."""
        return _prime_value(self.f_rule, self.f_map, p), _prime_value(self.h_rule, self.h_map, p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LAdditiveFunction({self.name!r})"


def delta() -> LAdditiveFunction:
    """The arithmetic derivative: f(p) = 1 with h(p) = p."""
    return LAdditiveFunction("delta", (1, 0), (1, 1))


def delta_partial(p0: int) -> LAdditiveFunction:
    """Partial arithmetic derivative with respect to the prime p0: f(p0) = 1, else 0, with h(p) = p."""
    if not is_prime(p0):
        raise ValueError(f"delta_partial requires a prime, got {p0}")
    return LAdditiveFunction(f"delta_p:{p0}", (0, 0), (1, 1), {p0: 1})


def ld() -> LAdditiveFunction:
    """The logarithmic derivative delta(n)/n: f(p) = 1/p with h = 1, completely additive."""
    return LAdditiveFunction("ld", (1, -1), (1, 0))


def big_omega() -> LAdditiveFunction:
    """Prime factor count with multiplicity: completely additive, h = 1."""
    return LAdditiveFunction("big_omega", (1, 0), (1, 0))


def _rule(rule: DefaultRule, role: str) -> tuple:
    if isinstance(rule, str) and rule in _RULES:
        return _RULES[rule]
    if isinstance(rule, (int, Fraction)):
        return rule, 0
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
    return LAdditiveFunction(
        name, _rule(f_default, "f"), _rule(h_default, "h"), dict(f_at_prime or {}), dict(h_at_prime or {})
    )


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
        digits = tail.lstrip("0") or "0"  # is_prime cannot decide past psi_13's 25 digits
        if len(digits) > len(str(_PSI13)):
            raise ParseError(f"prime of {token!r} out of range: it must be below {_PSI13}")
        return delta_partial(int(digits))
    raise UnknownNameError(token)


def _leibniz(fn: LAdditiveFunction, n: int, sieve: Optional[SieveTable], caller: str) -> tuple[int, int, int]:
    """(F, H, D) with f(n) = F/D and h(n) = H/D, in one int pass over the factorization of n.

    Each prime power contributes f(p**a) = a f(p) h(p)**(a-1) and h(p)**a, and
    the factors combine by f(mk) = f(m)h(k) + f(k)h(m).  With f(p) = x/y and
    h(p) = z/w, both prime-power values are taken over the common denominator
    y w**a, and D is the product of those denominators, reduced only by the
    callers' Fraction.  For int prime values D stays 1 and the pass is the
    plain int Leibniz pass.  An n < 1 raises a ValueError that names the caller.
    """
    if n < 1:
        raise ValueError(f"{caller} requires n >= 1")
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
    f_n, _, den = _leibniz(fn, n, sieve, "eval_natural")
    return Fraction(f_n, den)


def h_eval(fn: LAdditiveFunction, n: int, sieve: Optional[SieveTable] = None) -> Fraction:
    """The completely multiplicative companion: h(n) = prod h(p_i)**a_i, h(1) = 1."""
    if n < 1:
        raise ValueError("h_eval requires n >= 1")
    return Fraction(math.prod(fn.at_prime(p)[1] ** a for p, a in factorize(n, sieve)))


def eval_inverse(fn: LAdditiveFunction, n: int, sieve: Optional[SieveTable] = None) -> Fraction:
    """f(1/n) = -f(n) / h(n)**2, as eval_rational(fn, 1, n); n < 1 raises its ValueError."""
    return eval_rational(fn, 1, n, sieve)


def eval_rational(
    fn: LAdditiveFunction,
    numerator: int,
    denominator: int,
    sieve: Optional[SieveTable] = None,
) -> Fraction:
    """f(n/m) = (f(n)h(m) - f(m)h(n)) / h(m)**2; agrees with eval_natural at m = 1."""
    if numerator < 1 or denominator < 1:
        raise ValueError("numerator and denominator must be >= 1")
    f_n, h_n, d_n = _leibniz(fn, numerator, sieve, "eval_rational")
    f_m, h_m, d_m = _leibniz(fn, denominator, sieve, "eval_rational")
    return Fraction((f_n * h_m - f_m * h_n) * d_m, d_n * h_m * h_m)


def eval_signed(fn: LAdditiveFunction, sf: SignedFactorization) -> Fraction:
    """Evaluate directly on a signed factorization: h(x) * sum(e_i * f(p_i)/h(p_i)).

    Independent of eval_rational; the two are cross-checked in the tests.  A
    Factorization from factorize(n) is a SignedFactorization too, giving f(n).
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
    f_n, h_n, _ = _leibniz(fn, n, sieve, "quotient_ratio")
    return Fraction(f_n, h_n)


def rule_array(rule: tuple, exceptions: Mapping[int, Rational], ps: np.ndarray, k: int) -> np.ndarray:
    """p**k times the value at each prime p of the int64 array ps, the rule (c, i)'s c p**(i + k)
    or the exceptions' value where they name p.  int64 when every value is an int in range,
    else object dtype, by exact_array's rule, with the values normalized by as_exact."""
    c, i = rule
    e = i + k
    if type(c) is int and e >= 0 and abs(c) * (int(ps[-1]) if len(ps) else 1) ** e <= INT64_MAX:
        out = c * ps**e
    else:
        x = ps.astype(object)
        out = c * x**e if e >= 0 else Fraction(c) / x**-e
        if type(c) is not int or e < 0:  # Fractions, the integral ones as ints
            out = np.frompyfunc(as_exact, 1, 1)(out)
    for p, v in exceptions.items():
        at = int(np.searchsorted(ps, p))
        if at < len(ps) and ps[at] == p:
            v = as_exact(v * p**k)
            if out.dtype == np.int64 and not (type(v) is int and abs(v) <= INT64_MAX):
                out = out.astype(object)
            out[at] = v
    return out if out.dtype == np.int64 else exact_array(out.tolist())[1:]


def leibniz_numerators(fn: LAdditiveFunction, limit: int, sieve: SieveTable) -> np.ndarray:
    """n**k f(n) on [0, limit], k = fn.k, from a sieve covering limit and fn's data, by one
    recurrence over the least prime factor q = spf(n) and m = n/q.  The numerators V = n**k f(n)
    and those of the companion, H = n**k h(n), are preset at the primes from rule_array (rules
    with no negative power of p), and the Leibniz rule at q gives, for every n >= 2,

        H[n] = H[q] H[m],    V[n] = V[q] H[m] + H[q] V[m],

    which at a prime n (m = 1, H[1] = 1, V[1] = 0) returns the preset values.  As q and m are
    at most n/2 for composite n, a chunk [lo, hi) with hi <= 2 lo reads only finished
    entries: four gathers per chunk.

    int64 when the prime values are int64 and their shadow, the same run in float64 on
    their absolute values, stays below 2**62 in H and in V; else object.  By induction on
    n, the exact run on absolute values bounds |H[n]|, |V[n]| and both products of V[n].
    Each step, one prime factor of n counted with multiplicity, adds at most 3u (u = 2**-53)
    to the shadow's relative error: u for rounding |H[q]| and |V[q]|, u for a product and u
    for V's sum of two nonnegative terms.  An n < 2**63 has at most 62 prime factors, so the
    error stays below 186u < 2**-45, for which 2**62 leaves room under 2**63 - 1.

    With no negative prime value the shadow is the table itself, and a shadow below 2**53
    is exact: by induction on n every product and sum is an int below 2**53, since rounding
    is monotone and could not take a value of 2**53 or more below it.  Its V is then the
    int64 table, and the int64 run is skipped.
    """
    ps = _primes_from(sieve, limit)
    f_p = rule_array(fn.f_rule, fn.f_map, ps, fn.k)
    h_p = rule_array(fn.h_rule, fn.h_map, ps, fn.k)
    spf = np.frombuffer(sieve.spf, np.dtype(sieve.spf.typecode))

    def tables(dtype: type, h_at: np.ndarray, f_at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h, f = np.zeros(limit + 1, dtype), np.zeros(limit + 1, dtype)
        h[1] = 1
        h[ps], f[ps] = h_at, f_at
        return h, f

    def run(h: np.ndarray, f: np.ndarray) -> None:
        lo = 2
        while lo <= limit:
            hi = min(2 * lo, lo + 2**13, limit + 1)  # 2**13 keeps the temporaries in cache
            q = spf[lo:hi]
            m = (np.arange(lo, hi, dtype=np.float64) / q).astype(np.intp)  # exact: q divides n < 2**53
            h_q, h_m = h.take(q), h.take(m)
            f[lo:hi] = f.take(q) * h_m + h_q * f.take(m)
            h[lo:hi] = h_q * h_m
            lo = hi

    if h_p.dtype == f_p.dtype == np.int64:
        shadow = tables(np.float64, np.abs(h_p, dtype=np.float64), np.abs(f_p, dtype=np.float64))
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail the bound
            run(*shadow)
            bound = max(shadow[0].max(), shadow[1].max())
        if bound < 2.0**53 and min(h_p.min(initial=0), f_p.min(initial=0)) >= 0:
            return shadow[1].astype(np.int64)  # the shadow is the table, exact below 2**53
        if bound < 2.0**62:
            exact = tables(np.int64, h_p, f_p)
            run(*exact)
            return exact[1]
    exact = tables(object, h_p.astype(object), f_p.astype(object))
    run(*exact)
    return exact[1]


def mangoldt_numerators(fn: LAdditiveFunction, limit: int, sieve: Optional[SieveTable] = None) -> np.ndarray:
    """n Lambda_f(n) on [0, limit]: (f(p)/h(p)) p**a at every p**a, else 0, from fn's data:
    f(p)/h(p) follows the rule (c/c', i - j), except at the primes of fn's maps.

    The primes come from the sieve when one covers limit.  The numerators are ints
    for every base that l_additive_by_token resolves, where f(p)/h(p) is an int or 1/p.
    """
    (c, i), (d, j) = fn.f_rule, fn.h_rule
    ratio = (as_exact(Fraction(c, d)), i - j)
    exceptions = {
        p: Fraction(_prime_value(fn.f_rule, fn.f_map, p), _prime_value(fn.h_rule, fn.h_map, p))
        for p in {*fn.f_map, *fn.h_map}
    }
    ps = _primes_from(sieve, limit)
    at_p = rule_array(ratio, exceptions, ps, 1)
    return prime_power_table(limit, ps, at_p, lambda i, a: at_p[i].astype(object) * ps[i] ** (a - 1))


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


def prime_powers(limit: int, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, a): every prime power p**a <= limit with a >= 2, as p = ps[i] for ps the primes <= limit
    (an int64 array), ascending in p and then in a.  These are the powers of the primes up to
    sqrt(limit), every exponent at once: the largest exponent e of each p, floor(log limit /
    log p), comes from float logs and one exact comparison each way."""
    small = ps[: np.searchsorted(ps, math.isqrt(limit), "right")]
    e = (math.log(max(limit, 1)) / np.log(small)).astype(np.int64)
    e -= small**e > limit
    e += small ** (e + 1) <= limit
    count = e - 1  # the exponents 2..e
    i = np.repeat(np.arange(len(small)), count)
    return i, np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count) + 2


def prime_power_table(
    limit: int, ps: np.ndarray, at_p: np.ndarray, at_pa: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> np.ndarray:
    """Values on [0, limit] at the prime powers, 0 elsewhere: at_p holds those at the primes ps
    (the primes <= limit, an int64 array), and at_pa(i, a) those at p**a for the pairs (i, a) of
    prime_powers, p = ps[i], in one numpy expression over all of them.  int64 when every value
    is an int in range, else object dtype, by exact_array's rule, with the values of an object
    array normalized by as_exact."""
    i, a = prime_powers(limit, ps)
    lo, hi = (v if v.dtype == np.int64 else exact_array(list(map(as_exact, v.tolist())))[1:] for v in (at_p, at_pa(i, a)))
    table = np.zeros(limit + 1, np.int64 if lo.dtype == hi.dtype == np.int64 else object)
    table[ps] = lo
    table[ps[i] ** a] = hi
    return table


def split_recurrence(sieve: SieveTable, limit: int, h_pk: np.ndarray) -> np.ndarray:
    """The multiplicative h on [0, limit] from its values h_pk at the prime powers, by one
    recurrence h(n) = h(pk) h(rest) over n = pk * rest (SieveTable.split), pk the full power
    of the least prime of n, h(1) = 1.  As rest[n] <= n/2, a chunk [lo, hi) with hi <= 2 lo
    reads only finished entries: two gathers and one product each.

    int64 when h_pk is and its shadow, the same run in float64 on |h_pk|, stays below 2**62;
    else object.  By induction on n, the exact run on |h_pk| bounds |h(n)|, and it equals
    h_pk at prime powers.  The shadow takes one product per distinct prime of n, at most 15
    (16 primes multiply past 2**63): a relative error below 2**-48, for which 2**62 leaves
    room under 2**63 - 1.  With no negative value in h_pk the shadow is the table itself,
    and a shadow below 2**53 is exact: every entry is the product of two earlier ones, and
    rounding is monotone, so no product of 2**53 or more rounds below it.  That shadow is
    returned as int64, without the int64 run.
    """
    pk, rest = (x[: limit + 1] for x in sieve.split)

    def run(dtype: type, at_pk: np.ndarray) -> np.ndarray:
        v = np.zeros(limit + 1, dtype)
        v[1] = 1
        lo = 2
        while lo <= limit:
            hi = min(2 * lo, lo + 2**15, limit + 1)  # 2**15 bounds the temporaries
            v[lo:hi] = at_pk.take(pk[lo:hi]) * v.take(rest[lo:hi])
            lo = hi
        return v

    if h_pk.dtype == np.int64:
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail the bound
            shadow = run(np.float64, np.abs(h_pk, dtype=np.float64))
            bound = shadow.max()
        if bound < 2.0**53 and h_pk.min() >= 0:
            return shadow.astype(np.int64)  # the shadow is the table, exact below 2**53
        if bound < 2.0**62:
            return run(np.int64, h_pk)
    return run(object, h_pk.astype(object))
