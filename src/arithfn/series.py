"""Double-precision Dirichlet series: zeta, the prime sum F, and identity checks.

The exact convolution layer supplies coefficients; this module turns them
into truncated Dirichlet sums and compares those against closed forms built
from zeta(s) and F(s) = sum over primes of 1/(p**(s+1) - p), within an
explicit tolerance.

Supported regions.  zeta is evaluated by Euler-Maclaurin summation for every
s != 1 with Re(s) > -25, where its remainder bound holds; for |Im(s)| <= 16
that takes 15 powers and 14 corrections.  For Re(s) < 0 those terms cancel,
and rounding_bound grows with them.  F converges for Re(s) > 0 and is summed
over primes up to a limit with an integral tail bound.

Rounding.  Every sum goes through _sum_terms: one math.fsum per component
over all computed terms, so each component of a sum is the exact sum of the
computed terms rounded once, within half an ulp.  What is left is the error
of the terms themselves.  With u = 2**-53, basic float operations and float()
of an exact int or Fraction are taken as correctly rounded (relative error u)
and numpy's pow, exp and log as within 2 ulp (4u).  Complex exp,
e**x (cos y + i sin y), is then within (4 + 4*sqrt(2) + 1) u < 11u of its
modulus, and a complex quotient within 6u.  An error dw in the argument moves
exp(w) by |dw| |exp(w)| to first order, so exp(-s log n) gains
(4 + 1) u |s| log n from log n (4u) and the product with s (u per component).
If each computed term t' obeys |t' - t| <= e u |t|, the value obeys

    |value - sum t| <= ulp(Re value)/2 + ulp(Im value)/2 + c u sum |t'|

with c = e + 1, the extra unit covering second-order terms and the use of the
computed moduli.  SeriesEstimate.rounding_bound reports this; with N the
largest n or p summed, e is:

- n**-s (_powers): 4 for real s (one pow); 11 + 5 |s| log N for complex s.
- a(n) n**-s: that plus 2 (float() of a(n), one product).
- zeta's corrections start from x = N**-s, the last power (e_x above); an
  operation costs k = 1 for real s and 6 for complex s (a complex product is
  within sqrt(5) u), and s + m costs 1.  N**-s/2 is exact: e = e_x.
  N**(1-s)/(s-1) = x N/(s-1): e = e_x + 1 + 2k.  T_j = (B_2j/(2j)!) g_j with
  g_1 = s x/N and g_{j+1} = g_j (s+2j-1)(s+2j)/N**2 (N**2 is exact): 2k for
  g_1, 2 + 3k per step and 1 + k for the coefficient, so e = e_x + j (2+3k) - 1.
- 1/(p**(s+1) - p): s + 1 costs u |s+1| log N through the pow, so
  a = p**(s+1) has relative error 4 + |s+1| log N for real s and
  11 + 6 |s+1| log N for complex s (log p, product and exp).  Subtracting p
  multiplies that by |a|/|a - p| <= C = 1/(1 - 2**-Re(s)) and adds u; the
  reciprocal adds u for real s and 6u for complex s.  So e is
  C (4 + |s+1| log N) + 2, or C (11 + 6 |s+1| log N) + 7.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .convolution import TabulatedFunction, parse_expression, tabulate
from .errors import OutOfDomainError, UnknownNameError
from .factor import SieveTable, _primes_from, build_sieve, primes_up_to

ComplexLike = Union[int, float, complex]

_U = 2.0**-53  # unit roundoff of float64

# B_2, B_4, ..., B_26 as exact (numerator, denominator); zeta adds the terms of
# B_2j/(2j)! for j <= 12 and bounds its remainder by the 13th.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
              (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730), (8553103, 6))
_EM_COEFFS = [float(Fraction(p, q) / math.factorial(2 * j)) for j, (p, q) in enumerate(_BERNOULLI, 1)]
_ZETA_MAX_N = 1 << 16  # bounds zeta's N, which starts at |Im(s)| and doubles toward a target


def _as_finite_complex(s: ComplexLike, label: str = "s") -> complex:
    z = complex(s)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{label} must be finite, got {z}")
    return z


@dataclass(frozen=True)
class SeriesEstimate:
    """A truncated-series value with separate bounds on truncation and rounding.

    tail_bound bounds the terms dropped past the cutoff; 0.0 means
    "truncation only": the omitted tail carries no in-code bound
    (dirichlet_partial_sum reports its cutoff this way).  rounding_bound
    bounds |value - exact sum of the kept terms|, the float error of the
    terms and of their summation (see "Rounding" in the module docstring).
    Where tail_bound is a bound, value lies within
    tail_bound + rounding_bound of the series.
    """

    value: complex
    truncation: int
    tail_bound: float
    rounding_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be nonnegative")
        if self.rounding_bound < 0:
            raise ValueError("rounding_bound must be nonnegative")


def _sum_terms(terms: np.ndarray) -> tuple[complex, float]:
    """Correctly rounded sum of a float64 or complex128 term array, and the sum of the moduli.

    Each component is one math.fsum over the whole array, fed through a
    memoryview: the exact sum of the computed terms, rounded once.  zeta by
    Euler-Maclaurin summation (Edwards, Riemann's Zeta Function, 1974, 6.4)
    needs at most 2**16 terms, so every sum of the module is one array.
    """
    if np.iscomplexobj(terms):
        value = complex(math.fsum(memoryview(terms.real)), math.fsum(memoryview(terms.imag)))
        return value, math.fsum(memoryview(np.abs(terms)))
    value = math.fsum(memoryview(terms))
    # sum |t| = sum t - 2 * (sum of the negative terms), which are usually few
    return complex(value), value - 2.0 * math.fsum(memoryview(terms[terms < 0]))


def _half_ulps(z: complex) -> float:
    """Half an ulp of each component of z: the error of rounding z once."""
    return 0.5 * (math.ulp(z.real) + math.ulp(z.imag))


def _powers(limit: int, s: complex) -> np.ndarray:
    """n**(-s) for 1 <= n <= limit: one pow for real s, exp(-s log n) otherwise."""
    ns = np.arange(1, limit + 1, dtype=np.float64)
    return ns ** (-s.real) if s.imag == 0.0 else np.exp(-s * np.log(ns))


def _powers_error(s: complex, limit: int) -> float:
    """Relative error of _powers, in units of 2**-53, for n <= limit."""
    return 4.0 if s.imag == 0.0 else 11.0 + 5.0 * abs(s) * math.log(limit)


def zeta(s: ComplexLike, target_precision: float = 1e-10) -> SeriesEstimate:
    """zeta(s) for s != 1 with Re(s) > -25, by Euler-Maclaurin summation:

        zeta(s) = sum_{n<N} n**-s + N**(1-s)/(s-1) + N**-s/2 + sum_{j<=12} T_j + R,

    T_j = B_2j/(2j)! s(s+1)...(s+2j-2) N**(1-s-2j), |R| <= |s+25|/(Re(s)+25) |T_13|
    (Edwards, Riemann's Zeta Function, 1974, 6.4).  N starts at max(16, ceil|Im(s)|)
    and doubles until that bound, the tail_bound, meets target_precision; a target
    that N <= 2**16 cannot meet raises ValueError.
    """
    z = _as_finite_complex(s)
    re = z.real
    if z == 1 or re <= -25:
        raise OutOfDomainError(f"zeta is evaluated for s != 1 with Re(s) > -25, got s = {z}")
    if target_precision <= 0:
        raise ValueError("target_precision must be positive")
    # |R| <= head * N**(-Re(s)-25); an overflowing head fails the test below
    head = abs(z + 25) / (re + 25) * abs(_EM_COEFFS[-1]) * math.prod(abs(z + m) for m in range(25))
    n = max(16, math.ceil(abs(z.imag)))
    while n <= _ZETA_MAX_N and not head * n ** (-re - 25) <= target_precision:
        n *= 2
    if n > _ZETA_MAX_N:
        raise ValueError(f"zeta({z}) cannot meet target_precision {target_precision} with N <= {_ZETA_MAX_N}")
    powers = _powers(n, z)
    w = z if z.imag else re  # real arithmetic for real s
    x, n_f = powers[-1].item(), float(n)
    corrections = [x * n_f / (w - 1), x / 2]
    g = w * x / n_f
    for j, c in enumerate(_EM_COEFFS[:-1], 1):
        corrections.append(c * g)
        g = g * ((w + 2 * j - 1) * (w + 2 * j)) / (n_f * n_f)
    value, magnitude = _sum_terms(np.concatenate((powers[:-1], corrections)))
    k = 6.0 if z.imag else 1.0  # cost of one operation; extra[i] is e - e_x of corrections[i]
    extra = [1.0 + 2.0 * k, 0.0] + [j * (2.0 + 3.0 * k) - 1.0 for j in range(1, len(_EM_COEFFS))]
    weighted = (_powers_error(z, n) + 1.0) * magnitude + sum(e * abs(t) for e, t in zip(extra, corrections))
    return SeriesEstimate(value, n, head * n ** (-re - 25), _half_ulps(value) + _U * weighted)


def prime_F(
    s: ComplexLike,
    prime_limit: int,
    primes: Optional[Sequence[int]] = None,
) -> SeriesEstimate:
    """F(s) = sum over primes of 1/(p**(s+1) - p), truncated at prime_limit.

    Converges for Re(s) > 0.  Each term obeys
    1/(p**(s+1) - p) <= C * p**(-Re(s)-1) with C = 1/(1 - 2**(-Re(s)))
    (C <= 2 once Re(s) >= 1), so the dropped tail is at most the integral
    C * prime_limit**(-Re(s)) / Re(s).  The same C enters rounding_bound,
    through the subtraction of p.
    """
    z = _as_finite_complex(s)
    re = z.real
    if re <= 0:
        raise OutOfDomainError(f"F(s) requires Re(s) > 0, got Re(s) = {re}")
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    ps = np.asarray(primes if primes is not None else primes_up_to(prime_limit), dtype=np.float64)
    power = ps ** (re + 1.0) if z.imag == 0.0 else np.exp((z + 1) * np.log(ps))
    value, magnitude = _sum_terms(1.0 / (power - ps))
    c = 1.0 / (1.0 - 2.0 ** (-re))
    tail = c * prime_limit ** (-re) / re
    log_n = math.log(ps.max()) if ps.size else 0.0
    if z.imag == 0.0:
        e = c * (4.0 + abs(z + 1) * log_n) + 2.0
    else:
        e = c * (11.0 + 6.0 * abs(z + 1) * log_n) + 7.0
    return SeriesEstimate(value, prime_limit, tail, _half_ulps(value) + (e + 1.0) * _U * magnitude)


def dirichlet_partial_sum(a: TabulatedFunction, s: ComplexLike) -> SeriesEstimate:
    """sum of a(n)/n**s for n <= a.limit; exact values go to float at the last step.

    tail_bound is reported as 0.0 ("truncation only"): coefficient growth is
    not bounded in-code, so the cutoff a.limit is the only tail information.
    """
    z = _as_finite_complex(s)
    coeffs = np.array(a.values(), dtype=np.float64)
    limit = a.limit
    value, magnitude = _sum_terms(coeffs * _powers(limit, z))
    c = _powers_error(z, limit) + 3.0
    return SeriesEstimate(value, limit, 0.0, _half_ulps(value) + c * _U * magnitude)


# ---------------------------------------------------------------------------
# Series identity presets
# ---------------------------------------------------------------------------

# name -> (formula, min_re, coefficients, closed form).  Each preset is checked
# for Re(s) > min_re; the coefficients are an expression text, and the closed
# form (s, zeta_at, F_at, k) -> complex evaluates zeta and F at shifted
# arguments.  A "{k}" in the coefficients takes the power k >= 0 and moves the
# half-plane to Re(s) > min_re + k.
_SERIES_PRESETS: dict = {
    "lemma-Fld": (
        "sum mangoldt:ld(n)/n^s = F(s); checked for Re(s) > 1",
        1.0,
        "mangoldt:ld",
        lambda s, zeta_at, F_at, k: F_at(s),
    ),
    "thm3.3": (
        "sum delta(n)/n^s = zeta(s-1) F(s-1); Re(s) > 2",
        2.0,
        "delta",
        lambda s, zeta_at, F_at, k: zeta_at(s - 1) * F_at(s - 1),
    ),
    "cor-tau": (
        "sum tau(n) delta(n)/n^s = 2 zeta(s-1)^2 F(s-1); Re(s) > 2",
        2.0,
        "tau . delta",
        lambda s, zeta_at, F_at, k: 2 * zeta_at(s - 1) ** 2 * F_at(s - 1),
    ),
    "cor-mu": (
        "sum mu(n) delta(n)/n^s = -F(s-1) / zeta(s-1); Re(s) > 2",
        2.0,
        "mu . delta",
        lambda s, zeta_at, F_at, k: -F_at(s - 1) / zeta_at(s - 1),
    ),
    "cor-phi": (
        "sum phi(n) delta(n)/n^s = zeta(s-2)/zeta(s-1) (F(s-2) - F(s-1)); Re(s) > 3",
        3.0,
        "phi . delta",
        lambda s, zeta_at, F_at, k: zeta_at(s - 2) / zeta_at(s - 1) * (F_at(s - 2) - F_at(s - 1)),
    ),
    "cor-sigma": (
        "sum sigma(n) delta(n)/n^s = zeta(s-1) zeta(s-2) (F(s-2) + F(s-1)); Re(s) > 3",
        3.0,
        "sigma . delta",
        lambda s, zeta_at, F_at, k: zeta_at(s - 1) * zeta_at(s - 2) * (F_at(s - 2) + F_at(s - 1)),
    ),
    "cor-sigmak": (
        "sum sigma_k(n) delta(n)/n^s = zeta(s-1) zeta(s-k-1) (F(s-1) + F(s-k-1)); "
        "Re(s) > k+2 (k defaults to 2)",
        2.0,
        "sigma_{k} . delta",
        lambda s, zeta_at, F_at, k: zeta_at(s - 1) * zeta_at(s - k - 1) * (F_at(s - 1) + F_at(s - k - 1)),
    ),
}


def list_series_presets() -> list[tuple[str, str]]:
    """Series preset names with their formulas, in catalog order."""
    return [(name, preset[0]) for name, preset in _SERIES_PRESETS.items()]


@dataclass
class SeriesCheckReport:
    """Tolerance-checked comparison of a truncated Dirichlet sum against a closed form."""

    name: str
    s: complex
    limit: int
    prime_limit: int
    lhs: complex
    rhs: complex
    abs_error: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        c = lambda z: {"re": z.real, "im": z.imag}  # noqa: E731
        return {
            "name": self.name,
            "s": c(self.s),
            "N": self.limit,
            "prime_limit": self.prime_limit,
            "lhs": c(self.lhs),
            "rhs": c(self.rhs),
            "abs_error": self.abs_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "SeriesCheckReport":
        c = lambda d: complex(d["re"], d["im"])  # noqa: E731
        return cls(
            name=obj["name"],
            s=c(obj["s"]),
            limit=obj["N"],
            prime_limit=obj["prime_limit"],
            lhs=c(obj["lhs"]),
            rhs=c(obj["rhs"]),
            abs_error=obj["abs_error"],
            tolerance=obj["tolerance"],
            passed=obj["pass"],
        )

    @classmethod
    def from_json(cls, text: str) -> "SeriesCheckReport":
        return cls.from_dict(json.loads(text))


def check_series_identity(
    name: str,
    s: ComplexLike,
    limit: int,
    prime_limit: int,
    tolerance: float,
    *,
    k: int = 2,
    sieve: Optional[SieveTable] = None,
    cache: Optional[dict] = None,
) -> SeriesCheckReport:
    """Truncated coefficient sum (lhs) vs. closed form from zeta and F (rhs).

    Passes iff |lhs - rhs| <= tolerance.  The tolerance must absorb the lhs
    truncation error, which is the caller's choice of limit; rhs is computed
    about three digits finer than the tolerance.  The primes of F come from the
    sieve (built over [1, limit] when none is given) when it covers prime_limit:
    a sieve table costs a word per integer, primes_up_to a byte.
    """
    preset = _SERIES_PRESETS.get(name)
    if preset is None:
        raise UnknownNameError(name)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    _, min_re, coeff, closed_form = preset
    if "{k}" in coeff:
        if k < 0:
            raise ValueError("k must be >= 0")
        min_re += k
        coeff = coeff.format(k=k)
    z = _as_finite_complex(s)
    if z.real <= min_re:
        raise OutOfDomainError(
            f"{name} is checked for Re(s) > {min_re}, got Re(s) = {z.real}"
        )
    expr = parse_expression(coeff)
    if sieve is None:
        sieve = build_sieve(max(limit, 2))
    coeff_tab = tabulate(expr, limit, sieve, cache)
    lhs = dirichlet_partial_sum(coeff_tab, z).value

    zeta_target = max(min(tolerance / 1000.0, 1e-9), 1e-12)
    primes = _primes_from(sieve, prime_limit)

    def zeta_at(arg: complex) -> complex:
        return zeta(arg, zeta_target).value

    def F_at(arg: complex) -> complex:
        return prime_F(arg, prime_limit, primes).value

    rhs = closed_form(z, zeta_at, F_at, k)
    abs_error = abs(lhs - rhs)
    return SeriesCheckReport(
        name=name,
        s=z,
        limit=limit,
        prime_limit=prime_limit,
        lhs=lhs,
        rhs=complex(rhs),
        abs_error=abs_error,
        tolerance=tolerance,
        passed=abs_error <= tolerance,
    )
