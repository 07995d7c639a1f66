"""Double-precision Dirichlet series: zeta, the prime sum F, and identity checks.

The exact convolution layer supplies coefficients; this module turns them
into truncated Dirichlet sums and compares those against closed forms built
from zeta(s) and F(s) = sum over primes of 1/(p**(s+1) - p), within an
explicit tolerance.

Supported regions.  zeta is evaluated by direct summation plus the integral
tail correction N**(1-s)/(s-1), which needs Re(s) >= 1.5 to stay cheap and
carries the remainder bound N**(-Re(s)).  F converges for Re(s) > 0 and is
summed over primes up to a limit with an integral tail bound.  There is no
analytic continuation anywhere.

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
- zeta's tail correction N**(1-s)/(s-1): rounding 1 - s perturbs the pow by
  u |1-s| log N and s - 1 costs u; the pow itself (Python's complex pow: one
  pow, a phase Im(1-s) log N, cos and sin) costs at most 11 + 5 |1-s| log N
  and the quotient 6, so e <= 18 + 6 (|s| + 1) log N.
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
from itertools import chain
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .convolution import TabulatedFunction, parse_expression, tabulate
from .errors import OutOfDomainError, UnknownNameError
from .factor import SieveTable, _primes_from, build_sieve, primes_up_to

ComplexLike = Union[int, float, complex]

_CHUNK = 1 << 20
_MAX_ZETA_TERMS = 300_000_000
_U = 2.0**-53  # unit roundoff of float64


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


def _sum_terms(count: int, terms: Callable[[int, int], np.ndarray]) -> tuple[complex, float]:
    """Correctly rounded sum of the terms 0 <= i < count, and the sum of their moduli.

    terms(lo, hi) returns the float64 or complex128 terms lo <= i < hi; it is
    called on blocks of at most _CHUNK indices, so memory stays bounded.  Each
    component is one math.fsum over the whole stream: the exact sum of the
    computed terms, rounded once.  Past the first block the blocks are computed
    again for each component rather than held.
    """
    spans = [(lo, min(lo + _CHUNK, count)) for lo in range(0, max(count, 1), _CHUNK)]
    first = terms(*spans[0])

    def total(part: Callable[[np.ndarray], np.ndarray]) -> float:
        blocks = chain((first,), (terms(lo, hi) for lo, hi in spans[1:]))
        return math.fsum(chain.from_iterable(memoryview(part(b)) for b in blocks))

    if np.iscomplexobj(first):
        return complex(total(np.real), total(np.imag)), total(np.abs)
    value = total(np.real)
    # sum |t| = sum t - 2 * (sum of the negative terms), which are usually few
    return complex(value), value - 2.0 * total(lambda b: b[b < 0])


def _half_ulps(z: complex) -> float:
    """Half an ulp of each component of z: the error of rounding z once."""
    return 0.5 * (math.ulp(z.real) + math.ulp(z.imag))


def _powers(lo: int, hi: int, s: complex) -> np.ndarray:
    """n**(-s) for lo < n <= hi: one pow for real s, exp(-s log n) otherwise."""
    ns = np.arange(lo + 1, hi + 1, dtype=np.float64)
    return ns ** (-s.real) if s.imag == 0.0 else np.exp(-s * np.log(ns))


def _powers_error(s: complex, limit: int) -> float:
    """Relative error of _powers, in units of 2**-53, for n <= limit."""
    return 4.0 if s.imag == 0.0 else 11.0 + 5.0 * abs(s) * math.log(limit)


def _power_sum(limit: int, s: complex) -> tuple[complex, float]:
    """sum of n**(-s) for 1 <= n <= limit, correctly rounded from the computed
    terms, and the sum of their moduli."""
    return _sum_terms(limit, lambda lo, hi: _powers(lo, hi, s))


def zeta(s: ComplexLike, target_precision: float = 1e-10) -> SeriesEstimate:
    """zeta(s) for Re(s) >= 1.5 by direct sum plus the tail integral N**(1-s)/(s-1).

    The remainder after the correction is bounded by N**(-Re(s)); N is chosen
    so that the bound meets target_precision.  Adding the correction rounds
    once more, so rounding_bound carries half an ulp of the direct sum and of
    the value, and c = e + 1 for the power terms and for the correction.
    """
    z = _as_finite_complex(s)
    re = z.real
    if re < 1.5:
        raise OutOfDomainError(f"zeta supported for Re(s) >= 1.5, got Re(s) = {re}")
    if target_precision <= 0:
        raise ValueError("target_precision must be positive")
    n_terms = max(
        math.ceil(target_precision ** (-1.0 / re)),
        math.ceil(2 * abs(z) ** 2),
        50,
    )
    if n_terms > _MAX_ZETA_TERMS:
        raise ValueError(
            f"target_precision {target_precision} at Re(s) = {re} needs {n_terms} terms; "
            f"limit is {_MAX_ZETA_TERMS}"
        )
    partial, magnitude = _power_sum(n_terms, z)
    n_f = float(n_terms)
    correction = n_f ** complex(1 - z) / (z - 1) if z.imag else n_f ** (1 - re) / (re - 1)
    value = complex(partial + correction)
    c_corr = 19.0 + 6.0 * (abs(z) + 1.0) * math.log(n_f)
    weighted = (_powers_error(z, n_terms) + 1.0) * magnitude + c_corr * abs(correction)
    rounding = _half_ulps(partial) + _half_ulps(value) + _U * weighted
    return SeriesEstimate(value, n_terms, n_f ** (-re), rounding)


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

    def terms(lo: int, hi: int) -> np.ndarray:
        p = ps[lo:hi]
        power = p ** (re + 1.0) if z.imag == 0.0 else np.exp((z + 1) * np.log(p))
        return 1.0 / (power - p)

    value, magnitude = _sum_terms(ps.size, terms)
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
    value, magnitude = _sum_terms(limit, lambda lo, hi: coeffs[lo:hi] * _powers(lo, hi, z))
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
