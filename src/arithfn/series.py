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

Rounding.  Every sum goes through _sum_terms: one binned exact sum per
component over all computed terms (_exact_sum: the terms binned by their float
exponent with np.bincount, the bins joined in one Python int), so each
component of a sum is the exact sum of the computed terms rounded once, within
half an ulp.  What is left is the error of the terms themselves.  With
u = 2**-53, basic float operations and float()
of an exact int or Fraction are taken as correctly rounded (relative error u)
and numpy's pow, exp and log as within 2 ulp (4u).  Complex exp,
e**x (cos y + i sin y), is then within (4 + 4*sqrt(2) + 1) u < 11u of its
modulus, and a complex quotient within 6u.  An error dw in the argument moves
exp(w) by |dw| |exp(w)| to first order, so exp(-s log n) gains
(4 + 1) u |s| log n from log n (4u) and the product with s (u per component).
If each computed term t' obeys |t' - t| <= e u |t|, the value obeys

    |value - sum t| <= ulp(Re value)/2 + ulp(Im value)/2 + u sum (e + 1) |t'|

with e taken per term, the extra unit covering second-order terms and the
use of the computed moduli.  SeriesEstimate.rounding_bound reports this; e is:

- n**-s (_powers): 4 for real s (one pow); 11 + 5 |s| log n for complex s,
  each power charged for its own n.
- a(n) n**-s: that plus 2 (float() of a(n), one product).  Zero coefficients
  are skipped; a(n) = c num[n]/n**k is one int true division (or float() of
  a Fraction), so it is correctly rounded.
- Below 2**-1022 relative errors do not hold: the rounding of a subnormal
  costs up to 2**-1073 per component, absolutely.  rounding_bound therefore
  adds 2**-1071 max(1, |a(n)|) max(1, |n**-s|) for each term whose
  coefficient or power lies there, 0 included, and 2**-1071 for each product
  that does.  A complex power that underflows to 0 is charged that alone, so
  zeta(1e200 + 1j) reports a bound near u.  A nonzero coefficient below
  2**-1075 rounds to 0 and is skipped with the zeros.
- zeta's corrections start from x = N**-s, the last power (e_x above); an
  operation costs k = 1 for real s and 6 for complex s (a complex product is
  within sqrt(5) u), and s + m costs 1.  N**-s/2 is exact: e = e_x.
  N**(1-s)/(s-1) = x N/(s-1): e = e_x + 1 + 2k.  T_j = (B_2j/(2j)!) g_j with
  g_1 = s x/N and g_{j+1} = g_j (s+2j-1)(s+2j)/N**2 (N**2 is exact): 2k for
  g_1, 2 + 3k per step and 1 + k for the coefficient, so e = e_x + j (2+3k) - 1.
- 1/(p**(s+1) - p), with N the largest p summed: s + 1 costs u |s+1| log N
  through the pow, so a = p**(s+1) has relative error 4 + |s+1| log N for
  real s and 11 + 6 |s+1| log N for complex s (log p, product and exp).
  Subtracting p multiplies that by |a|/|a - p| <= C = 1/(1 - 2**-Re(s)) and
  adds u; the reciprocal adds u for real s and 6u for complex s.  So e is
  C (4 + |s+1| log N) + 2, or C (11 + 6 |s+1| log N) + 7.  A term whose
  power overflows is counted as 0: its modulus is below
  1/(2**1024 - p) < 2**-1023, which rounding_bound adds once per such term.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .convolution import Builtin, Expr, Mul, TabulatedFunction, parse_expression, resolve_builtin, tabulate
from .errors import OutOfDomainError, UnknownNameError
from .factor import SieveTable, _primes_from, build_sieve, primes_up_to

ComplexLike = Union[int, float, complex]

_U = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1022  # smallest normal float64
_UNDERFLOW = 2.0**-1071  # absolute error charged per term below _TINY ("Rounding" above)
_CHUNK = 2**15  # terms per bincount in _exact_sum

# B_2, B_4, ..., B_26 as exact (numerator, denominator); zeta adds the terms of
# B_2j/(2j)! for j <= 12 and bounds its remainder by the 13th.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
              (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730), (8553103, 6))
_EM_COEFFS = [float(Fraction(p, q) / math.factorial(2 * j)) for j, (p, q) in enumerate(_BERNOULLI, 1)]
_ZETA_MAX_N = 1 << 16  # bounds zeta's N, which starts at |Im(s)| and doubles toward a target


def _as_finite_complex(s: ComplexLike, label: str = "s") -> complex:
    z = complex(s)
    if not math.isfinite(math.hypot(z.real, z.imag)):  # abs(z) raises past the float range
        raise ValueError(f"|{label}| must be finite, got {z}")
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


def _exact_sum(x: np.ndarray) -> float:
    """The sum of a float64 array, exact and then rounded once (half to even), as math.fsum
    gives it where fsum's partial sums stay in range.

    frexp reads each finite x as m 2**e with |m| < 1 and 53 bits, that is, as a 53-bit
    integer M = m 2**53 times 2**(e - 53), with e + 1074 in [1, 2098] (e = 0 at x = 0).  M
    splits exactly into h 2**26 + l with -2**27 <= h < 2**27 and 0 <= l < 2**26, and
    np.bincount sums h and l by e, _CHUNK = 2**15 terms at a time, so that every bucket sum
    stays below 2**42 and is exact in float64; the chunks also keep the temporaries small.
    Their int64 totals are exact below 2**36 terms.  The buckets join in one Python int,
    the sum scaled by 2**(1074 + 53), whose int true division by that power rounds once; an
    exact value past the float range raises OverflowError.  A sum with no nonzero term is
    +0.0.  With a nan or an infinity the result is fsum's: ValueError for inf - inf, else
    nan, else the infinity.
    """
    if not np.isfinite(x).all():
        if np.isposinf(x).any() and np.isneginf(x).any():
            raise ValueError("-inf + inf in fsum")
        return math.nan if np.isnan(x).any() else float(x[np.isinf(x)][0])
    highs, lows = np.zeros(2100, np.int64), np.zeros(2100, np.int64)  # by e + 1074
    for lo in range(0, len(x), _CHUNK):
        m, e = np.frexp(x[lo : lo + _CHUNK])
        m *= 2.0**27
        h = np.floor(m)
        m -= h
        m *= 2.0**26
        e += 1074
        highs += np.bincount(e, h, 2100).astype(np.int64)
        lows += np.bincount(e, m, 2100).astype(np.int64)
    i = np.flatnonzero(highs | lows)
    total = sum(((a << 26) + b) << j for j, a, b in zip(i.tolist(), highs[i].tolist(), lows[i].tolist()))
    return total / (1 << 1127)


def _sum_terms(terms: np.ndarray, e, c: float = 0.0) -> tuple[complex, float]:
    """Correctly rounded sum of a float64 or complex128 term array, and its rounding bound.

    Each component is one _exact_sum over the whole array: the exact sum of the
    computed terms, rounded once.  zeta by Euler-Maclaurin summation (Edwards,
    Riemann's Zeta Function, 1974, 6.4) needs at most 2**16 terms, so every sum of
    the module is one array.  The bound is half an ulp of each component plus
    u sum (e_i + c + 1) |t_i|, where e is the relative error of each term in units
    of u (an array) or of all of them (a float).  The bound's own sum is taken in
    float: its rounding is second order.
    """
    if np.iscomplexobj(terms):
        value = complex(_exact_sum(terms.real), _exact_sum(terms.imag))
    else:
        value = complex(_exact_sum(terms))
    mods = np.abs(terms)
    total = float(np.sum(mods))
    weighted = float(np.dot(mods, e)) if np.ndim(e) else e * total
    return value, _half_ulps(value) + _U * (weighted + (c + 1.0) * total)


def _half_ulps(z: complex) -> float:
    """Half an ulp of each component of z: the error of rounding z once."""
    return 0.5 * (math.ulp(z.real) + math.ulp(z.imag))


def _powers(ns: np.ndarray, s: complex) -> tuple[np.ndarray, Union[float, np.ndarray]]:
    """n**(-s) at every n of the float array ns, with their relative error in units of u.

    One pow for real s: 4 units for all.  exp(-s log n) otherwise: an array
    of 11 + 5 |s| log n units, and 0 where the power underflows to 0, which
    the underflow charge of "Rounding" above covers instead.  Where Im(s) log n
    overflows the phase is lost, and OutOfDomainError is raised.
    """
    if s.imag == 0.0:
        return ns ** (-s.real), 4.0
    e = np.log(ns)
    # -s log n beyond the float range: the power is 0, or NaN when the phase overflows
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.exp(-s * e)
        # 11 + 5 |s| log n, in place of log n for peak memory
        e *= 5.0
        e *= abs(s)
    if np.isnan(powers).any():
        raise OutOfDomainError(f"Im(s) log n overflows at s = {s}: the phase of n**-s is lost")
    e += 11.0
    e[powers == 0] = 0.0
    return powers, e


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
    # |R| <= head * N**(-Re(s)-25), compared in log space: for |s| beyond about
    # 2*10**12 head overflows while N**(-Re(s)-25) underflows.  A zero factor
    # s + m (s = 0, -1, ..., -24) makes the remainder 0.
    factors = [abs(z + m) for m in range(25)]
    if 0.0 in factors:
        log_head = -math.inf
    else:
        log_head = math.log(abs(z + 25) / (re + 25) * abs(_EM_COEFFS[-1])) + math.fsum(map(math.log, factors))
    log_target = math.log(target_precision)
    n = max(16, math.ceil(abs(z.imag)))
    while n <= _ZETA_MAX_N and not log_head - (re + 25) * math.log(n) <= log_target:
        n *= 2
    if n > _ZETA_MAX_N:
        raise ValueError(f"zeta({z}) cannot meet target_precision {target_precision} with N <= {_ZETA_MAX_N}")
    powers, e = _powers(np.arange(1, n + 1, dtype=np.float64), z)
    e = np.broadcast_to(e, powers.shape)
    w = z if z.imag else re  # real arithmetic for real s
    x, n_f = powers[-1].item(), float(n)
    corrections = [x * n_f / (w - 1), x / 2]
    g = w * x / n_f
    for j, c in enumerate(_EM_COEFFS[:-1], 1):
        corrections.append(c * g)
        if g:  # once x underflows every correction is 0, and (w+2j-1)(w+2j) may overflow
            g = g * ((w + 2 * j - 1) * (w + 2 * j)) / (n_f * n_f)
    k = 6.0 if z.imag else 1.0  # cost of one operation; extra[i] is e - e_x of corrections[i]
    extra = [1.0 + 2.0 * k, 0.0] + [j * (2.0 + 3.0 * k) - 1.0 for j in range(1, len(_EM_COEFFS))]
    terms = np.concatenate((powers[:-1], corrections))
    value, rounding = _sum_terms(terms, np.concatenate((e[:-1], e[-1] + np.array(extra))))
    tail = math.exp(log_head - (re + 25) * math.log(n))
    underflow = _UNDERFLOW * np.count_nonzero(np.abs(powers[:-1]) < _TINY)
    return SeriesEstimate(value, n, tail, rounding + underflow)


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
    through the subtraction of p.  Where Im(s) log p overflows the phase is
    lost, and OutOfDomainError is raised.
    """
    z = _as_finite_complex(s)
    re = z.real
    if re <= 0:
        raise OutOfDomainError(f"F(s) requires Re(s) > 0, got Re(s) = {re}")
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    ps = np.asarray(primes if primes is not None else primes_up_to(prime_limit), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        power = ps ** (re + 1.0) if z.imag == 0.0 else np.exp((z + 1) * np.log(ps))
        terms = 1.0 / (power - ps)
    if np.isnan(power).any():
        raise OutOfDomainError(f"Im(s) log p overflows at s = {z}: the phase of p**(s+1) is lost")
    overflowed = ~np.isfinite(power)
    terms[overflowed] = 0.0
    c = 1.0 / (1.0 - 2.0 ** (-re))
    tail = c * prime_limit ** (-re) / re
    log_n = math.log(ps.max()) if ps.size else 0.0
    if z.imag == 0.0:
        e = c * (4.0 + abs(z + 1) * log_n) + 2.0
    else:
        e = c * (11.0 + 6.0 * abs(z + 1) * log_n) + 7.0
    value, rounding = _sum_terms(terms, e)
    dropped = int(np.count_nonzero(overflowed)) * 2.0**-1023
    return SeriesEstimate(value, prime_limit, tail, rounding + dropped)


def dirichlet_partial_sum(a: TabulatedFunction, s: ComplexLike) -> SeriesEstimate:
    """sum of a(n)/n**s for n <= a.limit; exact values go to float at the last step.

    tail_bound is reported as 0.0 ("truncation only"): coefficient growth is
    not bounded in-code, so the cutoff a.limit is the only tail information.
    A coefficient beyond the float64 range raises ValueError naming its n.
    """
    z = _as_finite_complex(s)
    terms, e, underflow = _partial_terms(a, z)
    value, rounding = _sum_terms(terms, e, 2.0)
    return SeriesEstimate(value, a.limit, 0.0, rounding + underflow)


def _partial_terms(a: TabulatedFunction, s: complex) -> tuple[np.ndarray, Union[float, np.ndarray], float]:
    """a(n) n**-s at the n with a(n) != 0, the relative error of the powers and the
    underflow charge.  Each float a(n) is correctly rounded: with c = 1 and k = 0
    the numerators cast to float64 (int64 rounds to nearest, an object numerator
    converts as float() does), else one int true division p num[n]/(q n**k)
    from the numerators of c = p/q (or float() of a Fraction numerator's
    quotient), without building the Fraction a(n)."""
    p, q, k, num = a._c.numerator, a._c.denominator, a._k, a._vals
    try:
        if k == 0 and p == q == 1:
            coeffs = num.astype(np.float64)
            ns = np.flatnonzero(coeffs)  # index 0 holds 0
            coeffs = coeffs[ns]
        else:
            ns = np.flatnonzero(num)
            coeffs = np.array([p * v / (q * n**k) for n, v in zip(ns.tolist(), num[ns].tolist())], float)
        ns = ns.astype(np.float64)
    except OverflowError:
        for n in range(1, a.limit + 1):
            try:
                float(a[n])
            except OverflowError:
                raise ValueError(f"coefficient at n = {n} is beyond the float64 range") from None
        raise
    powers, e = _powers(ns, s)
    del ns  # peak memory: the n are not needed past their powers
    # Below the normal range relative errors do not hold ("Rounding" above).
    tiny = (np.abs(coeffs) < _TINY) | (np.abs(powers) < _TINY)
    weight = math.fsum(np.maximum(np.abs(coeffs[tiny]), 1.0) * np.maximum(np.abs(powers[tiny]), 1.0))
    terms = np.multiply(powers, coeffs, out=powers)  # in place, for peak memory
    weight += np.count_nonzero(np.abs(terms) < _TINY)
    return terms, e, _UNDERFLOW * weight


# ---------------------------------------------------------------------------
# Series identity presets
# ---------------------------------------------------------------------------

# name -> (formula, coefficients).  The coefficients are an expression text; a
# "{k}" in them takes the power k >= 0.  The closed form and the half-plane
# are derived from the coefficients by _series_form.
_SERIES_PRESETS: dict = {
    "lemma-Fld": ("sum mangoldt:ld(n)/n^s = F(s); checked for Re(s) > 1", "mangoldt:ld"),
    "thm3.3": ("sum delta(n)/n^s = zeta(s-1) F(s-1); Re(s) > 2", "delta"),
    "cor-tau": ("sum tau(n) delta(n)/n^s = 2 zeta(s-1)^2 F(s-1); Re(s) > 2", "tau . delta"),
    "cor-mu": ("sum mu(n) delta(n)/n^s = -F(s-1) / zeta(s-1); Re(s) > 2", "mu . delta"),
    "cor-phi": (
        "sum phi(n) delta(n)/n^s = zeta(s-2)/zeta(s-1) (F(s-2) - F(s-1)); Re(s) > 3",
        "phi . delta",
    ),
    "cor-sigma": (
        "sum sigma(n) delta(n)/n^s = zeta(s-1) zeta(s-2) (F(s-2) + F(s-1)); Re(s) > 3",
        "sigma . delta",
    ),
    "cor-sigmak": (
        "sum sigma_k(n) delta(n)/n^s = zeta(s-1) zeta(s-k-1) (F(s-1) + F(s-k-1)); "
        "Re(s) > k+2 (k defaults to 2)",
        "sigma_{k} . delta",
    ),
}


def _series_form(expr: Expr) -> tuple[dict, dict]:
    """(e, w) with sum a(n)/n**s = prod_j zeta(s-j)**e[j] * sum_j w[j] F(s-j) for the
    coefficients a of a preset: Lambda_ld gives F(s); f . delta (delta is one . delta)
    gives e = w = e_f shifted by 1, for f with series prod_j zeta(s-j)**e_f[j], since
    delta(n) = n sum_p v_p(n)/p takes the log-derivative of each Euler factor."""
    if expr == Builtin("mangoldt:ld"):
        return {}, {0: 1}
    f = expr.left if isinstance(expr, Mul) else Builtin("one")
    e = {j + 1: ej for j, ej in resolve_builtin(f.name).euler.items()}
    return e, e


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
    a sieve table costs half a word per integer, primes_up_to a byte.
    """
    preset = _SERIES_PRESETS.get(name)
    if preset is None:
        raise UnknownNameError(name)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be positive and finite")
    _, coeff = preset
    if "{k}" in coeff:
        if k < 0:
            raise ValueError("k must be >= 0")
        coeff = coeff.format(k=k)
    z = _as_finite_complex(s)
    expr = parse_expression(coeff)
    e, w = _series_form(expr)
    min_re = 1.0 + max(w)
    if z.real <= min_re:
        raise OutOfDomainError(
            f"{name} is checked for Re(s) > {min_re}, got Re(s) = {z.real}"
        )
    if sieve is None:
        sieve = build_sieve(max(limit, 2))
    coeff_tab = tabulate(expr, limit, sieve, cache)
    lhs = dirichlet_partial_sum(coeff_tab, z).value

    zeta_target = max(min(tolerance / 1000.0, 1e-9), 1e-12)
    primes = _primes_from(sieve, prime_limit)
    rhs = math.prod(zeta(z - j, zeta_target).value ** ej for j, ej in e.items())
    rhs *= sum(wj * prime_F(z - j, prime_limit, primes).value for j, wj in w.items())
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
