"""Exact Dirichlet-convolution algebra on the window [1, N] and an identity verifier.

Arithmetic functions are tabulated exactly, combined through small expression
trees, and compared value-for-value.  No floating point enters this module.

Expression syntax (also used by the command line):

    *   Dirichlet convolution          one * id          -> sigma
    .   pointwise product / scaling    1/2 . tau . delta
    + -                addition, subtraction, unary minus
    ()                 grouping

Builtins fall into four function classes; each class has one sieve
tabulator and one point evaluator that works from the factorization:

    completely multiplicative   one (= id_0), id (= id_1), id_<k>
                                (|k| <= 64; id_-1 is 1/n), in closed form
    multiplicative              eps, mu, tau, phi, sigma (= sigma_1),
                                sigma_<k> (0 <= k <= 64), from g(p, a) at p**a
    Leibniz-additive            delta, ld, big_omega, delta_p:<prime>
    prime-power-supported       mangoldt:<fn>, f(p)/h(p) at every p**k

Numeric literals are scalars and combine through "." only.

Every table, public or internal, is one TabulatedFunction: a Fraction c, an
int k >= 0 and padded numerators num, with value c * num[n] / n**k at n.
Each builtin declares its k (ld = delta/id and id_-k have k > 0, the von
Mangoldt builtins have k = 1, all others k = 0), and its numerators are ints;
tables built from given values hold them as numerators with c = 1 and k = 0.
The form is closed under every operation on numerators alone:

    *   align both sides to k = max(k1, k2) by multiplying num by n**(k - ki);
        then (c1 a/n**k) * (c2 b/n**k) = c1 c2 (a * b)/n**k, because the
        completely multiplicative id**-k distributes over Dirichlet
        convolution (the compmult-distr law h.(u * v) = (h.u) * (h.v))
    .   c1 c2, k1 + k2, numerators multiplied pointwise
    + - align to one k and one c, then add numerators; scalars change only c
    ^-1 the Dirichlet inverse of c a/n**k is (1/c) a^-1/n**k, by the same law

Comparison aligns the same way and compares numerators.  Values are built
only when read (TabulatedFunction documents the read rule), so Fractions
appear only in what a caller reads, in the two values of a mismatch report
and in the scalars c.

The prime-power-supported class is the generalized von Mangoldt function
Lambda_f (MangoldtOf, mangoldt_tabulate, mangoldt_eval).  The identity
catalog is one dict from preset name to its formula and its cases: pairs of
expression texts, or for the seeded compmult-distr preset a generator of
table pairs.  verify_identity compares every case through first_mismatch.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import operator
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, IO, Iterable, Iterator, Optional, Union

from .errors import ParseError, UnknownNameError
from .factor import SieveTable, _primes_from, build_sieve, divisors, factorize
from .ladditive import (
    LAdditiveFunction,
    as_exact,
    delta,
    eval_natural,
    l_additive_by_token,
    ld,
    tabulate_l_additive,
)

Rational = Union[int, Fraction]


def fraction_to_str(v: Rational) -> str:
    """'p/q' in lowest terms; ints and Fractions already carry theirs, floats are rejected."""
    if not isinstance(v, (int, Fraction)):
        raise TypeError(f"values must be exact rationals (int or Fraction), got {v!r}")
    return f"{v.numerator}/{v.denominator}"


def fraction_from_str(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


# ---------------------------------------------------------------------------
# Tabulated functions
# ---------------------------------------------------------------------------


class TabulatedFunction:
    """Exact values of an arithmetic function on 1..limit (1-indexed reads).

    The table holds a Fraction c, an int k >= 0 and padded numerators
    _vals[0..limit]; its value at n is c * _vals[n] / n**k.  Values are built
    only when read, by one rule that keeps the value types of the numerators:
    with c = 1 and k = 0 the stored numerator, with k = 0 and an integer c
    that integer times it, and otherwise Fraction(c * _vals[n], n**k), or
    the int 0 where the numerator is 0.  The public constructors store the
    given values with c = 1 and k = 0.
    """

    __slots__ = ("limit", "_c", "_k", "_vals")

    def __init__(self, limit: int, padded_values: list):
        # padded_values[n] is the value at n; index 0 is unused filler.
        if limit < 1:
            raise ValueError("limit must be >= 1")
        if len(padded_values) != limit + 1:
            raise ValueError("padded value list must have length limit + 1")
        self.limit = limit
        self._c = _ONE
        self._k = 0
        self._vals = padded_values

    @classmethod
    def from_values(cls, values: Iterable[Rational]) -> "TabulatedFunction":
        vals = [0, *values]
        return cls(len(vals) - 1, vals)

    def __getitem__(self, n: int) -> Rational:
        if not 1 <= n <= self.limit:
            raise IndexError(f"index {n} outside [1, {self.limit}]")
        p, q, k, v = self._c.numerator, self._c.denominator, self._k, self._vals[n]
        if k == 0 and q == 1:
            return v if p == 1 else p * v
        return Fraction(p * v, q * n**k) if v else 0

    def __len__(self) -> int:
        return self.limit

    def values(self) -> list:
        """The values at 1..limit as a fresh list."""
        p, q, k, num = self._c.numerator, self._c.denominator, self._k, self._vals
        if k == 0 and q == 1:
            return num[1:] if p == 1 else [p * v for v in num[1:]]
        return [Fraction(p * num[n], q * n**k) if num[n] else 0 for n in range(1, self.limit + 1)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TabulatedFunction):
            return NotImplemented
        return self.limit == other.limit and first_mismatch(self, other) is None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = ", ".join(str(self[n]) for n in range(1, min(self.limit, 6) + 1))
        return f"TabulatedFunction(limit={self.limit}, values=[{head}, ...])"

    def to_csv(self, out: IO[str]) -> None:
        """CSV with columns n, value (value always as 'p/q')."""
        w = csv.writer(out)
        w.writerow(["n", "value"])
        w.writerows([n, fraction_to_str(v)] for n, v in enumerate(self.values(), 1))

    def to_json_obj(self) -> dict:
        return {
            "limit": self.limit,
            "values": [fraction_to_str(v) for v in self.values()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text: str) -> "TabulatedFunction":
        obj = json.loads(text)
        vals = [fraction_from_str(s) for s in obj["values"]]
        if len(vals) != obj["limit"]:
            raise ValueError("limit does not match number of values")
        return cls.from_values(vals)


_ONE = Fraction(1)


def _scaled(limit: int, c: Fraction, k: int, num: list) -> TabulatedFunction:
    """The table c * num[n] / n**k, without validation: for tables built here."""
    t = TabulatedFunction.__new__(TabulatedFunction)
    t.limit, t._c, t._k, t._vals = limit, c, k, num
    return t


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


class Expr:
    """Base class of expression nodes; build with the constructors below or parse_expression."""

    __slots__ = ()

    def __str__(self) -> str:
        return _render(self, 0)


@dataclass(frozen=True)
class Builtin(Expr):
    name: str


@dataclass(frozen=True)
class Conv(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Scale(Expr):
    coeff: Fraction
    child: Expr

    def __post_init__(self) -> None:
        # floats would silently poison the exact layer
        if isinstance(self.coeff, int):
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        elif not isinstance(self.coeff, Fraction):
            raise TypeError("Scale coefficient must be an exact rational (int or Fraction)")


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr


# Precedence: atoms 3, pointwise 2, convolution 1, additive 0.  The binary
# operators are left-associative, so right operands render one level stricter.
def _render(e: Expr, parent: int) -> str:
    if isinstance(e, Builtin):
        return _SHORT_NAMES.get(e.name, e.name)
    if isinstance(e, Mul):
        s = f"{_render(e.left, 2)} . {_render(e.right, 3)}"
        level = 2
    elif isinstance(e, Scale):
        c = e.coeff
        cs = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        s = f"{cs} . {_render(e.child, 2)}"
        level = 2
    elif isinstance(e, Conv):
        s = f"{_render(e.left, 1)} * {_render(e.right, 2)}"
        level = 1
    elif isinstance(e, Add):
        if isinstance(e.right, Neg):
            s = f"{_render(e.left, 0)} - {_render(e.right.child, 1)}"
        else:
            s = f"{_render(e.left, 0)} + {_render(e.right, 1)}"
        level = 0
    elif isinstance(e, Neg):
        s = f"-{_render(e.child, 3)}"
        level = 0
    else:  # pragma: no cover - exhaustive
        raise TypeError(f"not an expression node: {e!r}")
    return f"({s})" if level < parent else s


# ---------------------------------------------------------------------------
# Expression parser
# ---------------------------------------------------------------------------

# Bounds the parser's recursion (six frames per open parenthesis) and the tree depth
# that _tab, _render and evaluate_at recurse over, well inside the default limit of 1000.
_MAX_TOKENS = 128
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_BODY = _NAME_START | set("0123456789")


def _lex(text: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            den = 1
            if j < n and text[j] == "/":
                k = j + 1
                if k >= n or not text[k].isdigit():
                    raise ParseError(f"malformed rational at position {i}: {text[i:]!r}")
                m = k
                while m < n and text[m].isdigit():
                    m += 1
                den = int(text[k:m])
                j = m
            tokens.append(("num", Fraction(num, den)))
            i = j
            continue
        if c in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_BODY:
                j += 1
            # "id_-1": a trailing "_-digits" belongs to the name.
            if text[j - 1] == "_" and j + 1 < n and text[j] == "-" and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            # colon-joined suffixes: delta_p:5, mangoldt:ld, mangoldt:delta_p:5
            while j < n and text[j] == ":":
                k = j + 1
                while k < n and (text[k] in _NAME_BODY):
                    k += 1
                if k == j + 1:
                    raise ParseError(f"dangling ':' in name at position {i}")
                j = k
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if c in "*.+-()":
            tokens.append(("op", c))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r} at position {i}")
    if len(tokens) > _MAX_TOKENS:
        raise ParseError(f"expression too long: more than {_MAX_TOKENS} tokens")
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self) -> tuple[str, object]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, object]:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str) -> None:
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}")

    # sum := term (('+'|'-') term)*
    def parse_sum(self) -> Union[Expr, Fraction]:
        node = self.parse_term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.parse_term()
                node = _as_expr(node)
                rhs = _as_expr(rhs)
                node = Add(node, Neg(rhs) if val == "-" else rhs)
            else:
                return node

    # term := ['-'] conv
    def parse_term(self) -> Union[Expr, Fraction]:
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            inner = self.parse_conv()
            if isinstance(inner, Fraction):
                return -inner
            return Neg(inner)
        return self.parse_conv()

    # conv := point ('*' point)*
    def parse_conv(self) -> Union[Expr, Fraction]:
        node = self.parse_point()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                rhs = self.parse_point()
                if isinstance(node, Fraction) or isinstance(rhs, Fraction):
                    raise ParseError(
                        "a bare scalar cannot be a Dirichlet-convolution operand; "
                        "use the constant function 'one' or attach the scalar with '.'"
                    )
                node = Conv(node, rhs)
            else:
                return node

    # point := atom ('.' atom)*   (scalars fold into a Scale coefficient)
    def parse_point(self) -> Union[Expr, Fraction]:
        coeff = Fraction(1)
        chain: Optional[Expr] = None
        for atom in self._point_atoms():
            if isinstance(atom, Fraction):
                coeff *= atom
            else:
                chain = atom if chain is None else Mul(chain, atom)
        if chain is None:
            return coeff
        if coeff != 1:
            return Scale(coeff, chain)
        return chain

    def _point_atoms(self):
        yield self.parse_atom()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == ".":
                self.take()
                yield self.parse_atom()
            else:
                return

    def parse_atom(self) -> Union[Expr, Fraction]:
        kind, val = self.take()
        if kind == "num":
            return val  # type: ignore[return-value]
        if kind == "name":
            node = Builtin(normalize_builtin_name(str(val)))
            resolve_builtin(node.name)  # unknown names fail here, not at tabulation
            return node
        if kind == "op" and val == "(":
            inner = self.parse_sum()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r}")


def _as_expr(x: Union[Expr, Fraction]) -> Expr:
    if isinstance(x, Fraction):
        raise ParseError("a bare scalar is not an arithmetic function; multiply it with one via '.'")
    return x


def parse_expression(text: str) -> Expr:
    """Parse the expression grammar; unknown builtin names fail immediately."""
    p = _Parser(text)
    node = p.parse_sum()
    kind, val = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input at token {val!r}")
    return _as_expr(node)


# ---------------------------------------------------------------------------
# Builtin catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltinImpl:
    """A builtin's function class: tabulate(limit, sieve) gives the padded int
    numerators num[n] = value(n) * n**k on [1, limit] from a sieve covering limit,
    at(n) the value at n from its factorization."""

    tabulate: Callable[[int, SieveTable], list]
    at: Callable[[int], Rational]
    k: int = 0


def _power(k: int) -> BuiltinImpl:
    """Completely multiplicative id_k(n) = n**k in closed form; one is id_0."""
    if k < 0:
        return BuiltinImpl(lambda limit, sieve: [0] + [1] * limit, lambda n: Fraction(1, n**-k), -k)
    at = lambda n: n**k  # noqa: E731
    return BuiltinImpl(lambda limit, sieve: [0, *map(at, range(1, limit + 1))], at)


def _multiplicative(g: Callable[[int, int], int]) -> BuiltinImpl:
    """Multiplicative function with value g(p, a) at each prime power p**a."""

    def tab(limit: int, sieve: SieveTable) -> list:
        # Split n = p**a * r at the smallest prime p: v[n] = v[p**a] * v[r],
        # and v[p**a] = g(p, a) the first time the prime power itself comes up.
        spf = sieve.spf
        v = [0] * (limit + 1)
        v[1] = 1
        for n in range(2, limit + 1):
            p = spf[n]
            r = n // p
            a = 1
            while r % p == 0:
                r //= p
                a += 1
            v[n] = v[n // r] * v[r] if r > 1 else g(p, a)
        return v

    return BuiltinImpl(tab, lambda n: math.prod(g(p, a) for p, a in factorize(n)))


def _tab_delta(limit: int, sieve: SieveTable) -> list:
    # Leibniz split on the smallest prime factor: delta(p*m) = m + p*delta(m).
    # Kept beside tabulate_l_additive on purpose: a generic Leibniz split also
    # carries an h table, and at 2*10**5 even an all-int one took 60-85 ms
    # instead of 40 ms and 15.4 MB of peak allocation instead of 7.4 MB.
    # It also gives the numerators of ld = delta/id.
    spf = sieve.spf
    v = [0] * (limit + 1)
    for n in range(2, limit + 1):
        p = spf[n]
        m = n // p
        v[n] = m + p * v[m]
    return v


def _leibniz_additive(fn: LAdditiveFunction, tab=None, k: int = 0) -> BuiltinImpl:
    """Leibniz-additive f with companion h: tabulate_l_additive and eval_natural."""
    if tab is None:
        tab = lambda limit, sieve: tabulate_l_additive(fn, limit, sieve)  # noqa: E731
    return BuiltinImpl(tab, lambda n: eval_natural(fn, n), k)


@dataclass(frozen=True)
class MangoldtOf:
    """The generalized von Mangoldt function Lambda_f attached to an L-additive base f.

    It takes the value f(p)/h(p) on every prime power p**k (k >= 1) and 0
    elsewhere, and inverts f through h: f = h * (h . Lambda_f).
    """

    base: LAdditiveFunction


def _prime_ratio(fn: LAdditiveFunction, p: int) -> Rational:
    """f(p)/h(p), the value of Lambda_f at every power of p."""
    f, h = fn.at_prime(p)
    return as_exact(Fraction(f, h))


def _mangoldt_numerators(fn: LAdditiveFunction, limit: int, sieve: Optional[SieveTable] = None) -> list:
    """n * Lambda_f(n) on [1, limit], padded: (f(p)/h(p)) * p**j at every p**j, else 0.

    The primes come from the sieve when one is given.  The numerators are ints
    for every base that l_additive_by_token resolves, where f(p)/h(p) is an
    int or 1/p.
    """
    num: list = [0] * (limit + 1)
    for p in _primes_from(sieve, limit):
        f, h = fn.at_prime(p)
        a, b = f.numerator * h.denominator, f.denominator * h.numerator  # f(p)/h(p) = a/b
        q = p
        while q <= limit:
            v, r = divmod(a * q, b)
            num[q] = Fraction(a * q, b) if r else v
            q *= p
    return num


def mangoldt_tabulate(m: MangoldtOf, limit: int) -> TabulatedFunction:
    """Tabulation on [1, limit]: f(p)/h(p) at every p**k (k >= 1), else 0."""
    num = _mangoldt_numerators(m.base, limit)
    return TabulatedFunction(limit, [as_exact(Fraction(v, n)) if v else 0 for n, v in enumerate(num)])


def mangoldt_eval(m: MangoldtOf, n: int, sieve: Optional[SieveTable] = None) -> Fraction:
    """f(p)/h(p) when n = p**k for some k >= 1, else 0 (including n = 1)."""
    if n < 1:
        raise ValueError("mangoldt_eval requires n >= 1")
    fact = factorize(n, sieve)
    if len(fact) != 1:
        return Fraction(0)
    return Fraction(_prime_ratio(m.base, fact.factors[0].prime))


def _prime_power_supported(fn: LAdditiveFunction) -> BuiltinImpl:
    """The generalized von Mangoldt function Lambda_f, supported on prime powers."""
    m = MangoldtOf(fn)
    tab = lambda limit, sieve: _mangoldt_numerators(fn, limit, sieve)  # noqa: E731
    return BuiltinImpl(tab, lambda n: mangoldt_eval(m, n), 1)


# Short spellings of canonical builtin names; expressions render the short form.
_ALIASES = {"id": "id_1", "sigma": "sigma_1"}
_SHORT_NAMES = {canonical: alias for alias, canonical in _ALIASES.items()}


def normalize_builtin_name(name: str) -> str:
    return _ALIASES.get(name, name)


_CATALOG = {
    "one": _power(0),
    "eps": _multiplicative(lambda p, a: 0),
    "mu": _multiplicative(lambda p, a: -1 if a == 1 else 0),
    "tau": _multiplicative(lambda p, a: a + 1),
    "phi": _multiplicative(lambda p, a: p ** (a - 1) * (p - 1)),
    "delta": _leibniz_additive(delta(), _tab_delta),
    "ld": _leibniz_additive(ld(), _tab_delta, 1),
}


# Family exponents beyond this make every value a huge power; such a name fails
# at parse time instead of hanging tabulation or point evaluation.
_MAX_EXPONENT = 64


def _family_exponent(name: str, k: int) -> int:
    if abs(k) > _MAX_EXPONENT:
        raise ParseError(f"exponent of {name!r} out of range: |k| must be <= {_MAX_EXPONENT}")
    return k


# A family member depends only on its name, so resolutions are memoized.
@functools.lru_cache(maxsize=64)
def _resolve_family(name: str) -> Optional[BuiltinImpl]:
    if name.startswith("id_"):
        try:
            k = int(name[3:])
        except ValueError:
            return None
        return _power(_family_exponent(name, k))
    if name.startswith("sigma_"):
        if not name[6:].isdigit():
            return None
        k = _family_exponent(name, int(name[6:]))
        return _multiplicative(lambda p, a: sum(p ** (j * k) for j in range(a + 1)))
    prefix, _, token = name.partition(":")
    mangoldt = prefix == "mangoldt"
    try:
        fn = l_additive_by_token(token if mangoldt else name)
    except UnknownNameError:
        return None
    return _prime_power_supported(fn) if mangoldt else _leibniz_additive(fn)


def resolve_builtin(name: str) -> BuiltinImpl:
    canonical = normalize_builtin_name(name)
    impl = _CATALOG.get(canonical) or _resolve_family(canonical)
    if impl is None:
        raise UnknownNameError(name)
    return impl


# ---------------------------------------------------------------------------
# Tabulation and convolution
# ---------------------------------------------------------------------------


def _convolve_padded(a: list, b: list, limit: int) -> list:
    # Harmonic double loop: O(N log N) exact operations.  Put the sparser
    # factor outside; convolution is commutative.
    na = sum(1 for v in a if v != 0)
    nb = sum(1 for v in b if v != 0)
    if nb < na:
        a, b = b, a
    out: list = [0] * (limit + 1)
    for d in range(1, limit + 1):
        ad = a[d]
        if ad == 0:
            continue
        n = d
        q = 1
        while n <= limit:
            bq = b[q]
            if bq != 0:
                out[n] += ad * bq
            n += d
            q += 1
    return out


def _times(num: list, s: int, d: int) -> list:
    """s * num[n] * n**d at every n, as a new list unless s = 1 and d = 0."""
    if d == 0:
        return num if s == 1 else [s * v for v in num]
    return [v * (s * n**d) for n, v in enumerate(num)]


def _mul(x: TabulatedFunction, y: TabulatedFunction) -> TabulatedFunction:
    return _scaled(x.limit, x._c * y._c, x._k + y._k, [u * v for u, v in zip(x._vals, y._vals)])


def _aligned(x: TabulatedFunction, y: TabulatedFunction) -> tuple:
    """(c, k, a, b) with x = c a/n**k and y = c b/n**k, k = max(k1, k2)."""
    c1, c2 = x._c, y._c
    k = max(x._k, y._k)
    # c1 = s1 c and c2 = s2 c with c = g/(q1 q2), s1 = p1 q2/g and s2 = p2 q1/g
    s1, s2 = c1.numerator * c2.denominator, c2.numerator * c1.denominator
    g = math.gcd(s1, s2) or 1
    c = Fraction(g, c1.denominator * c2.denominator)
    return c, k, _times(x._vals, s1 // g, k - x._k), _times(y._vals, s2 // g, k - y._k)


def _add(x: TabulatedFunction, y: TabulatedFunction) -> TabulatedFunction:
    c, k, a, b = _aligned(x, y)
    return _scaled(x.limit, c, k, [u + v for u, v in zip(a, b)])


def _tab(expr: Expr, limit: int, sieve: SieveTable, cache: dict) -> TabulatedFunction:
    """The table of expr; builtin numerators are cached by name and may be shared."""
    if isinstance(expr, Builtin):
        impl = resolve_builtin(expr.name)
        key = (normalize_builtin_name(expr.name), limit)
        num = cache.get(key)
        if num is None:
            num = cache[key] = impl.tabulate(limit, sieve)
        return _scaled(limit, _ONE, impl.k, num)
    if isinstance(expr, (Conv, Mul, Add)):
        x = _tab(expr.left, limit, sieve, cache)
        y = _tab(expr.right, limit, sieve, cache)
        if isinstance(expr, Conv):
            return dirichlet_convolve(x, y)
        return _mul(x, y) if isinstance(expr, Mul) else _add(x, y)
    if isinstance(expr, (Scale, Neg)):
        t = _tab(expr.child, limit, sieve, cache)
        return _scaled(limit, expr.coeff * t._c if isinstance(expr, Scale) else -t._c, t._k, t._vals)
    raise TypeError(f"not an expression node: {expr!r}")


def _covering_sieve(sieve: Optional[SieveTable], limit: int) -> SieveTable:
    if sieve is None:
        return build_sieve(max(limit, 2))
    if sieve.limit < limit:
        raise ValueError("sieve does not cover the requested limit")
    return sieve


def tabulate(
    expr: Expr,
    limit: int,
    sieve: Optional[SieveTable] = None,
    cache: Optional[dict] = None,
) -> TabulatedFunction:
    """Pointwise values of the expression on [1, limit]."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    sieve = _covering_sieve(sieve, limit)
    t = _tab(expr, limit, sieve, cache if cache is not None else {})
    # Scale and Neg pass their child's numerators through, so a builtin under
    # scalars hands back its cached list: never alias the cache.
    leaf = expr
    while isinstance(leaf, (Scale, Neg)):
        leaf = leaf.child
    if isinstance(leaf, Builtin):
        t._vals = list(t._vals)
    return t


def dirichlet_convolve(a: TabulatedFunction, b: TabulatedFunction) -> TabulatedFunction:
    """(a * b)(n) = sum over d | n of a(d) b(n/d), exactly, for n up to the shared limit.

    Both sides are aligned to k = max(k1, k2) and their numerators convolved:
    (c1 u/n**k) * (c2 v/n**k) = c1 c2 (u * v)/n**k by compmult-distr with the
    completely multiplicative h = id**-k.
    """
    if a.limit != b.limit:
        raise ValueError(f"limit mismatch: {a.limit} != {b.limit}")
    k = max(a._k, b._k)
    num = _convolve_padded(_times(a._vals, 1, k - a._k), _times(b._vals, 1, k - b._k), a.limit)
    return _scaled(a.limit, a._c * b._c, k, num)


def evaluate_at(expr: Expr, n: int) -> Fraction:
    """Single-point evaluation by divisor enumeration; independent of tabulate."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(expr, Builtin):
        return Fraction(resolve_builtin(expr.name).at(n))
    if isinstance(expr, Conv):
        total = Fraction(0)
        for d in divisors(n):
            av = evaluate_at(expr.left, d)
            if av:
                total += av * evaluate_at(expr.right, n // d)
        return total
    if isinstance(expr, Mul):
        return evaluate_at(expr.left, n) * evaluate_at(expr.right, n)
    if isinstance(expr, Add):
        return evaluate_at(expr.left, n) + evaluate_at(expr.right, n)
    if isinstance(expr, Scale):
        return expr.coeff * evaluate_at(expr.child, n)
    if isinstance(expr, Neg):
        return -evaluate_at(expr.child, n)
    raise TypeError(f"not an expression node: {expr!r}")


def convolve_at(a_expr: Expr, b_expr: Expr, n: int) -> Fraction:
    """(a * b)(n) by direct divisor enumeration; cross-checks dirichlet_convolve."""
    return evaluate_at(Conv(a_expr, b_expr), n)


def dirichlet_inverse(a: TabulatedFunction) -> TabulatedFunction:
    """The Dirichlet inverse on [1, limit]: (a * inverse)(n) = eps(n).

    The loop runs on the numerators: (c u/n**k)^-1 = (1/c) u^-1/n**k by
    compmult-distr, since h = id**-k fixes eps.
    """
    av = a._vals
    a1 = av[1]
    if a1 == 0 or a._c == 0:
        raise ValueError("not invertible: value at 1 is 0")
    limit = a.limit
    inv1 = a1 if a1 in (1, -1) else 1 / Fraction(a1)  # an int table stays int
    # Harmonic loop: out[n] collects a(d) out[n/d] over d | n, d > 1, from the
    # smaller n/d before the loop reaches n; then out[n] = -out[n]/a(1).
    out: list = [0] * (limit + 1)
    out[1] = inv1
    for n in range(1, limit + 1):
        if n > 1:
            out[n] = -inv1 * out[n]
        v = out[n]
        if v == 0:
            continue
        for d in range(2, limit // n + 1):
            if av[d] != 0:
                out[n * d] += av[d] * v
    return _scaled(limit, 1 / a._c, a._k, out)


def first_mismatch(
    a: TabulatedFunction, b: TabulatedFunction
) -> Optional[tuple[int, Fraction, Fraction]]:
    """Smallest n where the tabulations differ, with both exact values; None if equal.

    The numerators are compared after aligning k and c; values are built only
    at the n reported.
    """
    if a.limit != b.limit:
        raise ValueError(f"limit mismatch: {a.limit} != {b.limit}")
    _, _, u, v = _aligned(a, b)
    differs = map(operator.ne, itertools.islice(u, 1, None), itertools.islice(v, 1, None))
    n = next(itertools.compress(itertools.count(1), differs), None)
    return None if n is None else (n, Fraction(a[n]), Fraction(b[n]))


# ---------------------------------------------------------------------------
# Identity verifier
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of checking one identity preset exactly on [1, limit]."""

    identity: str
    limit: int
    holds: bool
    mismatch_n: Optional[int]
    lhs: Optional[Fraction]
    rhs: Optional[Fraction]
    case: Optional[str]
    elapsed_s: float

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "range": self.limit,
            "holds": self.holds,
            "mismatch_n": self.mismatch_n,
            "lhs": None if self.lhs is None else fraction_to_str(self.lhs),
            "rhs": None if self.rhs is None else fraction_to_str(self.rhs),
            "case": self.case,
            "elapsed_s": self.elapsed_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "VerificationReport":
        return cls(
            identity=obj["identity"],
            limit=obj["range"],
            holds=obj["holds"],
            mismatch_n=obj["mismatch_n"],
            lhs=None if obj["lhs"] is None else fraction_from_str(obj["lhs"]),
            rhs=None if obj["rhs"] is None else fraction_from_str(obj["rhs"]),
            case=obj["case"],
            elapsed_s=obj["elapsed_s"],
        )

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Identity catalog
# ---------------------------------------------------------------------------


def _over(lhs: str, rhs: str, *gs: str) -> tuple[tuple[str, str], ...]:
    """One (lhs, rhs) case per g, with "{g}" in both templates replaced by g."""
    return tuple((lhs.format(g=g), rhs.format(g=g)) for g in gs)


def _compmult_cases(limit: int, seed: int) -> Iterator[tuple[TabulatedFunction, TabulatedFunction, str]]:
    # Completely multiplicative h distributes over convolution:
    # h.(u * v) = (h.u) * (h.v), exercised with h = id on random rational tables
    # with values p/q, |p| <= 3 and q <= 4, held as ints over 12.
    rng = random.Random(seed)
    u = [0] + [rng.randint(-3, 3) * (12 // rng.randint(1, 4)) for _ in range(limit)]
    v = [0] + [rng.randint(-3, 3) * (12 // rng.randint(1, 4)) for _ in range(limit)]
    u, v = _scaled(limit, Fraction(1, 12), 0, u), _scaled(limit, Fraction(1, 12), 0, v)
    h = _scaled(limit, _ONE, 0, list(range(limit + 1)))
    label = "id . (u * v) = (id . u) * (id . v)"
    yield _mul(h, dirichlet_convolve(u, v)), dirichlet_convolve(_mul(h, u), _mul(h, v)), label


# name -> (formula, cases), in listing order.  cases is a tuple of (lhs, rhs)
# expression pairs, or for a seeded preset a function (limit, seed) that
# yields (lhs, rhs, label) with both sides as tables.
_IDENTITIES: dict = {
    "thm2.2": (
        "f * g = (f/h).(h * g) - h * (f.g/h), with f = delta, h = id, "
        "for g in {one, id, mu.id, phi.id}",
        _over(
            "delta * ({g})",
            "(delta . id_-1) . (id * ({g})) - id * (delta . ({g}) . id_-1)",
            "one", "id", "mu . id", "phi . id",
        ),
    ),
    "cor2.1": (
        "f * (mu.h) = -(h * (mu.f)) for f = delta, h = id",
        (("delta * (mu . id)", "-(id * (mu . delta))"),),
    ),
    "cor2.2": (
        "delta * g = (delta/id).(id * g) - id * (g.delta/id) for g in {one, id, id_2}",
        _over(
            "delta * ({g})",
            "(delta . id_-1) . (id * ({g})) - id * (({g}) . delta . id_-1)",
            "one", "id", "id_2",
        ),
    ),
    "eq13": ("id * delta = 1/2 . tau . delta", (("id * delta", "1/2 . (tau . delta)"),)),
    "eq14": (
        "sigma * delta = 1/2 . (one * (tau . delta))",
        (("sigma * delta", "1/2 . (one * (tau . delta))"),),
    ),
    "eq15": (
        "delta = 1/2 . ((id . mu) * (tau . delta))",
        (("delta", "1/2 . ((id . mu) * (tau . delta))"),),
    ),
    "eq16": (
        "id * (id . delta) = sigma . delta - id_2 * delta",
        (("id * (id . delta)", "sigma . delta - id_2 * delta"),),
    ),
    "cor2.6": (
        "(id . mu) * delta = -(id * (mu . delta))",
        (("(id . mu) * delta", "-(id * (mu . delta))"),),
    ),
    "cor2.7": (
        "(id . phi) * delta = id . delta - id * (phi . delta)",
        (("(id . phi) * delta", "id . delta - id * (phi . delta)"),),
    ),
    "eq19": (
        "f * g = f.(one * g) - one * (f.g) for completely additive f = ld, "
        "g in {one, id, tau}",
        _over("ld * ({g})", "ld . (one * ({g})) - one * (ld . ({g}))", "one", "id", "tau"),
    ),
    "eq20": (
        "ld * f = ld.(one * f) - one * (ld.f) for f in {one, id}",
        _over("ld * ({g})", "ld . (one * ({g})) - one * (ld . ({g}))", "one", "id"),
    ),
    "eq21": (
        "delta * (id.f) = delta.(one * f) - id * (f.delta) for f in {one, id, id_2}",
        _over(
            "delta * (id . ({g}))",
            "delta . (one * ({g})) - id * (({g}) . delta)",
            "one", "id", "id_2",
        ),
    ),
    "compadd-distr": (
        "completely additive f distributes: f.(u * v) = (f.u) * v + u * (f.v), "
        "with f = ld, u = one, v = id",
        (("ld . (one * id)", "(ld . one) * id + one * (ld . id)"),),
    ),
    "compmult-distr": (
        "completely multiplicative h distributes: h.(u * v) = (h.u) * (h.v), "
        "with h = id on seeded random rational tables",
        _compmult_cases,
    ),
    # The generalized von Mangoldt function Lambda_f (MangoldtOf above).
    "thm3.1": (
        "f = h * (h . mangoldt:f) for f in {delta, ld}",
        (("delta", "id * (id . mangoldt:delta)"), ("ld", "one * (one . mangoldt:ld)")),
    ),
    "thm3.2": (
        "mangoldt:f = mu * (f/h) = -(one * (mu . f/h)) for f in {delta, ld}",
        (
            ("mangoldt:delta", "mu * (delta . id_-1)"),
            ("mangoldt:delta", "-(one * (mu . delta . id_-1))"),
            ("mangoldt:ld", "mu * ld"),
            ("mangoldt:ld", "-(one * (mu . ld))"),
        ),
    ),
    "eq23": (
        "tau * mangoldt:f = 1/2 . (f . tau / h) for f in {delta, ld}",
        (
            ("tau * mangoldt:delta", "1/2 . (tau . delta . id_-1)"),
            ("tau * mangoldt:ld", "1/2 . (tau . ld)"),
        ),
    ),
    "cor3.8": (
        "completely additive f recovers from its prime-power values: ld = one * mangoldt:ld",
        (("ld", "one * mangoldt:ld"),),
    ),
    "cor3.9": (
        "mangoldt:ld = mu * ld = -(one * (mu . ld))",
        (("mangoldt:ld", "mu * ld"), ("mangoldt:ld", "-(one * (mu . ld))")),
    ),
    "delta-from-lambda": (
        "delta = id * (id . mangoldt:ld)",
        (("delta", "id * (id . mangoldt:ld)"),),
    ),
}


def list_identity_presets() -> list[tuple[str, str]]:
    """Identity names with their defining formulas, in catalog order."""
    return [(name, formula) for name, (formula, _) in _IDENTITIES.items()]


def verify_identity(
    name: str,
    limit: int,
    *,
    seed: int = 0,
    sieve: Optional[SieveTable] = None,
    cache: Optional[dict] = None,
) -> VerificationReport:
    """Tabulate both sides of a preset and compare exactly on [1, limit]."""
    if name not in _IDENTITIES:
        raise UnknownNameError(name)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    t0 = time.perf_counter()
    sieve = _covering_sieve(sieve, limit)
    cache = cache if cache is not None else {}

    def tab(text: str) -> TabulatedFunction:
        return _tab(parse_expression(text), limit, sieve, cache)

    cases = _IDENTITIES[name][1]
    if callable(cases):
        sides = cases(limit, seed)
    else:
        sides = ((tab(lhs), tab(rhs), f"{lhs} = {rhs}") for lhs, rhs in cases)
    for lhs, rhs, label in sides:
        hit = first_mismatch(lhs, rhs)
        if hit is not None:
            n, lv, rv = hit
            return VerificationReport(name, limit, False, n, lv, rv, label, time.perf_counter() - t0)
    return VerificationReport(name, limit, True, None, None, None, None, time.perf_counter() - t0)


def verify_all(limit: int, *, seed: int = 0) -> list[VerificationReport]:
    """Run every identity preset with a shared sieve and builtin cache."""
    sieve = build_sieve(max(limit, 2))
    cache: dict = {}
    return [verify_identity(name, limit, seed=seed, sieve=sieve, cache=cache) for name in _IDENTITIES]
