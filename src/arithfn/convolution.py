"""Exact Dirichlet-convolution algebra on the window [1, N] and an identity verifier.

Arithmetic functions are tabulated exactly, combined through small expression
trees, and compared value-for-value.  No floating point enters this module.

Expression syntax (also used by the command line):

    *   Dirichlet convolution          one * id          -> sigma
    .   pointwise product / scaling    1/2 . tau . delta
    + -                addition, subtraction, unary minus
    ()                 grouping

    sum   := term (('+' | '-') term)*
    term  := ['-'] conv
    conv  := point ('*' point)*
    point := atom ('.' atom)*       (its scalars fold into one Scale coefficient)
    atom  := number | name | '(' sum ')'

Text is ASCII, and ASCII whitespace may surround tokens.  A number is
digits with an optional '/' and digits, p/q with q >= 1; a name is a letter
or '_' then letters, digits and '_', with a trailing '_-digits' (id_-1) and
':'-joined suffixes (delta_p:5, mangoldt:ld) belonging to it.  Any other
character is a ParseError.

Builtins fall into four function classes; each class has one sieve
tabulator and one point evaluator that works from the factorization:

    completely multiplicative   one (= id_0), id (= id_1), id_<k>
                                (|k| <= 64; id_-1 is 1/n), in closed form
    multiplicative              eps, mu, tau, phi, sigma (= sigma_1), sigma_<k>
                                (0 <= k <= 64), as prod_j zeta(s - j)**e_j
    Leibniz-additive            delta, ld, big_omega, delta_p:<prime>
    prime-power-supported       mangoldt:<fn>, f(p)/h(p) at every p**k

A class tabulates as its prime-power values (id_k: np.arange**k) and, for the
multiplicative and Leibniz-additive ones, one shared recurrence
(ladditive.split_recurrence); ld = delta/id tabulates as delta's numerators
n ld(n) = delta(n) with k = 1.

Numeric literals are scalars and combine through "." only.

Every table, public or internal, is one TabulatedFunction: a Fraction c, an
int k >= 0 and padded numerators num, with value c * num[n] / n**k at n.
Each builtin declares its k (ld = delta/id and id_-k have k > 0, the von
Mangoldt builtins have k = 1, all others k = 0), and its numerators are ints;
tables built from given values hold them as numerators with c = 1 and k = 0.
num is one numpy array, int64 under a proven bound and object dtype otherwise
(split_recurrence holds the bound of tabulation, _one_dtype that of every
operation); values are type-checked only where they enter a table, and builtin
tabulators return arrays.  The form is closed under every operation on num:

    *   align both sides to k = max(k1, k2) by multiplying num by n**(k - ki);
        then (c1 a/n**k) * (c2 b/n**k) = c1 c2 (a * b)/n**k, because the
        completely multiplicative id**-k distributes over Dirichlet
        convolution (the compmult-distr law h.(u * v) = (h.u) * (h.v))
    .   c1 c2, k1 + k2, numerators multiplied pointwise
    + - align to one k and one c, then add numerators; scalars change only c
    ^-1 (c a/n**k)^-1 = (1/c) a^-1/n**k by the same law, a^-1 by Newton's iteration

Comparison aligns the same way and compares numerators.  Values are built
only when read, as Python ints and Fractions (TabulatedFunction documents the
read rule); otherwise Fractions appear only in the scalars c and in the
numerators of Fraction-valued inputs.

The prime-power-supported class is the generalized von Mangoldt function
Lambda_f (MangoldtOf, mangoldt_tabulate, mangoldt_eval).  The identity
catalog is one dict from preset name to its formula and its cases: pairs of
expression texts, or for the seeded compmult-distr preset a generator of
table pairs.  verify_identity compares every case through first_mismatch.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import operator
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, IO, Iterable, Iterator, Optional, Union

import numpy as np

from .errors import ParseError, UnknownNameError
from .factor import SieveTable, _primes_from, build_sieve, divisors, factorize
from .ladditive import (
    LAdditiveFunction,
    as_exact,
    delta,
    eval_natural,
    exact_array,
    exact_ratio,
    l_additive_by_token,
    leibniz_numerators,
    ld,
    prime_power_table,
    split_recurrence,
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
    _vals[0..limit], an int64 or object ndarray; its value at n is
    c * _vals[n] / n**k.  Values are built only when read, as Python ints and
    Fractions, by one rule: with c = 1 and k = 0 the stored numerator, with
    k = 0 and an integer c that integer times it, and otherwise
    Fraction(c * _vals[n], n**k), or the int 0 where the numerator is 0.  The
    public constructors copy the given ints and Fractions with c = 1, k = 0.
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
        self._vals = exact_array(padded_values[1:])

    @classmethod
    def from_values(cls, values: Iterable[Rational]) -> "TabulatedFunction":
        vals = [0, *values]
        return cls(len(vals) - 1, vals)

    def __getitem__(self, n: int) -> Rational:
        if not 1 <= n <= self.limit:
            raise IndexError(f"index {n} outside [1, {self.limit}]")
        p, q, k, v = self._c.numerator, self._c.denominator, self._k, self._vals.item(n)
        if k == 0 and q == 1:
            return v if p == 1 else p * v
        return Fraction(p * v, q * n**k) if v else 0

    def __len__(self) -> int:
        return self.limit

    def values(self) -> list:
        """The values at 1..limit as a fresh list."""
        p, q, k, num = self._c.numerator, self._c.denominator, self._k, self._vals[1:].tolist()
        if k == 0 and q == 1:
            return num if p == 1 else [p * v for v in num]
        return [Fraction(p * v, q * n**k) if v else 0 for n, v in enumerate(num, 1)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TabulatedFunction):
            return NotImplemented
        return self.limit == other.limit and first_mismatch(self, other) is None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = ", ".join(str(self[n]) for n in range(1, min(self.limit, 6) + 1))
        return f"TabulatedFunction(limit={self.limit}, values=[{head}, ...])"

    def _value_strs(self) -> list[str]:
        """The values at 1..limit as 'p/q' in lowest terms.  An int numerator is formatted as
        p num[n]/g over q n**k/g with g their gcd (no gcd where q n**k = 1), without a Fraction."""
        p, q, k = self._c.numerator, self._c.denominator, self._k
        if q == 1 and k == 0:
            return [f"{p * v}/1" if type(v) is int else fraction_to_str(p * v) for v in self._vals[1:].tolist()]
        return [_lowest_terms(p * v, q * n**k) if type(v) is int else fraction_to_str(self[n])
                for n, v in enumerate(self._vals[1:].tolist(), 1)]

    def to_csv(self, out: IO[str]) -> None:
        """CSV with columns n, value (value always as 'p/q')."""
        w = csv.writer(out)
        w.writerow(["n", "value"])
        w.writerows(enumerate(self._value_strs(), 1))

    def to_json_obj(self) -> dict:
        return {"limit": self.limit, "values": self._value_strs()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text: str) -> "TabulatedFunction":
        obj = json.loads(text)
        limit = obj.get("limit") if isinstance(obj, dict) else None
        if type(limit) is not int or limit < 1 or not isinstance(obj.get("values"), list):
            raise ValueError("malformed table: expected an object with int 'limit' >= 1 and list 'values'")
        vals = [0]
        for n, s in enumerate(obj["values"], 1):
            try:  # "p/1" becomes an int without a Fraction
                vals.append(int(s[:-2]) if s.endswith("/1") else as_exact(fraction_from_str(s)))
            except (AttributeError, ValueError, ZeroDivisionError):
                raise ValueError(f"malformed value at n = {n}: {s!r}") from None
        if len(vals) - 1 != obj["limit"]:
            raise ValueError("limit does not match number of values")
        return cls(len(vals) - 1, vals)


_ONE = Fraction(1)


def _lowest_terms(a: int, b: int) -> str:
    g = math.gcd(a, b)
    return f"{a // g}/{b // g}"


def _scaled(limit: int, c: Fraction, k: int, num: np.ndarray) -> TabulatedFunction:
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


def _unary(e: Expr) -> Expr:
    """e as it renders: a Scale by 1 as its child, a negative one as the unary minus over its
    absolute value, "-(2 . tau)", which parses where "-2 . tau" does not (after "*" or ".")."""
    while isinstance(e, Scale) and e.coeff == 1:
        e = e.child
    return Neg(Scale(-e.coeff, e.child)) if isinstance(e, Scale) and e.coeff < 0 else e


# Precedence: atoms 4, pointwise 3, scaling 2, convolution 1, additive 0; the parser folds
# the scalars of a pointwise chain, so a Scale inside one renders in parentheses.  Binary
# operators are left-associative, so right operands render one level stricter.
def _render(e: Expr, parent: int) -> str:
    e = _unary(e)
    if isinstance(e, Builtin):
        return _SHORT_NAMES.get(e.name, e.name)
    if isinstance(e, Mul):
        s = f"{_render(e.left, 3)} . {_render(e.right, 4)}"
        level = 3
    elif isinstance(e, Scale):
        c = e.coeff
        cs = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        s = f"{cs} . {_render(e.child, 3)}"
        level = 2
    elif isinstance(e, Conv):
        s = f"{_render(e.left, 1)} * {_render(e.right, 2)}"
        level = 1
    elif isinstance(e, Add):
        right = _unary(e.right)
        if isinstance(right, Neg):
            s = f"{_render(e.left, 0)} - {_render(right.child, 1)}"
        else:
            s = f"{_render(e.left, 0)} + {_render(right, 1)}"
        level = 0
    elif isinstance(e, Neg):
        s = f"-{_render(e.child, 4)}"
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
# One match per token, as the module docstring describes; "bad" is any other character
# but whitespace, so trailing whitespace matches nothing and is skipped.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d*)?)|(?P<name>[A-Za-z_]\w*(?:(?<=_)-\d+)?(?::\w*)*)"
    r"|(?P<op>[-*.+()])|(?P<bad>\S))",
    re.ASCII,
)


def _lex(text: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok, i = m[kind], m.start(kind)
        if kind == "num":
            num, slash, den = tok.partition("/")
            try:
                tok = Fraction(int(num), int(den) if slash else 1)
            except (ValueError, ZeroDivisionError):  # "p/", "p/0", or too many digits for int()
                raise ParseError(f"malformed rational at position {i}: {text[i:]!r}") from None
        elif kind == "bad":
            raise ParseError(f"unexpected character {tok!r} at position {i}")
        elif kind == "name" and "" in tok.split(":"):
            raise ParseError(f"dangling ':' in name at position {i}")
        tokens.append((kind, tok))
    if len(tokens) > _MAX_TOKENS:
        raise ParseError(f"expression too long: more than {_MAX_TOKENS} tokens")
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    def take(self, ops: str) -> Optional[str]:
        """The next token, consumed, if it is one of the operators ops; else None."""
        kind, val = self.tokens[self.pos]
        if kind == "op" and val in ops:
            self.pos += 1
            return val
        return None

    def parse_sum(self) -> Union[Expr, Fraction]:
        node = self.parse_term()
        while op := self.take("+-"):
            rhs = _as_expr(self.parse_term())
            node = Add(_as_expr(node), Neg(rhs) if op == "-" else rhs)
        return node

    def parse_term(self) -> Union[Expr, Fraction]:
        if not self.take("-"):
            return self.parse_conv()
        inner = self.parse_conv()
        return -inner if isinstance(inner, Fraction) else Neg(inner)

    def parse_conv(self) -> Union[Expr, Fraction]:
        node = self.parse_point()
        while self.take("*"):
            rhs = self.parse_point()
            if isinstance(node, Fraction) or isinstance(rhs, Fraction):
                raise ParseError(
                    "a bare scalar cannot be a Dirichlet-convolution operand; "
                    "use the constant function 'one' or attach the scalar with '.'"
                )
            node = Conv(node, rhs)
        return node

    def parse_point(self) -> Union[Expr, Fraction]:
        coeff, chain, more = 1, None, True
        while more:
            atom = self.parse_atom()
            if isinstance(atom, Fraction):
                coeff *= atom
            else:
                chain = atom if chain is None else Mul(chain, atom)
            more = self.take(".")
        if chain is None:
            return coeff
        return chain if coeff == 1 else Scale(coeff, chain)

    def parse_atom(self) -> Union[Expr, Fraction]:
        kind, val = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":
            return val  # type: ignore[return-value]
        if kind == "name":
            node = Builtin(normalize_builtin_name(str(val)))
            resolve_builtin(node.name)  # unknown names fail here, not at tabulation
            return node
        if val == "(":
            inner = self.parse_sum()
            if not self.take(")"):
                raise ParseError(f"expected ')', found {self.tokens[self.pos][1]!r}")
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
    kind, val = p.tokens[p.pos]
    if kind != "end":
        raise ParseError(f"trailing input at token {val!r}")
    return _as_expr(node)


# ---------------------------------------------------------------------------
# Builtin catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltinImpl:
    """A builtin's function class: tabulate(limit, sieve) gives the padded numerators
    num[n] = value(n) * n**k on [1, limit] from a sieve covering limit, as a fresh int64
    or object array with 0 at index 0, at(n) the value at n from its factorization,
    euler the {j: e_j} of a series prod_j zeta(s - j)**e_j."""

    tabulate: Callable[[int, SieveTable], np.ndarray]
    at: Callable[[int], Rational]
    k: int = 0
    euler: Optional[dict] = None


def _power(k: int) -> BuiltinImpl:
    """Completely multiplicative id_k(n) = n**k in closed form; one is id_0, and id_-k has
    numerators 1 over n**k.  Numerators n**max(k, 0), int64 exactly when limit**max(k, 0) fits."""
    j = max(k, 0)

    def tab(limit: int, sieve: SieveTable) -> np.ndarray:
        num = np.arange(limit + 1, dtype=np.int64 if limit**j <= _INT64_MAX else object) ** j
        num[0] = 0
        return num

    return BuiltinImpl(tab, (lambda n: n**k) if k >= 0 else (lambda n: Fraction(1, n**-k)), j - k, {k: 1})


def _zeta_product(e: dict) -> BuiltinImpl:
    """Multiplicative f with Dirichlet series prod_j zeta(s - j)**e[j], j >= 0: f(p**a) is
    the x**a coefficient of prod_j (1 - p**j x)**-e[j], so f(p) = sum_j e[j] p**j."""

    def g(p: int, a: int) -> int:
        c = [1] + [0] * a  # x**0..x**a of the product so far
        for j, ej in e.items():
            # times 1/(1 - p**j x) runs upward, times 1 - p**j x downward
            q, order = (p**j, range(1, a + 1)) if ej > 0 else (-(p**j), range(a, 0, -1))
            for _ in range(abs(ej)):
                for i in order:
                    c[i] += q * c[i - 1]
        return c[a]

    def tab(limit: int, sieve: SieveTable) -> np.ndarray:
        ps = _primes_from(sieve, limit)
        # sum_j |e_j| limit**j bounds f(p) and its partial sums at every p <= limit
        x = np.array(ps, np.int64 if sum(abs(ej) * limit**j for j, ej in e.items()) <= _INT64_MAX else object)
        f_p = sum((ej * x**j for j, ej in e.items()), np.zeros_like(x)).tolist()
        return split_recurrence(sieve, limit, prime_power_table(limit, ps, f_p, lambda i, a: g(ps[i], a)))

    return BuiltinImpl(tab, lambda n: math.prod(g(p, a) for p, a in factorize(n)), euler=e)


def _leibniz_additive(fn: LAdditiveFunction) -> BuiltinImpl:
    """Leibniz-additive f with companion h: numerators f(n), and eval_natural."""
    return BuiltinImpl(lambda limit, sieve: leibniz_numerators(fn, limit, sieve), lambda n: eval_natural(fn, n))


@dataclass(frozen=True)
class MangoldtOf:
    """The generalized von Mangoldt function Lambda_f attached to an L-additive base f.

    It takes the value f(p)/h(p) on every prime power p**k (k >= 1) and 0
    elsewhere, and inverts f through h: f = h * (h . Lambda_f).
    """

    base: LAdditiveFunction


def _mangoldt_numerators(fn: LAdditiveFunction, limit: int, sieve: Optional[SieveTable] = None) -> np.ndarray:
    """n * Lambda_f(n) on [0, limit]: (f(p)/h(p)) * p**j at every p**j, else 0.

    The primes come from the sieve when one is given.  The numerators are ints
    for every base that l_additive_by_token resolves, where f(p)/h(p) is an
    int or 1/p.
    """
    ps = _primes_from(sieve, limit)
    # f(p)/h(p) = a/b, so the value at p**j is a p**j / b
    ab = [(f.numerator * h.denominator, f.denominator * h.numerator) for f, h in map(fn.at_prime, ps)]
    at = lambda i, j: exact_ratio(ab[i][0] * ps[i] ** j, ab[i][1])  # noqa: E731
    return prime_power_table(limit, ps, [at(i, 1) for i in range(len(ps))], at)


def mangoldt_tabulate(m: MangoldtOf, limit: int) -> TabulatedFunction:
    """Tabulation on [1, limit]: f(p)/h(p) at every p**k (k >= 1), else 0; the table
    tabulate(mangoldt:<base>) builds, with numerators n * Lambda_f(n) and k = 1."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return _scaled(limit, _ONE, 1, _mangoldt_numerators(m.base, limit))


def mangoldt_eval(m: MangoldtOf, n: int, sieve: Optional[SieveTable] = None) -> Fraction:
    """f(p)/h(p) when n = p**k for some k >= 1, else 0 (including n = 1)."""
    if n < 1:
        raise ValueError("mangoldt_eval requires n >= 1")
    fact = factorize(n, sieve)
    if len(fact) != 1:
        return Fraction(0)
    f, h = m.base.at_prime(fact.factors[0].prime)
    return Fraction(f, h)


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


_DELTA = _leibniz_additive(delta())
_CATALOG = {
    "one": _power(0),
    "eps": _zeta_product({}),
    "mu": _zeta_product({0: -1}),
    "tau": _zeta_product({0: 2}),
    "phi": _zeta_product({1: 1, 0: -1}),
    "delta": _DELTA,
    "ld": BuiltinImpl(_DELTA.tabulate, functools.partial(eval_natural, ld()), 1),  # n ld(n) = delta(n)
}


# Family exponents beyond this make every value a huge power; such a name fails
# at parse time instead of hanging tabulation or point evaluation.
_MAX_EXPONENT = 64
_FAMILY = re.compile(r"(id_-?|sigma_)0*(\d+)", re.ASCII)  # the digits without leading zeros


# A family member depends only on its name, so resolutions are memoized.
@functools.lru_cache(maxsize=64)
def _resolve_family(name: str) -> Optional[BuiltinImpl]:
    family = _FAMILY.fullmatch(name)
    if family:
        prefix, digits = family.groups()
        # more than two digits exceed the cap (and int() refuses 4300 of them)
        k = int(digits) if len(digits) <= 2 else _MAX_EXPONENT + 1
        if k > _MAX_EXPONENT:
            raise ParseError(f"exponent of {name!r} out of range: |k| must be <= {_MAX_EXPONENT}")
        if prefix == "sigma_":
            # sigma_k = one * id_k; for k = 0 both factors are zeta(s), so sigma_0 = tau
            return _zeta_product({0: 2} if k == 0 else {0: 1, k: 1})
        return _power(-k if prefix == "id_-" else k)
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


_INT64_MAX = 2**63 - 1


def _one_dtype(bound: Callable[..., int], *xs: np.ndarray) -> tuple:
    """The operands xs of one operation in its dtype: int64 when all are int64 and
    bound(max|x| for each x), which bounds every |result| since int64 wraps silently,
    is at most 2**63 - 1; else object.  An object operand keeps the result object."""
    size = lambda x: max(int(x.max()), -int(x.min()), 1)  # noqa: E731
    if all(x.dtype == np.int64 for x in xs) and bound(*map(size, xs)) <= _INT64_MAX:
        return xs
    return tuple(np.asarray(x, dtype=object) for x in xs)


def _convolve_padded(a: np.ndarray, b: np.ndarray, limit: int) -> np.ndarray:
    """Padded numerators of the Dirichlet convolution of padded numerators a and b.

    The pairs d * q = n <= N split at r = isqrt(N), as in the Dirichlet
    hyperbola method: every d <= r adds a[d] * b[1..N//d] into out[d::d], and
    every q <= N//(r + 1) adds b[q] * a[r+1..N//q] into the n = q*d with d > r.
    That is about 2 sqrt(N) numpy slice operations.  They run in int64 when
    both sides are int64 and max|a| max|b| floor(2 sqrt(N)) fits:
    tau(n) <= 2 sqrt(n) bounds the number of terms of every partial sum, so
    nothing wraps.  Otherwise they run in object dtype on the Python values.
    """
    a, b = _one_dtype(lambda x, y: x * y * math.isqrt(4 * limit), a, b)
    out = np.zeros(limit + 1, dtype=a.dtype)
    r = math.isqrt(limit)
    for d in (np.flatnonzero(a[1 : r + 1]) + 1).tolist():
        out[d::d] += a[d] * b[1 : limit // d + 1]
    for q in (np.flatnonzero(b[1 : limit // (r + 1) + 1]) + 1).tolist():
        out[q * (r + 1) : q * (limit // q) + 1 : q] += b[q] * a[r + 1 : limit // q + 1]
    return out


def _times(num: np.ndarray, s: int, d: int) -> np.ndarray:
    """s * num[n] * n**d at every n, as a new array unless s = 1 and d = 0."""
    if s == 1 and d == 0:
        return num
    limit = len(num) - 1
    (x,) = _one_dtype(lambda m: m * abs(s) * limit**d, num)
    return x * (np.arange(limit + 1, dtype=x.dtype) ** d * s if d else s)


def _mul(x: TabulatedFunction, y: TabulatedFunction) -> TabulatedFunction:
    u, v = _one_dtype(operator.mul, x._vals, y._vals)
    return _scaled(x.limit, x._c * y._c, x._k + y._k, u * v)


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
    a, b = _one_dtype(operator.add, a, b)
    return _scaled(x.limit, c, k, a + b)


def _tab(expr: Expr, limit: int, sieve: SieveTable, cache: dict) -> TabulatedFunction:
    """The table of expr; builtin numerators are cached by name, read-only and shared."""
    if isinstance(expr, Builtin):
        impl = resolve_builtin(expr.name)
        key = (normalize_builtin_name(expr.name), limit)
        num = cache.get(key)
        if num is None:
            num = impl.tabulate(limit, sieve)
            if num.dtype not in (np.int64, object):  # a float or narrower dtype is not exact
                raise TypeError(f"tabulating {key[0]} gave {num.dtype} numerators, not int64 or object")
            num.setflags(write=False)
            cache[key] = num
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
    return _tab(expr, limit, sieve, cache if cache is not None else {})


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

    It runs on the numerators u, since (c u/n**k)^-1 = (1/c) u^-1/n**k by
    compmult-distr, as Newton's iteration b <- b - b * (u * b - eps): b exact
    on [1, m] makes the new b exact on [1, (m + 1)**2 - 1].  Int numerators
    run as B = L b, L = u(1)**N.bit_length(): every iterate's denominator at n
    divides u(1)**(Omega(n) + 1) and Omega(n) < N.bit_length(), so each // L
    is exact.  Other numerators take L = u(1) and true division.
    """
    u, limit = a._vals, a.limit
    u1 = u.item(1)
    if u1 == 0 or a._c == 0:
        raise ValueError("not invertible: value at 1 is 0")
    ints = u.dtype == np.int64 or all(type(v) is int for v in u.tolist())
    L = u1 ** limit.bit_length() if ints else Fraction(u1)
    div = operator.floordiv if ints else operator.truediv
    B, m = exact_array([div(L, u1)]), 1
    while m < limit:
        m = min(limit, (m + 1) ** 2 - 1)
        B = np.concatenate((B, np.zeros(m + 1 - len(B), B.dtype)))
        E = _convolve_padded(u[: m + 1], B, m)
        E[1] -= L  # E[1] = u(1) B[1] = L, so this is 0 in any dtype
        B, D = _one_dtype(operator.add, B, div(_convolve_padded(B, E, m), L))
        B = B - D
    return _scaled(limit, 1 / (a._c * L), a._k, B)


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
    differs = np.flatnonzero(u != v)  # index 0 holds 0 on both sides
    n = int(differs[0]) if differs.size else None
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
    # with values p/q, |p| <= 3 and q <= 4, held as ints over 12, drawn in one call
    # (numpy.random would cost about 6 MB of memory to load).
    draws = random.Random(seed).choices([p * (12 // q) for p in range(-3, 4) for q in range(1, 5)], k=2 * limit)
    uv = np.zeros((2, limit + 1), np.int64)
    uv[:, 1:] = np.reshape(draws, (2, limit))
    u, v = (_scaled(limit, Fraction(1, 12), 0, w) for w in uv)
    h = _scaled(limit, _ONE, 0, np.arange(limit + 1, dtype=np.int64))
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
