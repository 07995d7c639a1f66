import csv
import dataclasses
import io
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithfn import (
    Add,
    Builtin,
    Conv,
    LAdditiveFunction,
    Mul,
    Scale,
    SieveTable,
    TabulatedFunction,
    build_sieve,
    check_series_identity,
    convolve_at,
    custom,
    dirichlet_convolve,
    dirichlet_inverse,
    evaluate_at,
    first_mismatch,
    fraction_to_str,
    ld,
    list_identity_presets,
    parse_expression,
    tabulate,
    tabulate_l_additive,
    verify_all,
    verify_identity,
)
from arithfn import convolution
from arithfn.ladditive import as_exact, eval_natural, h_eval, leibniz_numerators
from arithfn.convolution import VerificationReport
from arithfn.errors import ParseError, UnknownNameError

from oracles import (
    harmonic_inverse,
    leibniz_delta,
    naive_convolve_at,
    naive_mobius,
    naive_phi,
    naive_sigma_k,
    naive_tau,
)


# One name per builtin class and family.
BUILTIN_NAMES = (
    "one", "eps", "id_-2", "id_0", "id_3", "mu", "tau", "phi", "sigma_0", "sigma_3",
    "delta", "ld", "big_omega", "delta_p:3",
    "mangoldt:delta", "mangoldt:ld", "mangoldt:big_omega", "mangoldt:delta_p:5",
)

# Every lhs and rhs expression text of the identity catalog.
CATALOG_SIDES = sorted(
    {text for _, cases in convolution._IDENTITIES.values() if not callable(cases) for pair in cases for text in pair}
)


def tab(text, limit, **kw):
    return tabulate(parse_expression(text), limit, **kw)


def int_numerators(t):
    """Whether every numerator of t is an int: an int64 array, or Python ints in object dtype."""
    num = t._vals
    return num.dtype == np.int64 or (num.dtype == object and all(type(v) is int for v in num.tolist()))


def random_tabulation(rng, limit):
    return TabulatedFunction.from_values(
        [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(limit)]
    )


ROUND_TRIP_SIEVE = build_sieve(60)


def expression_trees(depth):
    """Random trees of at most depth levels over a few builtins, with every node type and
    Scale coefficients that include zero and negative ones."""
    leaves = st.sampled_from(["one", "id_1", "mu", "tau", "delta", "ld"]).map(Builtin)
    if depth == 0:
        return leaves
    sub = expression_trees(depth - 1)
    return st.one_of(
        leaves,
        st.builds(Scale, st.fractions(-3, 3, max_denominator=4), sub),
        sub.map(lambda x: Scale(-1, x)),
        *(st.builds(node, sub, sub) for node in (Add, Mul, Conv)),
    )


class TestParser:
    def test_pointwise_binds_tighter_than_conv(self):
        e = parse_expression("id . mu * delta")
        assert e == Conv(Mul(Builtin("id_1"), Builtin("mu")), Builtin("delta"))

    def test_scalars_fold_into_scale(self):
        e = parse_expression("1/2 . tau . delta")
        assert e == Scale(Fraction(1, 2), Mul(Builtin("tau"), Builtin("delta")))

    def test_nested_scalars_multiply(self):
        e = parse_expression("2 . 3 . tau")
        assert e == Scale(Fraction(6), Builtin("tau"))

    def test_sum_and_difference(self):
        e = parse_expression("sigma . delta - id_2 * delta")
        assert e == Add(
            Mul(Builtin("sigma_1"), Builtin("delta")),
            Scale(-1, Conv(Builtin("id_2"), Builtin("delta"))),
        )

    def test_unary_minus(self):
        e = parse_expression("-(id * (mu . delta))")
        assert e == Scale(-1, Conv(Builtin("id_1"), Mul(Builtin("mu"), Builtin("delta"))))
        assert parse_expression("-mu") == Scale(-1, Builtin("mu"))

    def test_negative_id_subscript(self):
        assert parse_expression("id_-1") == Builtin("id_-1")

    def test_colon_names(self):
        assert parse_expression("delta_p:5") == Builtin("delta_p:5")
        assert parse_expression("mangoldt:ld") == Builtin("mangoldt:ld")
        assert parse_expression("mangoldt:delta_p:5") == Builtin("mangoldt:delta_p:5")

    def test_scalar_cannot_convolve(self):
        with pytest.raises(ParseError):
            parse_expression("1 * id")

    def test_bare_scalar_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("3/4")

    def test_scalar_plus_function_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("id_2 - 3")

    def test_family_exponents_are_capped(self):
        for name in ("id_64", "id_-64", "sigma_64"):
            assert parse_expression(name) == Builtin(name)
        for name in ("id_65", "id_-65", "sigma_65", "sigma_99999999", "id_" + "9" * 5000, "sigma_" + "9" * 5000):
            with pytest.raises(ParseError, match=name):
                parse_expression(f"{name} * one")
        for name in ("id_0002", "id_" + "0" * 5000, "sigma_" + "0" * 4999 + "64"):
            assert parse_expression(name) == Builtin(name)

    def test_outer_whitespace_is_ignored(self):
        for text in ("one ", " one  ", "\tone\n"):
            assert parse_expression(text) == Builtin("one")
        assert parse_expression("id * mu\t") == parse_expression("id * mu")

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            parse_expression("zeta_of_s")

    def test_scale_rejects_floats(self):
        with pytest.raises(TypeError):
            Scale(0.5, Builtin("tau"))
        assert Scale(2, Builtin("tau")).coeff == Fraction(2)

    def test_malformed(self):
        for bad in [
            "", "id *", "(id", "id )", "1/", "id ^ 2", "mangoldt:", "1/0 . one", "0/0 . one", "9" * 5000 + " . one",
            "\u00b2 . one", "\u0661 . one", "one\u00a0+ one",
        ]:
            with pytest.raises(ParseError):
                parse_expression(bad)

    def test_token_cap(self):
        cap = convolution._MAX_TOKENS
        assert cap % 2 == 0
        chain = " + ".join(["one"] * (cap // 2))  # cap - 1 tokens
        assert evaluate_at(parse_expression("-" + chain), 6) == cap // 2 - 2
        with pytest.raises(ParseError):
            parse_expression("(" + chain + ")")

    def test_render_round_trip(self):
        texts = [
            "id * delta",
            "1/2 . tau . delta",
            "(delta . id_-1) . (id * (mu . id)) - id * (delta . (mu . id) . id_-1)",
            "-(one * (mu . ld))",
            "ld . (one * id) + one * (ld . id)",
            "sigma_3 * id_2",
        ]
        for text in texts:
            e = parse_expression(text)
            assert parse_expression(str(e)) == e

    def test_negative_scale_renders_as_unary_minus(self):
        e = Conv(Builtin("id_1"), Scale(Fraction(-2), Builtin("tau")))
        assert str(e) == "id * (-(2 . tau))"
        assert str(Add(Builtin("one"), Scale(Fraction(-1, 2), Builtin("mu")))) == "one - 1/2 . mu"
        assert tabulate(parse_expression(str(e)), 60) == tabulate(e, 60)

    @settings(max_examples=300, deadline=None)
    @given(expression_trees(3), st.integers(1, 60))
    def test_rendered_trees_parse_back(self, e, n):
        text = str(e)
        parsed = parse_expression(text)
        assert str(parsed) == text
        table = tabulate(e, 60, ROUND_TRIP_SIEVE)
        assert tabulate(parsed, 60, ROUND_TRIP_SIEVE) == table
        assert evaluate_at(e, n) == table[n]


class TestTabulate:
    def test_eps(self):
        assert tab("eps", 3).values() == [1, 0, 0]

    def test_tau(self):
        assert tab("tau", 6).values() == [naive_tau(n) for n in range(1, 7)]
        assert tab("tau", 6).values() == [1, 2, 2, 3, 2, 4]

    def test_pointwise_tau_delta(self):
        assert tab("tau . delta", 4).values() == [0, 2, 2, 12]

    def test_builtins_against_oracles(self):
        # The window reaches 2**10 and 3**6.  The tabulator and the point
        # evaluator of a multiplicative builtin share the prime-power values
        # derived from its Euler exponents; these oracles do not.
        limit = 2**10
        sieve = build_sieve(limit)
        cache = {}
        oracles = {
            "mu": naive_mobius,
            "tau": naive_tau,
            "phi": naive_phi,
            "sigma": lambda n: naive_sigma_k(n, 1),
            "sigma_0": lambda n: naive_sigma_k(n, 0),
            "sigma_2": lambda n: naive_sigma_k(n, 2),
            "sigma_3": lambda n: naive_sigma_k(n, 3),
            "delta": leibniz_delta,
        }
        for name, oracle in oracles.items():
            values = tab(name, limit, sieve=sieve, cache=cache).values()
            assert values == [oracle(n) for n in range(1, limit + 1)], name

    def test_id_variants(self):
        assert tab("id_0", 4).values() == [1, 1, 1, 1]
        assert tab("id", 4).values() == [1, 2, 3, 4]
        assert tab("id_2", 4).values() == [1, 4, 9, 16]
        assert tab("id_-1", 4).values() == [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]

    def test_ld_equals_delta_over_id(self):
        assert tab("ld", 2000) == tab("delta . id_-1", 2000)

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            tab("tau", 0)

    def test_sieve_must_cover_limit(self):
        short = build_sieve(50)
        for name in ["tau", "delta", "ld", "one", "mangoldt:ld", "id . mu"]:
            with pytest.raises(ValueError, match="sieve does not cover"):
                tabulate(parse_expression(name), 100, short)
        with pytest.raises(ValueError, match="sieve does not cover"):
            verify_identity("eq13", 100, sieve=short)
        assert tabulate(parse_expression("tau"), 50, short) == tab("tau", 50)

    def test_unknown_builtin_at_tabulation(self):
        with pytest.raises(UnknownNameError):
            tabulate(Builtin("nope"), 10)

    def test_cache_is_shared_and_not_aliased(self):
        cache = {}
        t1 = tab("tau", 50, cache=cache)
        assert ("tau", 50) in cache
        t2 = tab("tau", 50, cache=cache)
        assert t1 == t2
        cached = cache[("tau", 50)].tolist()
        t3 = tab("tau . tau", 50, cache=cache)
        assert cache[("tau", 50)].tolist() == cached  # intermediate use left the cache intact
        for text in ("tau", "-(-tau)", "2 . (1/2 . tau)"):
            with pytest.raises(ValueError, match="read-only"):
                tab(text, 50, cache=cache)._vals[7] = -1
        assert cache[("tau", 50)].tolist() == cached  # no returned table can write into the cache
        assert t3.values() == [v * v for v in t1.values()]


class TestSieveClasses:
    """Every sieve class tabulates from its prime-power values through one recurrence, in
    int64 exactly when the float64 shadow of that recurrence stays below 2**62."""

    def test_series_builtins_stay_int64(self):
        for name, k, limit in (("sigma_2", 2, 2 * 10**5), ("sigma_3", 3, 10**6)):
            t = tab(name, limit)
            assert t._vals.dtype == np.int64, name
            assert t[limit] == naive_sigma_k(limit, k), name

    @pytest.mark.parametrize(
        "name, limit",
        # max sigma_3 on [1, N] first reaches 2**53 at N = 196080, and sigma_3(197136 = 444**2)
        # is odd and above it, so no float64 holds it; sigma_2 stays far below
        [("sigma_3", 196079), ("sigma_3", 196080), ("sigma_3", 197136), ("sigma_2", 10**5)],
    )
    def test_multiplicative_tables_around_2_53(self, name, limit):
        # a nonnegative table below 2**53 is its float64 shadow; at or above it, the int64 run
        t = tab(name, limit)
        assert t._vals.dtype == np.int64
        big = np.flatnonzero(t._vals >= 2**53 - 2**10)
        sample = random.Random(limit).sample(range(1, limit + 1), 200)
        for n in [*big.tolist(), *sample, limit]:
            assert t[n] == evaluate_at(Builtin(name), n), (name, limit, n)

    def test_leibniz_tables_read_prime_values_as_data(self, monkeypatch):
        # no per-prime Python call: tabulation never reaches the scalar lookup at_prime
        def refuse(self, p):
            raise AssertionError(f"at_prime({p}) called by tabulation")

        limit = 10**4
        sieve = build_sieve(limit)
        names = ("delta", "ld", "big_omega", "delta_p:3", "mangoldt:delta", "mangoldt:ld", "mangoldt:big_omega")
        monkeypatch.setattr(LAdditiveFunction, "at_prime", refuse)
        tables = {name: tab(name, limit, sieve=sieve) for name in names}
        monkeypatch.undo()
        for name, t in tables.items():
            assert int_numerators(t), name
            for n in (1, 2, 9, 27, 360, 7919, 9973, limit):
                assert t[n] == evaluate_at(Builtin(name), n), (name, n)

    def test_leibniz_tables_need_no_split(self):
        # Leibniz-additive tables recur over spf alone; only multiplicative ones build the split
        class NoSplitSieve(SieveTable):
            @property
            def split(self):
                raise AssertionError("split built for a Leibniz-additive table")

        limit = 10**4
        full = build_sieve(limit)
        sieve = NoSplitSieve(full.limit, full.spf, full.primes)
        for name in ("delta", "ld"):
            assert tab(name, limit, sieve=sieve).values() == tab(name, limit, sieve=full).values(), name
        assert tabulate_l_additive(ld(), limit, sieve).values() == tab("ld", limit, sieve=full).values()
        report = check_series_identity("thm3.3", 3.5, limit, limit, 1e-3, sieve=sieve)
        assert report.to_dict() == check_series_identity("thm3.3", 3.5, limit, limit, 1e-3, sieve=full).to_dict()
        with pytest.raises(AssertionError, match="split built"):
            tab("tau", limit, sieve=sieve)

    def test_large_values_go_object(self):
        t = tab("sigma_64", 300)
        assert t._vals.dtype == object
        assert t.values() == [naive_sigma_k(n, 64) for n in range(1, 301)]
        fn = custom("big_h", {}, {3: 2**40}, f_default=1)  # h(3**2) = 2**80
        num = leibniz_numerators(fn, 300, build_sieve(300))
        assert num.dtype == object
        assert num[1:].tolist() == [eval_natural(fn, n) for n in range(1, 301)]

    @pytest.mark.parametrize(
        "e, dtype", [({62: 1, 10: -1}, np.int64), ({62: 1, 10: 1}, object)]
    )
    def test_multiplicative_edge(self, e, dtype):
        # f(2) = 2**62 - 2**10 just below the bound, or 2**62 + 2**10 just above it
        num = convolution._zeta_product(e).tabulate(2, build_sieve(2))
        assert num.dtype == dtype
        assert num.tolist() == [0, 1, sum(ej * 2**j for j, ej in e.items())]

    @pytest.mark.parametrize(
        "f_map, h_map, dtype",
        [
            # the sum f(6) = f(2) + f(3) with h = 1: 2**62 - 2**10, or 2**62
            ({2: 2**61 - 2**9, 3: 2**61 - 2**9}, {}, np.int64),
            ({2: 2**61 - 2**9, 3: 2**61 + 2**9}, {}, object),
            # the companion h(6) = h(2) h(3): 2**62 - 2**9, or 2**62
            ({2: 1}, {2: 2, 3: 2**61 - 2**8}, np.int64),
            ({2: 1}, {2: 2, 3: 2**61}, object),
        ],
    )
    def test_leibniz_edge(self, f_map, h_map, dtype):
        fn = custom("edge", f_map, h_map)
        num = leibniz_numerators(fn, 6, build_sieve(6))
        assert num.dtype == dtype
        assert num.tolist() == [0] + [eval_natural(fn, n) for n in range(1, 7)]

    @pytest.mark.parametrize(
        "fn, limit",
        [
            # f = c Omega with h = 1: max |f| = f(1024) = 10 c, ten steps deep, just below and
            # above 2**62 and 2**63
            *((custom("f", f_default=c), 1024) for c in (
                (2**62 - 2**40) // 10, 2**62 // 10 + 2**30, (2**63 - 2**40) // 10, 2**63 // 10 + 2**30
            )),
            # f(2) = h(2) = 1, else f = 0 and h = c: max |h| = h(9) = c**2 while max |f| = f(6) = c
            *((custom("h", {2: 1}, {2: 1}, h_default=c), 9) for c in (2**31 - 1, 2**31 + 1, 3037000499, 3037000500)),
            # around 2**53, where float64 stops holding every int: f(768) = 8 c + 1 is odd
            *((custom("f", {3: 1}, f_default=c), 1024) for c in (2**49 + 1, 2**50 + 1)),
            # a negative prime value, which the shadow on absolute values does not hold
            (custom("f", {3: -1}, f_default=5), 1024),
        ],
    )
    def test_leibniz_bound_at_depth(self, fn, limit):
        # int64 exactly when max |f(n)| and max |h(n)| on [1, limit] are both below 2**62
        f = [eval_natural(fn, n) for n in range(1, limit + 1)]
        h = [h_eval(fn, n) for n in range(1, limit + 1)]
        num = leibniz_numerators(fn, limit, build_sieve(limit))
        assert num.dtype == (np.int64 if max(map(abs, f + h)) < 2**62 else object)
        assert num.tolist() == [0] + f

    @pytest.mark.parametrize("limit", [30029, 30030, 510510])
    def test_primorial_edges(self, limit):
        # 30030 and 510510 are the first n with 6 and 7 distinct prime factors
        sieve = build_sieve(limit)
        for name in ("tau", "phi", "delta", "big_omega"):
            assert tab(name, limit, sieve=sieve)[limit] == evaluate_at(Builtin(name), limit), name

    def test_cache_rejects_inexact_numerators(self, monkeypatch):
        tau = convolution._CATALOG["tau"]
        floats = dataclasses.replace(tau, tabulate=lambda limit, sieve: tau.tabulate(limit, sieve).astype(float))
        monkeypatch.setitem(convolution._CATALOG, "tau", floats)
        cache = {}
        with pytest.raises(TypeError, match="float64 numerators"):
            tab("tau . delta", 50, cache=cache)
        assert ("tau", 50) not in cache


def euler_product(e, limit):
    """prod_j zeta(s - j)**e[j] on [1, limit] as Dirichlet powers of id_j, by the kernel
    and dirichlet_inverse: independent of the sieve tabulators."""
    t = TabulatedFunction.from_values([1] + [0] * (limit - 1))
    for j, ej in e.items():
        id_j = TabulatedFunction.from_values([n**j for n in range(1, limit + 1)])
        factor = id_j if ej > 0 else dirichlet_inverse(id_j)
        for _ in range(abs(ej)):
            t = dirichlet_convolve(t, factor)
    return t


ZETA_SIEVE = build_sieve(2**10)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.integers(0, 4), st.integers(-3, 3), max_size=5))
def test_zeta_products_match_their_euler_product(e):
    limit = 2**10
    impl = convolution._zeta_product(e)
    values = impl.tabulate(limit, ZETA_SIEVE)[1:].tolist()
    assert values == euler_product(e, limit).values()
    # impl.at is what evaluate_at gives for a builtin of this class
    assert values == [impl.at(n) for n in range(1, limit + 1)]


class TestDirichletConvolve:
    def test_one_one_is_tau(self):
        c = dirichlet_convolve(tab("one", 12), tab("one", 12))
        assert c[12] == 6 == naive_tau(12)
        assert c == tab("tau", 12)

    def test_eps_is_identity(self):
        rng = random.Random(5)
        f = random_tabulation(rng, 64)
        assert dirichlet_convolve(tab("eps", 64), f) == f
        assert dirichlet_convolve(f, tab("eps", 64)) == f

    def test_id_delta_at_6(self):
        c = dirichlet_convolve(tab("id", 6), tab("delta", 6))
        assert c[6] == 10
        assert c[6] == sum(d * leibniz_delta(6 // d) for d in [1, 2, 3, 6])

    def test_limit_mismatch(self):
        with pytest.raises(ValueError):
            dirichlet_convolve(tab("one", 5), tab("one", 6))

    def test_commutative_and_associative(self):
        rng = random.Random(42)
        for limit in (100, 500):
            a = random_tabulation(rng, limit)
            b = random_tabulation(rng, limit)
            c = random_tabulation(rng, limit)
            ab = dirichlet_convolve(a, b)
            assert ab == dirichlet_convolve(b, a)
            assert dirichlet_convolve(ab, c) == dirichlet_convolve(a, dirichlet_convolve(b, c))

    def test_matches_naive_divisor_sum(self):
        a = tab("mu", 200)
        b = tab("sigma", 200)
        c = dirichlet_convolve(a, b)
        for n in range(1, 201):
            assert c[n] == naive_convolve_at(naive_mobius, lambda m: naive_sigma_k(m, 1), n)


# Window sizes of the kernel tests: the smallest, one square and r * (r + 1),
# where the two halves of the split at r = isqrt(N) meet exactly.
KERNEL_LIMITS = (1, 2, 3, 16, 10 * 11, 31 * 32)
INT64_MAX = 2**63 - 1


def kernel_dtype(u, v):
    """The dtype the kernel runs in for the value lists u and v."""
    a, b = (TabulatedFunction.from_values(x)._vals for x in (u, v))
    return convolution._convolve_padded(a, b, len(u)).dtype


def assert_convolves(u, v):
    """dirichlet_convolve of the value lists u, v against divisor enumeration."""
    limit = len(u)
    c = dirichlet_convolve(TabulatedFunction.from_values(u), TabulatedFunction.from_values(v))
    for n in range(1, limit + 1):
        assert c[n] == naive_convolve_at(lambda d: u[d - 1], lambda q: v[q - 1], n), n
    if all(type(x) is int for x in u + v):
        assert all(type(x) is int for x in c.values())
    return c


class TestKernel:
    """The numpy kernel in int64 under its bound and in object dtype otherwise."""

    @pytest.mark.parametrize("limit", KERNEL_LIMITS)
    def test_small_ints_run_in_int64(self, limit):
        rng = random.Random(limit)
        u = [rng.randint(-9, 9) for _ in range(limit)]
        v = [rng.randint(-9, 9) for _ in range(limit)]
        assert kernel_dtype(u, v) == np.int64
        assert_convolves(u, v)

    @pytest.mark.parametrize("limit", KERNEL_LIMITS)
    def test_guard_edge(self, limit):
        # max|a| max|b| floor(2 sqrt(N)) <= 2**63 - 1 runs in int64; one more in object dtype.
        rng = random.Random(limit + 1)
        top = INT64_MAX // (7 * math.isqrt(4 * limit))
        for size, dtype in ((top, np.int64), (top + 1, object)):
            u = [rng.choice((size, -size, rng.randint(-size, size))) for _ in range(limit)]
            u[rng.randrange(limit)] = -size  # so max|u| is size exactly
            v = [rng.randint(-7, 7) for _ in range(limit - 1)] + [7]
            assert kernel_dtype(u, v) == dtype
            assert_convolves(u, v)

    def test_sums_beyond_int64_stay_exact(self):
        rng = random.Random(3)
        for limit in KERNEL_LIMITS:
            u = [rng.randint(-(2**70), 2**70) for _ in range(limit)]
            v = [rng.randint(2**62, 2**63) for _ in range(limit)]
            assert kernel_dtype(u, v) == object
            c = assert_convolves(u, v)
            if limit > 1:
                assert max(abs(x) for x in c.values()) > 2**63

    @pytest.mark.parametrize("limit", KERNEL_LIMITS)
    def test_fraction_numerators_are_never_cast_to_int(self, limit):
        # Cast to int64, 3/2 would become 1 and every sum below would be wrong.
        rng = random.Random(limit + 2)
        u = [rng.choice((Fraction(3, 2), Fraction(-5, 7), 2, 0)) for _ in range(limit)]
        v = [rng.randint(-3, 3) for _ in range(limit)]
        assert kernel_dtype(u, v) == kernel_dtype(v, u) == object
        assert_convolves(u, v)
        assert_convolves(v, u)
        assert_convolves(u, u)

    @pytest.mark.parametrize("limit", KERNEL_LIMITS)
    def test_zero_and_single_nonzero_tables(self, limit):
        rng = random.Random(limit + 3)
        zero = [0] * limit
        ones = [1] * limit
        for i in {0, limit // 2, limit - 1}:
            single = [0] * limit
            single[i] = rng.choice((5, -(2**64), Fraction(2, 3)))
            assert_convolves(single, ones)
            assert_convolves(ones, single)
            assert_convolves(single, single)
        # an all-zero side with ints beyond int64 on the other: every sum is 0
        c = assert_convolves(zero, [2**70] * limit)
        assert c.values() == [0] * limit
        assert_convolves(zero, zero)


def int_table(values, k=0):
    """The table values[n - 1] / n**k with int numerators."""
    t = TabulatedFunction.from_values(values)
    t._k = k
    return t


class TestOperationGuards:
    """Pointwise product, sum and the n**d alignment in int64 under their bounds and
    in object dtype just above them, exact either way."""

    @pytest.mark.parametrize("limit", (1, 2, 17))
    def test_pointwise_product(self, limit):
        # max|x| max|y| <= 2**63 - 1; the two maxima meet at one n, so int64 would wrap above it.
        rng = random.Random(limit)
        top = INT64_MAX // 7
        for size, dtype in ((top, np.int64), (top + 1, object)):
            u = [rng.randint(-size, size) for _ in range(limit)]
            v = [rng.randint(-7, 7) for _ in range(limit)]
            u[-1], v[-1] = -size, 7
            t = convolution._mul(int_table(u), int_table(v))
            assert t._vals.dtype == dtype
            assert t.values() == [a * b for a, b in zip(u, v)]

    @pytest.mark.parametrize("limit", (1, 2, 17))
    def test_sum(self, limit):
        # max|x| + max|y| <= 2**63 - 1; the two maxima meet at one n, so int64 would wrap above it.
        rng = random.Random(limit + 1)
        for size, dtype in ((INT64_MAX - 7, np.int64), (INT64_MAX - 6, object)):
            u = [rng.randint(-size, size) for _ in range(limit)]
            v = [rng.randint(-7, 7) for _ in range(limit)]
            u[-1], v[-1] = size, 7
            t = convolution._add(int_table(u), int_table(v))
            assert t._vals.dtype == dtype
            assert t.values() == [a + b for a, b in zip(u, v)]

    @pytest.mark.parametrize("limit", (1, 2, 17))
    def test_alignment(self, limit):
        # x = u/n**0 aligned to y = v/n**2 is u n**2, and 3 u against 2 v/3 scales u by s = 9:
        # max|u| 9 limit**2 <= 2**63 - 1.
        rng = random.Random(limit + 2)
        top = INT64_MAX // (9 * limit**2)
        for size, dtype in ((top, np.int64), (top + 1, object)):
            u = [rng.randint(-size, size) for _ in range(limit)]
            v = [rng.randint(-3, 3) for _ in range(limit)]
            u[-1] = size
            x, y = int_table(u), int_table(v, k=2)
            x._c, y._c = Fraction(3), Fraction(1, 3)
            c, k, a, b = convolution._aligned(x, y)
            assert (c, k, a.dtype) == (Fraction(1, 3), 2, dtype)
            assert a[1:].tolist() == [9 * w * n**2 for n, w in enumerate(u, 1)]
            assert b[1:].tolist() == v
            assert convolution._add(x, y).values() == [
                3 * w + Fraction(z, 3 * n**2) for n, (w, z) in enumerate(zip(u, v), 1)
            ]

    def test_object_operands_stay_object(self):
        small = int_table([1, 2, 3])
        big = convolution._mul(int_table([INT64_MAX] * 3), int_table([2] * 3))
        assert big._vals.dtype == object
        for t in (convolution._mul(big, small), convolution._add(small, big), dirichlet_convolve(small, big)):
            assert t._vals.dtype == object
            assert int_numerators(t)


@st.composite
def tables_near_a_guard(draw):
    """(op, u, v): int value lists whose maxima put op within 2 of its int64 bound."""
    op = draw(st.sampled_from(("*", ".", "+", "+k")))
    limit = draw(st.integers(1, 30))
    a = draw(st.integers(1, 2**40))
    bound = {
        "*": INT64_MAX // (a * math.isqrt(4 * limit)),
        ".": INT64_MAX // a,
        "+": INT64_MAX - a,
        "+k": INT64_MAX // limit**2,  # the alignment of u to v/n**2 multiplies u by n**2
    }[op]
    b = max(1, bound + draw(st.integers(-2, 2)))
    if op == "+k":
        a, b = b, draw(st.integers(1, 100))

    def values(size):
        vals = draw(st.lists(st.integers(-size, size), min_size=limit, max_size=limit))
        vals[draw(st.integers(0, limit - 1))] = draw(st.sampled_from((size, -size)))
        return vals

    return op, values(a), values(b)


@settings(max_examples=80, deadline=None)
@given(tables_near_a_guard())
def test_operations_near_the_int64_guards_are_exact(case):
    op, u, v = case
    x = int_table(u)
    if op == "*":
        c = dirichlet_convolve(x, int_table(v))
        want = [naive_convolve_at(lambda d: u[d - 1], lambda q: v[q - 1], n) for n in range(1, len(u) + 1)]
    elif op == ".":
        c = convolution._mul(x, int_table(v))
        want = [a * b for a, b in zip(u, v)]
    elif op == "+":
        c = convolution._add(x, int_table(v))
        want = [a + b for a, b in zip(u, v)]
    else:
        c = convolution._add(x, int_table(v, k=2))
        want = [a + Fraction(b, n**2) for n, (a, b) in enumerate(zip(u, v), 1)]
    assert c.values() == want
    assert int_numerators(c)


class TestConvolveAt:
    def test_tau_via_ones(self):
        assert convolve_at(parse_expression("one"), parse_expression("one"), 8) == 4

    def test_eps_eps_at_1(self):
        assert convolve_at(parse_expression("eps"), parse_expression("eps"), 1) == 1

    def test_id_delta_at_4(self):
        assert convolve_at(parse_expression("id"), parse_expression("delta"), 4) == 6
        assert Fraction(1, 2) * naive_tau(4) * leibniz_delta(4) == 6

    def test_agrees_with_bulk_convolution(self):
        pairs = [("id", "delta"), ("mu . id", "sigma"), ("1/2 . tau", "ld")]
        for ta, tb in pairs:
            ea, eb = parse_expression(ta), parse_expression(tb)
            bulk = dirichlet_convolve(tab(ta, 400), tab(tb, 400))
            for n in range(1, 401):
                assert convolve_at(ea, eb, n) == bulk[n]

    def test_evaluate_at_matches_tabulate(self):
        texts = ["tau . delta", "one * phi", "sigma - id", "-(mu . id_2)", "2/3 . big_omega"]
        for text in texts:
            e = parse_expression(text)
            t = tabulate(e, 60)
            for n in range(1, 61):
                assert evaluate_at(e, n) == t[n]
        # Every builtin, on a window that reaches 2**10 and 3**6.
        limit = 2**10
        sieve = build_sieve(limit)
        for name in BUILTIN_NAMES:
            e = parse_expression(name)
            t = tabulate(e, limit, sieve)
            for n in range(1, limit + 1):
                assert evaluate_at(e, n) == t[n], (name, n)


    def test_shared_convolution_node(self):
        # one Conv object under two parents, and as both operands of a third
        c = Conv(Builtin("ld"), Builtin("mu"))
        for e in (Add(Conv(c, Builtin("tau")), Mul(c, Builtin("id_1"))), Conv(c, c)):
            t = tabulate(e, 60)
            for n in range(1, 61):
                assert evaluate_at(e, n) == t[n], (e, n)

    def test_long_chain_sums_each_node_once(self):
        # sixteen ones convolve to d_16, with d_16(p**a) = C(a + 15, 15)
        chain = parse_expression(" * ".join(["one"] * 16))
        t0 = time.perf_counter()
        value = evaluate_at(chain, 5040)
        assert time.perf_counter() - t0 < 0.5
        assert value == math.prod(math.comb(a + 15, 15) for a in (4, 2, 1, 1))  # 5040 = 2**4 3**2 5 7


class TestScaledTables:
    """Tables are tabulated as c * num[n] / n**k with int numerators num."""

    @pytest.mark.parametrize(
        "text",
        CATALOG_SIDES
        + [
            # Add of two rational scalars with a common factor, Mul of two
            # k = 1 tables, and k = 2 and k = 3 aligned under * and +.
            "1/3 . ld - 1/6 . (delta . id_-1)",
            "ld . mangoldt:ld",
            "3/4 . ld - (ld . id_-2) * (2/3 . mangoldt:delta)",
        ],
    )
    def test_catalog_side_matches_evaluate_at(self, text):
        # evaluate_at enumerates divisors over Fractions and never uses the
        # harmonic loop or the scaled algebra.
        limit = 240
        e = parse_expression(text)
        sieve = build_sieve(limit)
        assert int_numerators(convolution._tab(e, limit, sieve, {}))
        t = tabulate(e, limit, sieve)
        for n in range(1, limit + 1):
            assert evaluate_at(e, n) == t[n], n

    def test_builtin_numerators_are_int(self):
        limit = 300
        sieve = build_sieve(limit)
        for name in BUILTIN_NAMES:
            assert int_numerators(convolution._tab(parse_expression(name), limit, sieve, {})), name

    def test_fraction_corruption_is_reported_exactly(self, monkeypatch):
        ld = convolution.resolve_builtin("ld")

        def corrupted_tab(limit, sieve):
            vals = ld.tabulate(limit, sieve).astype(object)  # int64 would truncate the 1/7
            if limit >= 360:
                vals[360] += Fraction(1, 7) * 360**ld.k  # the value at 360 is off by 1/7
            return vals

        monkeypatch.setitem(convolution._CATALOG, "ld", dataclasses.replace(ld, tabulate=corrupted_tab))
        r = verify_identity("eq19", 500)
        assert not r.holds
        assert r.mismatch_n == 360
        assert r.case == "ld * (one) = ld . (one * (one)) - one * (ld . (one))"
        assert (r.lhs, r.rhs) == (Fraction(999, 35), Fraction(1109, 35))


class TestOneRepresentation:
    """Public tables carry c * num[n] / n**k, and every operation runs on num."""

    def test_fraction_tables_convolve_in_ints(self):
        c = dirichlet_convolve(tab("ld", 300), tab("tau", 300))
        assert int_numerators(c)
        assert c == tab("ld * tau", 300)

    def test_convolve_matches_convolve_at(self):
        limit = 240
        c = dirichlet_convolve(tab("id_-1", limit), tab("ld", limit))
        for n in range(1, limit + 1):
            assert c[n] == convolve_at(Builtin("id_-1"), Builtin("ld"), n), n

    def test_inverse_carries_c_and_k(self):
        assert dirichlet_inverse(tab("id_-1", 200)) == tab("mu . id_-1", 200)
        assert dirichlet_inverse(tab("1/2 . one", 200)) == tab("2 . mu", 200)
        with pytest.raises(ValueError):
            dirichlet_inverse(tab("0 . one", 10))

    def test_json_copy_of_scaled_table(self):
        t = tab("ld", 200)
        copy = TabulatedFunction.from_json(t.to_json())
        assert copy == t and t == copy
        tau = tab("tau", 200)
        assert dirichlet_convolve(copy, tau) == dirichlet_convolve(t, tau)
        vals = t.values()
        vals[59] += Fraction(1, 7)
        corrupted = TabulatedFunction.from_values(vals)
        hit = first_mismatch(t, corrupted)
        assert hit == first_mismatch(copy, corrupted) == (60, Fraction(23, 15), Fraction(176, 105))


# N on both sides of the bounds 1, 3, 15, 255 of the iteration's exact range.
INVERSE_LIMITS = (1, 2, 3, 4, 15, 16, 255, 256, 257, 1000)


def inverse_inputs(limit):
    """Seeded int tables with a(1) in {1, -1, 2, -3, 10**6}, a Fraction table
    with a(1) = 3/2, and tables with c != 1 or k > 0."""
    rng = random.Random(limit)
    tables = [
        TabulatedFunction.from_values([a1] + [rng.randint(-3, 3) for _ in range(limit - 1)])
        for a1 in (1, -1, 2, -3, 10**6)
    ]
    fractions = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(limit - 1)]
    tables.append(TabulatedFunction.from_values([Fraction(3, 2)] + fractions))
    return tables + [tab(text, limit) for text in ("id_-1", "1/2 . one", "ld + one", "one + one")]


class TestDirichletInverse:
    def test_inverse_of_one_is_mu(self):
        inv = dirichlet_inverse(tab("one", 300))
        assert inv == tab("mu", 300)
        assert inv[6] == 1 == naive_mobius(6)

    def test_eps_self_inverse(self):
        assert dirichlet_inverse(tab("eps", 20)) == tab("eps", 20)

    def test_inverse_of_id_mu_is_id(self):
        inv = dirichlet_inverse(tab("id . mu", 100))
        assert inv[5] == 5
        assert inv == tab("id", 100)

    def test_round_trip(self):
        rng = random.Random(7)
        vals = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(200)]
        vals[0] = Fraction(3, 2)  # ensure invertibility
        a = TabulatedFunction.from_values(vals)
        assert dirichlet_convolve(a, dirichlet_inverse(a)) == tab("eps", 200)

    @pytest.mark.parametrize("limit", INVERSE_LIMITS)
    def test_matches_the_harmonic_loop(self, limit):
        for a in inverse_inputs(limit):
            inv = dirichlet_inverse(a)
            want = harmonic_inverse(a.values())
            assert inv.values() == want
            assert inv.to_json() == TabulatedFunction.from_values(want).to_json()
            if int_numerators(a):
                assert int_numerators(inv)

    def test_a_round_beyond_the_int64_guard(self, monkeypatch):
        dtypes = []
        kernel = convolution._convolve_padded

        def spy(a, b, limit):
            out = kernel(a, b, limit)
            dtypes.append(out.dtype)
            return out

        monkeypatch.setattr(convolution, "_convolve_padded", spy)
        rng = random.Random(11)
        a = TabulatedFunction.from_values([1] + [rng.randint(-(2**20), 2**20) for _ in range(999)])
        inv = dirichlet_inverse(a)
        assert dtypes[0] == np.int64 and dtypes[-1] == object
        assert int_numerators(inv)
        assert inv.values() == harmonic_inverse(a.values())

    def test_int_table_stays_int(self):
        for text in ("one", "-(mu . id)", "-tau", "one + eps"):
            a = tab(text, 500)
            inv = dirichlet_inverse(a)
            assert int_numerators(inv), text
            if a[1] in (1, -1):
                assert all(type(v) is int for v in inv.values()), text
            assert dirichlet_convolve(a, inv) == tab("eps", 500)
            assert inv.to_json() == TabulatedFunction.from_values(map(Fraction, inv.values())).to_json()

    def test_not_invertible(self):
        with pytest.raises(ValueError):
            dirichlet_inverse(tab("delta", 10))  # delta(1) = 0


class TestMobiusFacts:
    def test_on_1e4(self):
        limit = 10**4
        sieve = build_sieve(limit)
        cache = {}
        assert tab("one * mu", limit, sieve=sieve, cache=cache) == tab(
            "eps", limit, sieve=sieve, cache=cache
        )
        assert tab("(id . mu) * id", limit, sieve=sieve, cache=cache) == tab(
            "eps", limit, sieve=sieve, cache=cache
        )
        assert tab("one * phi", limit, sieve=sieve, cache=cache) == tab(
            "id", limit, sieve=sieve, cache=cache
        )


class TestVerifier:
    def test_eq13_holds(self):
        r = verify_identity("eq13", 2000)
        assert r.holds and r.mismatch_n is None and r.lhs is None and r.rhs is None

    def test_constructed_failure_reports_smallest_n(self):
        lhs = tab("id * delta", 4)
        rhs = tab("1/3 . tau . delta", 4)
        hit = first_mismatch(lhs, rhs)
        assert hit == (2, Fraction(1), Fraction(2, 3))

    def test_unknown_identity(self):
        with pytest.raises(UnknownNameError):
            verify_identity("eq99", 10)

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            verify_identity("eq13", 0)

    def test_all_presets_hold_at_1000(self):
        reports = verify_all(1000)
        assert len(reports) == len(list_identity_presets())
        assert all(r.holds for r in reports)

    def test_compmult_distr_seeds(self):
        for seed in (0, 1, 99, -1):
            assert verify_identity("compmult-distr", 300, seed=seed).holds

    def test_catalog_contents(self):
        names = [name for name, _ in list_identity_presets()]
        assert names == [
            "thm2.2", "cor2.1", "cor2.2", "eq13", "eq14", "eq15", "eq16",
            "cor2.6", "cor2.7", "eq19", "eq20", "eq21", "compadd-distr",
            "compmult-distr", "thm3.1", "thm3.2", "eq23", "cor3.8", "cor3.9",
            "delta-from-lambda",
        ]

    def test_mismatch_report_names_the_case(self, monkeypatch):
        tau = convolution._CATALOG["tau"]

        def corrupted_tab(limit, sieve):
            vals = tau.tabulate(limit, sieve)
            if limit >= 100:
                vals[100] += 1
            return vals

        monkeypatch.setitem(convolution._CATALOG, "tau", dataclasses.replace(tau, tabulate=corrupted_tab))
        r = verify_identity("eq13", 1000)
        assert not r.holds
        assert r.mismatch_n == 100
        assert r.case == "id * delta = 1/2 . (tau . delta)"
        assert r.lhs == leibniz_delta(100) * 9 / 2 and r.rhs == leibniz_delta(100) * 10 / 2

    def test_report_json_round_trip(self):
        for r in (verify_identity("eq13", 50), _failing_report()):
            assert VerificationReport.from_json(r.to_json()) == r


def _failing_report():
    lhs = tab("id * delta", 4)
    rhs = tab("1/3 . tau . delta", 4)
    n, lv, rv = first_mismatch(lhs, rhs)
    return VerificationReport("fixture", 4, False, n, lv, rv, "id * delta = 1/3 . tau . delta", 0.001)


MALFORMED_VALUES = [
    "1/0", "x", "", "1.5", 5, None,
    # forms int() reads that the grammar -?[0-9]+(/[0-9]+)? refuses
    "+5/1", " 5/1", "5 ", "5_0/1", "\u0665/1", "1/-2", "1/+2", "1//2", "-", "--5", "1/", "/1",
    "1\n2", "5\x00",
    # rows past the automaton's width, read by int() alone
    "5" * 5000, "5" * 5000 + "/1", "1" * 40 + "/-2", "1" * 40 + "/" + "0" * 20, "1/" + "0" * 40,
]


class TestTabulatedFunctionIO:
    def test_csv(self):
        buf = io.StringIO()
        tab("ld", 4).to_csv(buf)
        assert buf.getvalue().splitlines() == [
            "n,value",
            "1,0/1",
            "2,1/2",
            "3,1/3",
            "4,1/1",
        ]

    def test_json_round_trip(self):
        t = tab("ld", 50)
        assert TabulatedFunction.from_json(t.to_json()) == t

    def test_json_copy_of_int_table_holds_ints(self):
        rng = random.Random(5)
        t = TabulatedFunction.from_values([rng.randint(-3, 3) for _ in range(300)])
        copy = TabulatedFunction.from_json(t.to_json())
        assert copy._vals.dtype == np.int64
        tau = tab("tau", 300)
        assert dirichlet_convolve(copy, tau).to_json() == dirichlet_convolve(t, tau).to_json()

    @pytest.mark.parametrize("bad", MALFORMED_VALUES)
    def test_malformed_json_value_names_n(self, bad):
        text = json.dumps({"limit": 3, "values": ["1/1", "2/3", bad]})
        with pytest.raises(ValueError, match="at n = 3"):
            TabulatedFunction.from_json(text)

    @pytest.mark.parametrize("bad", MALFORMED_VALUES)
    def test_malformed_first_json_value(self, bad):
        # the first value of a chunk has no rows before it to read
        with pytest.raises(ValueError, match="at n = 1:"):
            TabulatedFunction.from_json(json.dumps({"limit": 1, "values": [bad]}))

    @pytest.mark.parametrize(
        "values, n",
        [
            (["1/1", "2/3", "x", 5], 3),  # a malformed str before a non-str
            (["1/1", 5, "x"], 2),
            (["1/1", "\u0665", "1" * 30], 2),
            (["1" * 30, "1/" + "0" * 30, "x"], 2),  # a zero denominator of more than 18 digits
            (["1/1"] * (2**14 + 2) + ["1/0", "x"], 2**14 + 3),  # in the second chunk
            (["1/1"] * 2**14 + [None, "x"], 2**14 + 1),  # first in the second chunk, not a str
            (["1/1"] * 2**14 + ["1\n2"], 2**14 + 1),
        ],
    )
    def test_first_malformed_value_is_named(self, values, n):
        with pytest.raises(ValueError, match=f"at n = {n}:"):
            TabulatedFunction.from_json(json.dumps({"limit": len(values), "values": values}))

    @pytest.mark.parametrize(
        "text, value",
        [
            ("5", 5), ("-0/1", 0), ("007/1", 7), ("4/2", 2), ("-6/4", Fraction(-3, 2)), ("0/7", 0),
            ("-9223372036854775808", -(2**63)), ("9223372036854775807/1", 2**63 - 1),
            ("18446744073709551616/18446744073709551616", 1), ("3" * 40, int("3" * 40)),
            ("-1/" + "0" * 30 + "2", Fraction(-1, 2)), ("3/1" + "0" * 20, Fraction(3, 10**20)),
        ],
    )
    def test_json_values_in_the_grammar(self, text, value):
        t = TabulatedFunction.from_json(json.dumps({"limit": 2, "values": ["1/1", text]}))
        assert t[2] == value and type(t[2]) is type(value)
        assert t._vals.dtype == (np.int64 if type(value) is int and -(2**63) <= value < 2**63 else object)

    @pytest.mark.parametrize(
        "doc",
        [
            {"values": ["1/1"]},
            [1],
            {"limit": 1, "values": "1/1"},
            {"limit": 0, "values": []},
            {"limit": True, "values": ["1/1"]},
            {"limit": "1", "values": ["1/1"]},
        ],
    )
    def test_malformed_json_document(self, doc):
        with pytest.raises(ValueError, match="malformed table: expected an object with int"):
            TabulatedFunction.from_json(json.dumps(doc))

    @pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(3.0), "4", None, 1j])
    def test_inexact_values_are_rejected_naming_n(self, bad):
        with pytest.raises(TypeError, match="at n = 3 "):
            TabulatedFunction.from_values([1, Fraction(1, 2), bad, 4])
        with pytest.raises(TypeError, match="at n = 2 "):
            TabulatedFunction(3, [0, 1, bad, 3])

    def test_constructors_copy_the_given_values(self):
        padded = [0, 1, 2, 3]
        values = [1, Fraction(1, 2), 2**70]
        t, u = TabulatedFunction(3, padded), TabulatedFunction.from_values(values)
        padded[1] = values[0] = 99
        assert t.values() == [1, 2, 3] and u.values() == [1, Fraction(1, 2), 2**70]

    def test_strings_are_the_values_in_lowest_terms(self):
        # int, scaled, Fraction and wide-int tables; c = 1 and k = 0 take the no-gcd path
        rng = random.Random(11)
        tables = [tab(text, 60) for text in ("tau", "-2 . tau", "3/2 . ld", "1/3 . (ld * tau)", "id_-2 . delta")]
        tables += [
            random_tabulation(rng, 60),
            TabulatedFunction.from_values([2**70, -3, Fraction(1, 2), 0, Fraction(4, 2)]),
        ]
        for t in tables:
            strs = [fraction_to_str(Fraction(v)) for v in t.values()]
            assert t.to_json() == json.dumps({"limit": t.limit, "values": strs})
            buf = io.StringIO()
            t.to_csv(buf)
            assert buf.getvalue() == "n,value\r\n" + "".join(f"{n},{v}\r\n" for n, v in enumerate(strs, 1))
        assert tab("-2 . tau", 3).to_json() == '{"limit": 3, "values": ["-2/1", "-4/1", "-4/1"]}'
        assert tab("3/2 . ld", 4).to_json() == '{"limit": 4, "values": ["0/1", "3/4", "1/2", "3/2"]}'

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["int64", "wide", "fraction", "3/2 . ld", "id_-2 . delta", "1/3 . (ld * tau)", "-2 . tau"]),
        st.integers(1, 3000),
        st.integers(0, 2**32),
    )
    def test_text_round_trip(self, kind, limit, seed):
        # to_json and to_csv write the json and csv modules' text of fraction_to_str, and
        # from_json reads it back to the table with exact_array's dtype and value types
        rng = random.Random(seed)
        extremes = [-(2**63), 2**63 - 1, 10**18, -(10**18), 10**18 - 1, 1 - 10**18, 0]
        draw = {
            "int64": lambda: rng.choice(extremes) if rng.random() < 0.2 else rng.randint(-(10 ** rng.randint(0, 18)), 10**18),
            "wide": lambda: rng.randint(-(2**70), 2**70) if rng.random() < 0.3 else rng.randint(-9, 9),
            "fraction": lambda: Fraction(rng.randint(-(10 ** rng.randint(0, 25)), 10**25), rng.randint(1, 10 ** rng.randint(1, 25))),
        }.get(kind)
        t = TabulatedFunction.from_values([draw() for _ in range(limit)]) if draw else tab(kind, limit)
        strs = [fraction_to_str(v) for v in t.values()]
        assert t.to_json() == json.dumps({"limit": limit, "values": strs})
        buf, want = io.StringIO(), io.StringIO()
        t.to_csv(buf)
        w = csv.writer(want)
        w.writerow(["n", "value"])
        w.writerows(enumerate(strs, 1))
        assert buf.getvalue() == want.getvalue()
        copy = TabulatedFunction.from_json(t.to_json())
        same = TabulatedFunction.from_values([as_exact(v) for v in t.values()])
        assert copy == t
        assert copy._vals.dtype == same._vals.dtype
        assert [type(v) for v in copy.values()] == [type(v) for v in same.values()]

    def test_fraction_to_str(self):
        assert [fraction_to_str(v) for v in (0, -3, Fraction(6, 4), Fraction(-1, 3))] == [
            "0/1", "-3/1", "3/2", "-1/3",
        ]
        with pytest.raises(TypeError):
            fraction_to_str(0.5)

    def test_getitem_bounds(self):
        t = tab("one", 5)
        with pytest.raises(IndexError):
            t[0]
        with pytest.raises(IndexError):
            t[6]
