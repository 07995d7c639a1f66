import dataclasses
import io
import random
from fractions import Fraction

import pytest

from arithfn import (
    Add,
    Builtin,
    Conv,
    Mul,
    Neg,
    Scale,
    TabulatedFunction,
    build_sieve,
    convolve_at,
    dirichlet_convolve,
    dirichlet_inverse,
    evaluate_at,
    first_mismatch,
    fraction_to_str,
    list_identity_presets,
    parse_expression,
    tabulate,
    verify_all,
    verify_identity,
)
from arithfn import convolution
from arithfn.convolution import VerificationReport
from arithfn.errors import ParseError, UnknownNameError

from oracles import (
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


def random_tabulation(rng, limit):
    return TabulatedFunction.from_values(
        [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(limit)]
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
            Neg(Conv(Builtin("id_2"), Builtin("delta"))),
        )

    def test_unary_minus(self):
        e = parse_expression("-(id * (mu . delta))")
        assert e == Neg(Conv(Builtin("id_1"), Mul(Builtin("mu"), Builtin("delta"))))

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
        for name in ("id_65", "id_-65", "sigma_65", "sigma_99999999"):
            with pytest.raises(ParseError, match=name):
                parse_expression(f"{name} * one")

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            parse_expression("zeta_of_s")

    def test_scale_rejects_floats(self):
        with pytest.raises(TypeError):
            Scale(0.5, Builtin("tau"))
        assert Scale(2, Builtin("tau")).coeff == Fraction(2)

    def test_malformed(self):
        for bad in ["", "id *", "(id", "id )", "1/", "id ^ 2", "mangoldt:"]:
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
        # evaluator of a multiplicative builtin share g(p, a); these oracles do not.
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
        cached = list(cache[("tau", 50)])
        t3 = tab("tau . tau", 50, cache=cache)
        assert cache[("tau", 50)] == cached  # intermediate use left the cache intact
        for text in ("tau", "-(-tau)", "2 . (1/2 . tau)"):
            tab(text, 50, cache=cache)._vals[7] = -1
        assert cache[("tau", 50)] == cached  # no returned table aliases the cache
        assert t3.values() == [v * v for v in t1.values()]


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
        num = convolution._tab(e, limit, sieve, {})._vals
        assert all(type(v) is int for v in num)
        t = tabulate(e, limit, sieve)
        for n in range(1, limit + 1):
            assert evaluate_at(e, n) == t[n], n

    def test_builtin_numerators_are_int(self):
        limit = 300
        sieve = build_sieve(limit)
        for name in BUILTIN_NAMES:
            num = convolution._tab(parse_expression(name), limit, sieve, {})._vals
            assert all(type(v) is int for v in num), name

    def test_fraction_corruption_is_reported_exactly(self, monkeypatch):
        ld = convolution.resolve_builtin("ld")

        def corrupted_tab(limit, sieve):
            vals = ld.tabulate(limit, sieve)
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
        assert all(type(v) is int for v in c._vals)
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

    def test_int_table_stays_int(self):
        for text in ("one", "-(mu . id)", "-tau"):
            a = tab(text, 500)
            inv = dirichlet_inverse(a)
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
        for seed in (0, 1, 99):
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
