import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithfn import (
    LAdditiveFunction,
    big_omega,
    build_sieve,
    custom,
    delta,
    delta_partial,
    eval_inverse,
    eval_natural,
    eval_rational,
    eval_signed,
    factorize,
    factorize_rational,
    h_eval,
    l_additive_by_token,
    ld,
    quotient_ratio,
    tabulate_l_additive,
)
from arithfn.errors import UnknownNameError

from oracles import delta_closed_form, leibniz_delta, leibniz_ld


def sample_functions():
    return [
        delta(),
        delta_partial(2),
        delta_partial(5),
        ld(),
        big_omega(),
        custom("mix", {2: Fraction(1, 3), 7: 4}, {3: Fraction(5, 2)}, f_default=1, h_default="identity"),
    ]


class TestEvalNatural:
    def test_value_at_one_is_zero(self):
        for fn in sample_functions():
            assert eval_natural(fn, 1) == 0

    def test_delta_60(self):
        assert leibniz_delta(60) == 92
        assert eval_natural(delta(), 60) == 92

    def test_ld_8(self):
        assert leibniz_ld(8) == Fraction(3, 2)
        assert eval_natural(ld(), 8) == Fraction(3, 2)

    def test_delta_against_leibniz_recursion(self):
        fn = delta()
        sieve = build_sieve(500)
        for n in range(1, 501):
            assert eval_natural(fn, n, sieve) == leibniz_delta(n)

    def test_delta_matches_closed_form_to_1e4(self):
        fn = delta()
        sieve = build_sieve(10**4)
        for n in range(1, 10**4 + 1):
            assert eval_natural(fn, n, sieve) == delta_closed_form(n)

    def test_partial_derivative(self):
        fn = delta_partial(2)
        # only the exponent of 2 contributes: n * a_2 / 2
        assert eval_natural(fn, 12) == 12
        assert eval_natural(fn, 9) == 0
        assert eval_natural(fn, 40) == 60

    def test_big_omega(self):
        fn = big_omega()
        assert eval_natural(fn, 12) == 3
        assert eval_natural(fn, 97) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            eval_natural(delta(), 0)


class TestHEval:
    def test_delta_h_is_identity(self):
        assert h_eval(delta(), 12) == 12

    def test_h_at_one(self):
        for fn in sample_functions():
            assert h_eval(fn, 1) == 1

    def test_ld_h_is_one(self):
        assert h_eval(ld(), 12) == 1

    def test_completely_multiplicative(self):
        for fn in sample_functions():
            for m in range(1, 40):
                for n in range(1, 40):
                    assert h_eval(fn, m * n) == h_eval(fn, m) * h_eval(fn, n)


class TestExactResults:
    def test_public_evaluators_return_fractions(self):
        for fn in sample_functions():
            for n in (1, 2, 12, 60, 97):
                values = [
                    eval_natural(fn, n),
                    h_eval(fn, n),
                    eval_inverse(fn, n),
                    quotient_ratio(fn, n),
                    eval_rational(fn, n, 35),
                    eval_rational(fn, 35, n),
                    eval_signed(fn, factorize_rational(n, 35)),
                ]
                for v in values:
                    assert type(v) is Fraction, (fn.name, n, v)


class TestEvalInverse:
    def test_delta_quarter(self):
        assert eval_inverse(delta(), 4) == Fraction(-1, 4)

    def test_one_maps_to_zero(self):
        for fn in sample_functions():
            assert eval_inverse(fn, 1) == 0

    def test_ld_6(self):
        assert leibniz_ld(6) == Fraction(5, 6)
        assert eval_inverse(ld(), 6) == Fraction(-5, 6)


class TestEvalRational:
    def test_delta_examples(self):
        assert eval_rational(delta(), 1, 2) == Fraction(-1, 4)
        assert eval_rational(delta(), 3, 2) == Fraction(-1, 4)

    def test_ld_subtracts(self):
        assert eval_rational(ld(), 3, 2) == leibniz_ld(3) - leibniz_ld(2)
        assert eval_rational(ld(), 3, 2) == Fraction(-1, 6)

    def test_consistent_with_natural(self):
        for fn in sample_functions():
            for n in range(1, 60):
                assert eval_rational(fn, n, 1) == eval_natural(fn, n)

    def test_well_defined_under_scaling(self):
        rng = random.Random(4321)
        fns = sample_functions()
        for _ in range(500):
            a = rng.randint(1, 200)
            b = rng.randint(1, 200)
            c = rng.randint(1, 200)
            fn = fns[rng.randrange(len(fns))]
            assert eval_rational(fn, a * c, b * c) == eval_rational(fn, a, b)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            eval_rational(delta(), 0, 2)
        with pytest.raises(ValueError):
            eval_rational(delta(), 2, 0)


class TestQuotientRatio:
    def test_examples(self):
        assert quotient_ratio(delta(), 8) == Fraction(3, 2)
        assert quotient_ratio(delta(), 6) == Fraction(5, 6)
        for fn in sample_functions():
            assert quotient_ratio(fn, 1) == 0

    def test_completely_additive(self):
        sieve = build_sieve(300 * 300)
        for fn in sample_functions():
            for m in range(1, 301):
                qm = quotient_ratio(fn, m, sieve)
                for n in range(m, 301):
                    assert quotient_ratio(fn, m * n, sieve) == qm + quotient_ratio(fn, n, sieve)


class TestLeibnizRule:
    def test_exact_up_to_300(self):
        sieve = build_sieve(300 * 300)
        for fn in sample_functions():
            f = [None] + [eval_natural(fn, i, sieve) for i in range(1, 301)]
            h = [None] + [h_eval(fn, i, sieve) for i in range(1, 301)]
            for m in range(1, 301):
                for n in range(m, 301):
                    assert eval_natural(fn, m * n, sieve) == f[m] * h[n] + f[n] * h[m]

    def test_on_rationals(self):
        rng = random.Random(777)
        fns = sample_functions()
        for _ in range(200):
            fn = fns[rng.randrange(len(fns))]
            a, b = rng.randint(1, 80), rng.randint(1, 80)
            c, d = rng.randint(1, 80), rng.randint(1, 80)
            # x = a/b, y = c/d; h extends multiplicatively: h(p/q) = h(p)/h(q)
            h_x = h_eval(fn, a) / h_eval(fn, b)
            h_y = h_eval(fn, c) / h_eval(fn, d)
            lhs = eval_rational(fn, a * c, b * d)
            rhs = eval_rational(fn, a, b) * h_y + eval_rational(fn, c, d) * h_x
            assert lhs == rhs


class TestSignedFormula:
    def test_agrees_with_quotient_formula(self):
        rng = random.Random(2718)
        fns = sample_functions()
        for _ in range(300):
            fn = fns[rng.randrange(len(fns))]
            a = rng.randint(1, 400)
            b = rng.randint(1, 400)
            assert eval_signed(fn, factorize_rational(a, b)) == eval_rational(fn, a, b)

    def test_inverse_lemma_via_signed(self):
        fn = delta()
        for n in range(1, 200):
            assert eval_signed(fn, factorize_rational(1, n)) == eval_inverse(fn, n)


class TestBulkTabulation:
    def test_matches_pointwise_eval(self):
        limit = 3000
        sieve = build_sieve(limit)
        for fn in [delta(), ld(), big_omega(), delta_partial(3)]:
            vals = tabulate_l_additive(fn, limit, sieve)
            for n in range(1, limit + 1, 7):
                assert vals[n] == eval_natural(fn, n, sieve)

    def test_requires_covering_sieve(self):
        with pytest.raises(ValueError):
            tabulate_l_additive(delta(), 100, build_sieve(50))


PRIME_VALUES = st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=6))
PRIMES = (2, 3, 5, 7, 11, 13, 31)
LEIBNIZ_SIEVE = build_sieve(2**10)


@st.composite
def custom_functions(draw):
    """Custom functions with negative and Fraction prime values and every kind of default."""
    nonzero = PRIME_VALUES.filter(bool)
    rule = st.sampled_from(("identity", "reciprocal"))
    return custom(
        "drawn",
        draw(st.dictionaries(st.sampled_from(PRIMES), PRIME_VALUES, max_size=4)),
        draw(st.dictionaries(st.sampled_from(PRIMES), nonzero, max_size=4)),
        f_default=draw(st.one_of(PRIME_VALUES, rule)),
        h_default=draw(st.one_of(nonzero, rule)),
    )


@settings(max_examples=40, deadline=None)
@given(custom_functions())
def test_bulk_tabulation_matches_eval_natural(fn):
    limit = 2**10
    vals = tabulate_l_additive(fn, limit, LEIBNIZ_SIEVE)
    assert vals == [0] + [eval_natural(fn, n, LEIBNIZ_SIEVE) for n in range(1, limit + 1)]


class TestCustomFunctions:
    def test_defaults(self):
        fn = custom("c", {3: 5}, {3: 7}, f_default=Fraction(1, 2), h_default="reciprocal")
        assert fn.at_prime(3) == (5, 7)
        assert fn.at_prime(11) == (Fraction(1, 2), Fraction(1, 11))

    def test_integral_prime_values_are_ints(self):
        fn = custom("c", {3: Fraction(10, 2)}, {3: 7}, f_default=2, h_default="identity")
        for p in (3, 11):
            assert all(type(v) is int for v in fn.at_prime(p))
        assert type(ld().at_prime(5)[0]) is Fraction

    def test_rejects_float_values(self):
        # a float would reach the exact layer as its binary expansion
        with pytest.raises(TypeError):
            custom("x", {2: 0.1})
        with pytest.raises(TypeError):
            custom("x", {}, {3: 2.0})
        raw = LAdditiveFunction("raw", lambda p: 0.1, lambda p: 1)
        with pytest.raises(TypeError):
            raw.at_prime(2)
        with pytest.raises(TypeError):
            eval_natural(raw, 12)
        with pytest.raises(TypeError):
            eval_natural(LAdditiveFunction("raw", lambda p: 1, lambda p: 0.5), 12)

    def test_rejects_zero_h(self):
        with pytest.raises(ValueError):
            custom("bad", {}, {5: 0})
        with pytest.raises(ValueError):
            custom("bad", {}, {}, h_default=0)

    def test_rejects_composite_keys(self):
        with pytest.raises(ValueError):
            custom("bad", {4: 1}, {})

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            custom("bad", {}, {}, f_default="cubic")

    def test_h_zero_surfaces_at_use(self):
        fn = LAdditiveFunction("raw", lambda p: Fraction(1), lambda p: Fraction(0))
        with pytest.raises(ValueError):
            eval_natural(fn, 6)

    def test_delta_partial_requires_prime(self):
        with pytest.raises(ValueError):
            delta_partial(6)


class TestTokenLookup:
    def test_known(self):
        assert l_additive_by_token("delta").name == "delta"
        assert l_additive_by_token("ld").name == "ld"
        assert l_additive_by_token("big_omega").name == "big_omega"
        assert l_additive_by_token("delta_p:7").name == "delta_p:7"

    def test_unknown(self):
        with pytest.raises(UnknownNameError):
            l_additive_by_token("zeta")
        for token in ("delta_p:x", "delta_p:\u0663", "delta_p:\u00b2"):
            with pytest.raises(UnknownNameError):
                l_additive_by_token(token)

    def test_non_prime_subscript(self):
        with pytest.raises(ValueError):
            l_additive_by_token("delta_p:9")
