import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithfn import (
    Factorization,
    PrimePower,
    SignedFactorization,
    build_sieve,
    divisors,
    factorize,
    factorize_rational,
    is_prime,
    primes_up_to,
)

from oracles import naive_divisors, naive_factor, naive_is_prime, naive_primes_up_to, smallest_factor


class TestBuildSieve:
    def test_examples(self):
        table = build_sieve(10)
        assert table.spf[9] == 3
        assert table.spf[7] == 7

    def test_smallest_case(self):
        assert build_sieve(2).spf[2] == 2

    def test_spf_30(self):
        assert build_sieve(30).spf[30] == 2

    def test_limit_too_small(self):
        with pytest.raises(ValueError):
            build_sieve(1)

    def test_spf_fixed_point_iff_prime(self):
        table = build_sieve(1000)
        for n in range(2, 1001):
            assert (table.spf[n] == n) == naive_is_prime(n)

    def test_spf_divides(self):
        # spf[n] is the least prime factor, not just some prime factor; the
        # prime squares are the first n whose least prime is odd.
        for limit in [*range(2, 41), 9, 25, 49, 121, 169, 500]:
            table = build_sieve(limit)
            for n in range(2, limit + 1):
                assert n % table.spf[n] == 0
                assert table.spf[n] == naive_factor(n)[0][0], (limit, n)

    @pytest.mark.parametrize("limit", [2, 3, 4, 8, 9, 24, 25, 26, 2**16 - 1, 2**16 + 1, 10**5])
    def test_matches_trial_division(self, limit):
        table = build_sieve(limit)
        assert (table.spf.typecode, table.primes.typecode) == ("i", "i")
        assert table.primes.tolist() == naive_primes_up_to(limit) == primes_up_to(limit)
        assert table.spf[:2].tolist() == [0, 0]
        assert table.spf[2:].tolist() == [smallest_factor(n) for n in range(2, limit + 1)]

    def test_accessor_bounds(self):
        table = build_sieve(10)
        assert table.smallest_prime_factor(10) == 2
        with pytest.raises(ValueError):
            table.smallest_prime_factor(11)
        with pytest.raises(ValueError):
            table.smallest_prime_factor(1)


class TestFactorize:
    def test_unit_is_empty(self):
        assert factorize(1).factors == ()

    def test_twelve(self):
        assert [tuple(f) for f in factorize(12)] == [(2, 2), (3, 1)]
        assert isinstance(factorize(12), SignedFactorization)

    def test_prime(self):
        assert naive_is_prime(97)
        assert [tuple(f) for f in factorize(97)] == [(97, 1)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_against_naive_oracle(self):
        for n in range(1, 2001):
            assert [tuple(f) for f in factorize(n)] == naive_factor(n)

    def test_round_trip_to_1e5(self):
        sieve = build_sieve(10**5)
        for n in range(1, 10**5 + 1):
            value = factorize(n, sieve).value()
            assert value == n and type(value) is int

    def test_sieve_and_trial_division_agree(self):
        sieve = build_sieve(10**4)
        for n in range(1, 10**4 + 1):
            assert factorize(n, sieve) == factorize(n)

    def test_large_input_without_sieve(self):
        n = 2**3 * 10**9 + 7  # a few big cofactors
        assert factorize(n).value() == n

    def test_smooth_input_past_the_cap(self):
        assert [tuple(f) for f in factorize(2**200 * 3**5 * 997)] == [(2, 200), (3, 5), (997, 1)]

    def test_cofactor_past_psi13_is_refused_by_name(self):
        n = 7 * 10000000000039000000000000037
        with pytest.raises(ValueError, match=str(n)):
            factorize(n)


PSI12 = 318665857834031151167461  # strong pseudoprime to the prime bases 2..37
PSI13 = 3317044064679887385961981


def random_prime(sympy, rng, digits):
    return int(sympy.nextprime(rng.randrange(10 ** (digits - 1), 10**digits)))


class TestLargePrimality:
    def test_agrees_with_trial_division_to_1e4(self):
        assert [n for n in range(10**4 + 1) if is_prime(n)] == naive_primes_up_to(10**4)

    def test_agrees_with_sympy_below_psi13(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2015)
        ns = [rng.randrange(2, 10 ** rng.randint(6, 24)) for _ in range(2000)]
        ns += [sympy.nextprime(n) for n in ns[:200]]  # primes of every size
        ns += [p * p for p in ns[-200:] if p * p < PSI13]  # squares of primes
        for n in ns:
            assert is_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051, PSI12])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    # 997 is the last trial divisor below B = 1000, and 1000003 the least prime past B**2.
    @pytest.mark.parametrize(
        "factors", [[(997, 2)], [(991, 1), (997, 1)], [(997, 1), (1009, 1)], [(1000003, 1)]], ids=str
    )
    def test_at_the_trial_bound(self, factors):
        n = math.prod(p**a for p, a in factors)
        assert [tuple(f) for f in factorize(n)] == factors
        assert is_prime(n) == (factors == [(n, 1)])

    def test_is_prime_agrees_with_factorize_around_b_squared(self):
        for n in range(10**6 - 3000, 10**6 + 3001):
            assert is_prime(n) == (factorize(n).factors == ((n, 1),)) == naive_is_prime(n), n

    def test_psi12_passes_every_base_but_41(self):
        # it reaches the last base, so the test above exercises the full base set
        m, s = PSI12 - 1, 0
        while m % 2 == 0:
            m, s = m // 2, s + 1

        def strong(a):
            x = pow(a, m, PSI12)
            return x in (1, PSI12 - 1) or any(pow(x, 2**i, PSI12) == PSI12 - 1 for i in range(1, s))

        assert all(strong(a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
        assert not strong(41)

    def test_refuses_past_psi13(self):
        with pytest.raises(ValueError, match=str(PSI13)):
            is_prime(PSI13)
        assert not is_prime(PSI13 + 1)  # even numbers need no test

    @pytest.mark.parametrize("call", [factorize, is_prime, divisors], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("value", [12.5, 2.5, 12.0, "12", Fraction(12)], ids=repr)
    def test_non_int_rejected_by_name(self, call, value):
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            call(value)

    def test_non_int_rational_rejected(self):
        with pytest.raises(TypeError, match="2.5"):
            factorize_rational(2.5, 3)
        with pytest.raises(TypeError, match="3.0"):
            factorize_rational(2, 3.0)


class TestLargeFactorize:
    def test_agrees_with_sympy_on_products_of_large_primes(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1980)
        cases = 0
        while cases < 150:
            primes = [random_prime(sympy, rng, rng.randint(1, 12)) for _ in range(rng.randint(1, 4))]
            n = math.prod(primes)
            if n >= PSI13:
                continue
            cases += 1
            assert dict(factorize(n)) == sympy.factorint(n), primes

    @pytest.mark.parametrize("digits", [4, 6, 9, 12])
    def test_squares_and_cubes_of_primes_above_b(self, digits):
        sympy = pytest.importorskip("sympy")
        p = random_prime(sympy, random.Random(digits), digits)
        for k in (2, 3):
            if p**k < PSI13:
                assert [tuple(f) for f in factorize(p**k)] == [(p, k)]
                assert [tuple(f) for f in factorize(6 * p**k)] == [(2, 1), (3, 1), (p, k)]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=PSI13 - 1))
    def test_round_trip_below_psi13(self, n):
        fact = factorize(n)
        assert fact.value() == n
        primes = [p for p, _ in fact]
        assert primes == sorted(set(primes))
        assert all(is_prime(p) for p in primes)


class TestFactorizeRational:
    def test_three_halves(self):
        assert [tuple(f) for f in factorize_rational(3, 2)] == [(2, -1), (3, 1)]

    def test_one(self):
        assert factorize_rational(6, 6).factors == ()

    def test_eight_ninths(self):
        assert [tuple(f) for f in factorize_rational(8, 9)] == [(2, 3), (3, -2)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize_rational(0, 3)
        with pytest.raises(ValueError):
            factorize_rational(3, 0)

    def test_scaling_invariance(self):
        rng = random.Random(1234)
        for _ in range(300):
            a = rng.randint(1, 1000)
            b = rng.randint(1, 1000)
            c = rng.randint(1, 1000)
            assert factorize_rational(a * c, b * c) == factorize_rational(a, b)

    def test_value_reconstructs(self):
        from fractions import Fraction

        rng = random.Random(99)
        for _ in range(200):
            a = rng.randint(1, 500)
            b = rng.randint(1, 500)
            value = factorize_rational(a, b).value()
            assert value == Fraction(a, b) and type(value) is Fraction


class TestPrimesUpTo:
    def test_ten(self):
        assert primes_up_to(10) == [2, 3, 5, 7]

    def test_below_two(self):
        assert primes_up_to(1) == []
        assert primes_up_to(0) == []

    def test_thirty(self):
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_against_naive(self):
        assert primes_up_to(200) == naive_primes_up_to(200)

    def test_is_prime_matches(self):
        marks = set(primes_up_to(300))
        for n in range(300 + 1):
            assert is_prime(n) == (n in marks)


class TestDivisors:
    def test_against_naive(self):
        sieve = build_sieve(200)
        for n in range(1, 201):
            assert divisors(n, sieve) == naive_divisors(n)
            assert divisors(n) == naive_divisors(n)


class TestTypeInvariants:
    def test_factorization_rejects_unsorted(self):
        for cls in (Factorization, SignedFactorization):
            for factors in ((PrimePower(3, 1), PrimePower(2, 1)), (PrimePower(2, 1), PrimePower(2, 1))):
                with pytest.raises(ValueError, match="^primes must be distinct and strictly increasing$"):
                    cls(factors)

    def test_factorization_rejects_nonpositive_exponent(self):
        for e in (0, -1):
            with pytest.raises(ValueError, match="^exponents must be positive$"):
                Factorization((PrimePower(2, 1), PrimePower(3, e)))
        assert SignedFactorization((PrimePower(2, 1), PrimePower(3, -1))).value() == Fraction(2, 3)

    def test_signed_rejects_zero_exponent(self):
        for cls, rule in ((SignedFactorization, "nonzero"), (Factorization, "positive")):
            with pytest.raises(ValueError, match=f"^exponents must be {rule}$"):
                cls((PrimePower(2, 1), PrimePower(3, 0)))

    def test_signed_allows_negative(self):
        sf = SignedFactorization((PrimePower(2, -1), PrimePower(3, 1)))
        assert sf.value() == Fraction(3, 2)
