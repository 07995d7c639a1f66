import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithfn import (
    MangoldtOf,
    SeriesCheckReport,
    SeriesEstimate,
    TabulatedFunction,
    build_sieve,
    check_series_identity,
    dirichlet_convolve,
    dirichlet_partial_sum,
    ld,
    list_series_presets,
    mangoldt_tabulate,
    parse_expression,
    prime_F,
    primes_up_to,
    tabulate,
    zeta,
)
from arithfn.errors import OutOfDomainError, UnknownNameError
from arithfn.series import _exact_sum, _sum_terms

from oracles import fraction_sum_bracket, naive_primes_up_to

ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854  # Apery's constant
ZETA4 = math.pi**4 / 90


@pytest.fixture(scope="module")
def sieve_1e6():
    return build_sieve(10**6)


@pytest.fixture(scope="module")
def cache_1e6():
    return {}


class TestZeta:
    def test_closed_forms(self):
        assert abs(zeta(2, 1e-10).value - ZETA2) <= 1e-10
        assert abs(zeta(4, 1e-10).value - ZETA4) <= 1e-10

    def test_dominant_term_limit(self):
        assert abs(zeta(30, 1e-12).value - (1 + 2**-30)) <= 1e-12

    def test_tail_bound_is_honest(self):
        for s, ref in [(2, ZETA2), (3, ZETA3), (4, ZETA4)]:
            for target in (1e-6, 1e-9, 1e-11):
                est = zeta(s, target)
                assert est.tail_bound <= target
                assert abs(est.value - ref) <= est.tail_bound + 1e-15

    def test_complex_points_against_mpmath(self):
        for s, ref in [
            (2 + 1j, complex(1.15035570325490267, -0.43753086591960788)),
            (3 + 2j, complex(0.97304196041894245, -0.14769559300045379)),
        ]:
            est = zeta(s, 1e-10)
            assert abs(est.value - ref) <= est.tail_bound + 1e-12
            assert abs(est.value - complex(mpmath.zeta(s))) <= est.tail_bound + 1e-12

    def test_out_of_domain(self):
        # the pole, and the region where the remainder bound does not hold
        with pytest.raises(OutOfDomainError):
            zeta(1)
        with pytest.raises(OutOfDomainError):
            zeta(-30)
        # points below the old direct-sum region Re(s) >= 1.5
        with mpmath.workprec(200):
            for s in (1.2, 1.49 + 5j):
                est = zeta(s)
                err = abs(mpmath.mpc(est.value) - mpmath.zeta(mpmath.mpc(s)))
                assert err <= est.tail_bound + est.rounding_bound, (s, err)

    def test_unreachable_precision(self):
        est = zeta(1.5, 1e-13)
        assert est.tail_bound <= 1e-13
        assert abs(est.value - complex(mpmath.zeta(1.5))) <= 1e-13
        # N <= 2**16 cannot reach these targets: one needs a tiny remainder,
        # the other starts at N = |Im(s)|
        with pytest.raises(ValueError):
            zeta(2, 1e-300)
        with pytest.raises(ValueError):
            zeta(0.5 + 1e5j)

    def test_euler_maclaurin_against_mpmath(self):
        # real points, points below the old region Re(s) >= 1.5, one near the
        # first nontrivial zero, one with N = |Im(s)| > 16, and Re(s) < 0
        points = [2, 3, 4, 30, 1.01, 1.2, 1.5, 1.6 + 1j, 2 + 1j, 3 + 2j, 1.49 + 5j]
        points += [0.5 + 14.134725j, 3.5 + 40j, -1.5]
        with mpmath.workprec(200):
            for s in points:
                est = zeta(s)
                assert est.tail_bound <= 1e-10
                err = abs(mpmath.mpc(est.value) - mpmath.zeta(mpmath.mpc(s)))
                assert err <= est.tail_bound + est.rounding_bound, (s, err)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            zeta(2, 0.0)

    def test_huge_real_part(self):
        # The remainder bound is evaluated in log space: its head overflows
        # for |s| beyond about 2*10**12 while N**(-Re(s)-25) underflows.
        # Every power past n = 1 underflows to 0, and the rounding bound
        # charges each power for its own n, so it stays near u.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (2.5e12, 1e13, 1e200, 1e308, 1e13 + 1j, 1e200 + 1j, 1e308 + 1j):
                est = zeta(s)
                assert est.value == 1, s
                assert est.tail_bound == 0.0 and est.rounding_bound <= 1e-14, s

    def test_rounding_bound_charges_each_power_for_its_own_n(self):
        # Terms decaying like n**-50 leave the bound at a few ulps of 1;
        # a bound charging every term 5 |s| log N read 7.8e-14 at 50 + 1j.
        with mpmath.workprec(200):
            for s in (50 + 1j, 50 - 3j, 30 + 20j):
                est = zeta(s)
                assert est.rounding_bound <= 4e-15, s
                err = abs(mpmath.mpc(est.value) - mpmath.zeta(mpmath.mpc(s)))
                assert err <= est.tail_bound + est.rounding_bound, (s, err)

    def test_nonpositive_integers(self):
        # a zero factor s + m makes the remainder bound exactly 0
        with mpmath.workprec(200):
            for s in (0, -2, -3):
                est = zeta(s)
                assert est.tail_bound == 0.0
                err = abs(mpmath.mpc(est.value) - mpmath.zeta(s))
                assert err <= est.rounding_bound, (s, err)


class TestPrimeF:
    def test_frozen_value_at_1(self):
        est = prime_F(1, 10**6)
        assert abs(est.value - 0.7731566012740688) <= 1e-12

    def test_against_independent_prime_sum(self):
        # fsum over an independently generated prime list
        ps = naive_primes_up_to(3000)
        oracle = math.fsum(1.0 / (p * p - p) for p in ps)
        est = prime_F(1, 3000)
        assert abs(est.value - oracle) <= 1e-14

    def test_leading_terms_exact(self):
        partial4 = sum(Fraction(1, p**4 - p) for p in (2, 3, 5, 7))
        assert partial4 == Fraction(1, 14) + Fraction(1, 78) + Fraction(1, 620) + Fraction(1, 2394)
        est = prime_F(3, 10**5)
        assert est.value.real > float(partial4)
        assert abs(est.value - float(partial4)) < 2e-4

    def test_dominant_term_limit(self):
        est = prime_F(40, 100)
        assert abs(est.value - 1 / (2**41 - 2)) <= 1e-12

    def test_monotone_in_prime_limit_within_tail_bounds(self):
        ref = prime_F(1, 10**6).value.real
        last = 0.0
        for p_lim in (10**3, 10**4, 10**5):
            est = prime_F(1, p_lim)
            assert est.value.real > last
            assert abs(est.value.real - ref) <= est.tail_bound
            last = est.value.real

    def test_complex_point_against_direct_sum(self):
        s = 2 + 1j
        ps = naive_primes_up_to(2000)
        oracle = sum(1.0 / (complex(p) ** (s + 1) - p) for p in ps)
        est = prime_F(s, 2000)
        assert abs(est.value - oracle) <= 1e-13

    def test_overflowing_powers_count_as_zero(self):
        # p**(s+1) overflows for p >= 7 at Re(s) = 400 and for every p at 10**6;
        # those terms count as 0, without warnings, within rounding_bound.
        ps = naive_primes_up_to(100)
        with mpmath.workprec(200), warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (400 + 1j, 400, 1023.5, 1e6, 1e6 + 1j):
                est = prime_F(s, 100)
                exact = mpmath.fsum(1 / (mpmath.mpf(p) ** (mpmath.mpc(s) + 1) - p) for p in ps)
                assert abs(mpmath.mpc(est.value) - exact) <= est.rounding_bound, s

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            prime_F(0, 100)
        with pytest.raises(OutOfDomainError):
            prime_F(-1, 100)
        with pytest.raises(OutOfDomainError, match="phase"):  # Im(s) log p overflows
            prime_F(complex(2, 1.6363308087894492e308), 100)
        with pytest.raises(ValueError):
            prime_F(2, 1)


class TestPartialSum:
    def test_eps_is_one(self):
        t = tabulate(parse_expression("eps"), 10)
        for s in (2, 5.5, 3 + 2j):
            assert dirichlet_partial_sum(t, s).value == 1

    def test_lost_phase_is_out_of_domain(self):
        # Im(s) log n overflows for n >= 3: n**-s keeps a finite modulus but loses its phase
        t = tabulate(parse_expression("delta"), 10)
        with pytest.raises(OutOfDomainError, match="phase"):
            dirichlet_partial_sum(t, complex(2, 1.6363308087894492e308))

    def test_ones_approach_zeta(self):
        t = tabulate(parse_expression("one"), 10**4)
        est = dirichlet_partial_sum(t, 4)
        assert est.tail_bound == 0.0
        assert abs(est.value - zeta(4, 1e-12).value) <= 1e-10

    def test_lambda_ld_matches_prime_F(self):
        limit = 10**5
        t = mangoldt_tabulate(MangoldtOf(ld()), limit)
        lhs = dirichlet_partial_sum(t, 2).value
        rhs = prime_F(2, limit)
        assert abs(lhs - rhs.value) <= rhs.tail_bound + 1e-10

    def test_series_product_law_error_decreases(self):
        errors = []
        for limit in (10**3, 10**4, 10**5):
            one = tabulate(parse_expression("one"), limit)
            conv = dirichlet_convolve(one, one)
            lhs = dirichlet_partial_sum(conv, 4).value
            rhs = dirichlet_partial_sum(one, 4).value ** 2
            errors.append(abs(lhs - rhs))
        assert errors[0] > errors[1] > errors[2]

    def test_complex_s(self):
        t = tabulate(parse_expression("one"), 2000)
        s = 3 + 2j
        est = dirichlet_partial_sum(t, s)
        direct = sum(n ** -complex(s) for n in range(1, 2001))
        assert abs(est.value - direct) <= 1e-12


class TestCorrectRounding:
    """Sums are the exactly rounded sum of their terms, within the reported bounds."""

    def test_prime_F_is_exactly_rounded(self):
        exact = sum(Fraction(1, p**4 - p) for p in naive_primes_up_to(10**4))
        est = prime_F(3, 10**4)
        assert est.value == float(exact)
        assert abs(Fraction(est.value.real) - exact) <= Fraction(est.tail_bound) + Fraction(est.rounding_bound)

    def test_partial_sum_is_exactly_rounded(self):
        t = tabulate(parse_expression("delta"), 10**5)
        low, high = fraction_sum_bracket((v, n**4) for n, v in enumerate(t.values(), start=1))
        assert float(low) == float(high)  # so float(low) is the exactly rounded sum
        est = dirichlet_partial_sum(t, 4)
        assert est.value == float(low)
        bound = Fraction(est.tail_bound) + Fraction(est.rounding_bound)
        assert max(abs(Fraction(est.value.real) - low), abs(Fraction(est.value.real) - high)) <= bound

    def test_complex_partial_sum_within_rounding_bound(self):
        t = tabulate(parse_expression("mu . delta"), 2000)
        s = 3 + 2j
        with mpmath.workprec(200):
            exact = mpmath.fsum(v * mpmath.power(n, -mpmath.mpc(s)) for n, v in enumerate(t.values(), start=1))
            est = dirichlet_partial_sum(t, s)
            assert abs(mpmath.mpc(est.value) - exact) <= est.rounding_bound

    def test_coefficients_convert_as_float_does(self):
        # Large ints beyond 2**53 and Fractions round exactly as float() rounds them.
        values = [2**64 + 1, -(2**64 + 1), 2**53 + 1, 10**30 + 12345, Fraction(1, 3), Fraction(-7, 10**20), 5]
        t = TabulatedFunction.from_values(values)
        assert dirichlet_partial_sum(t, 0).value == math.fsum(float(v) for v in t.values())

    def test_scaled_coefficients_convert_as_float_does(self):
        # c num[n]/n**k is built from the numerators as one int division
        for text in ("1/3 . ld", "-2/7 . id_-3 . delta", "mangoldt:delta", "mu . delta"):
            t = tabulate(parse_expression(text), 3000)
            assert dirichlet_partial_sum(t, 0).value == math.fsum(float(v) for v in t.values()), text

    def test_coefficient_beyond_float_range_names_n(self):
        t = TabulatedFunction.from_values([1, 0, 10**400, Fraction(10**400, 3)])
        with pytest.raises(ValueError, match="n = 3 "):
            dirichlet_partial_sum(t, 2)

    def test_rounding_bound_validated(self):
        assert SeriesEstimate(1.0, 10, 0.0).rounding_bound == 0.0
        with pytest.raises(ValueError):
            SeriesEstimate(1.0, 10, 0.0, -1e-17)


def _same_float(a: float, b: float) -> bool:
    """a and b are the same float: equal with equal signs, or both nan."""
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


@st.composite
def term_arrays(draw):
    """float64 arrays of 0 to 5*10**4 terms, magnitudes from subnormals to about 10**308 (less
    the room the count needs, so that fsum's partial sums stay in range), signs mixed, and
    on request each term of a random part cancelled exactly by its negation."""
    n = draw(st.integers(0, 5 * 10**4))
    top = 308 - math.log10(2 * n + 2)
    low = draw(st.floats(-323.5, top))
    high = draw(st.floats(low, top))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(low, high, n)
    if draw(st.booleans()):
        x = np.concatenate((x, -rng.choice(x, draw(st.integers(0, n)), replace=False) if n else x))
        rng.shuffle(x)
    return x


class TestExactSum:
    """The binned exact sum of _sum_terms gives math.fsum's value, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(term_arrays(), term_arrays())
    def test_matches_fsum(self, x, y):
        assert _same_float(_exact_sum(x), math.fsum(x))
        z = np.zeros(max(len(x), len(y)), complex)
        z.real[: len(x)], z.imag[: len(y)] = x, y
        value = _sum_terms(z, 0.0)[0]
        assert _same_float(value.real, math.fsum(z.real)) and _same_float(value.imag, math.fsum(z.imag))

    @pytest.mark.parametrize("terms", [[], [0.0], [-0.0], [-0.0, -0.0, 0.0], [5e-324, -5e-324], [1.5, -1.5]])
    def test_zero_sum_is_positive_zero(self, terms):
        assert _same_float(_exact_sum(np.array(terms, float)), 0.0)

    @pytest.mark.parametrize(
        "terms",
        [[math.nan], [1.0, math.nan], [math.inf, 1e308], [-math.inf, -1.0], [math.inf, math.inf], [math.inf, math.nan],
         [math.inf, -math.inf], [math.nan, math.inf, 2.0, -math.inf]],
    )
    def test_nan_and_infinities_as_fsum(self, terms):
        try:
            expected = math.fsum(terms)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                _exact_sum(np.array(terms))
        else:
            assert _same_float(_exact_sum(np.array(terms)), expected)

    def test_exact_sum_past_float_range_overflows(self):
        for terms in ([1e308, 1e308], [-1.7e308, -1e308, 1.0]):
            with pytest.raises(OverflowError):
                _exact_sum(np.array(terms))

    def test_no_intermediate_overflow(self):
        # math.fsum raises "intermediate overflow" here; the exact sum is in range
        assert _exact_sum(np.array([1e308, 1e308, -1e308])) == 1e308

    def test_strided_and_rounded_half_to_even(self):
        # 1 + 2**-53 is a tie, rounded to the even 1.0; one more 2**-106 breaks it upward
        x = np.array([1.0, 2.0**-53, 2.0**-106])
        assert _exact_sum(x[:2]) == 1.0 and _exact_sum(x) == 1.0 + 2.0**-52
        assert _exact_sum(np.repeat(x, 2)[::2]) == 1.0 + 2.0**-52


class TestCheckSeriesIdentity:
    def test_pass_points(self, sieve_1e6, cache_1e6):
        # one step beyond each declared boundary, where truncation at 10**6
        # stays below 1e-6 (heavier coefficient growth is exercised deeper
        # in test_acceptance at the gate points)
        for name, s in [("lemma-Fld", 2), ("thm3.3", 3), ("cor-mu", 3), ("cor-phi", 4)]:
            r = check_series_identity(name, s, 10**6, 10**6, 1e-6, sieve=sieve_1e6, cache=cache_1e6)
            assert r.passed, (name, r.abs_error)

    def test_fail_by_truncation(self):
        r = check_series_identity("thm3.3", 4, 100, 10**6, 1e-12)
        assert not r.passed
        assert r.abs_error > 1e-6

    def test_sigmak_with_k1_matches_sigma(self, sieve_1e6, cache_1e6):
        a = check_series_identity("cor-sigma", 5, 10**4, 10**4, 1e-3, sieve=sieve_1e6, cache=cache_1e6)
        b = check_series_identity(
            "cor-sigmak", 5, 10**4, 10**4, 1e-3, k=1, sieve=sieve_1e6, cache=cache_1e6
        )
        assert a.lhs == b.lhs
        assert abs(a.rhs - b.rhs) <= 1e-15

    def test_primes_from_sieve_or_primes_up_to(self):
        # The primes of F come from the sieve when it covers prime_limit and
        # from primes_up_to otherwise; both give the same report.
        for limit, prime_limit in ((3000, 2000), (2000, 3000)):
            r = check_series_identity("cor-tau", 3.5, limit, prime_limit, 1e-3)
            for sieve in (build_sieve(limit), build_sieve(max(limit, prime_limit))):
                assert check_series_identity("cor-tau", 3.5, limit, prime_limit, 1e-3, sieve=sieve) == r

    def test_sigmak_with_k0_matches_tau(self, sieve_1e6, cache_1e6):
        a = check_series_identity("cor-tau", 5, 10**4, 10**4, 1e-3, sieve=sieve_1e6, cache=cache_1e6)
        b = check_series_identity(
            "cor-sigmak", 5, 10**4, 10**4, 1e-3, k=0, sieve=sieve_1e6, cache=cache_1e6
        )
        assert a.lhs == b.lhs
        assert abs(a.rhs - b.rhs) <= 1e-15

    def test_half_plane_enforced(self):
        with pytest.raises(OutOfDomainError):
            check_series_identity("thm3.3", 1.5, 100, 100, 1e-6)
        with pytest.raises(OutOfDomainError):
            check_series_identity("cor-phi", 2.5, 100, 100, 1e-6)
        with pytest.raises(OutOfDomainError):
            check_series_identity("cor-sigmak", 3.5, 100, 100, 1e-6, k=2)
        # every preset, at the bound its formula states and half a unit inside
        k = 2
        for name, formula in list_series_presets():
            bound = re.search(r"Re\(s\) > ([\w+]+)", formula).group(1)
            x = k + 2.0 if bound == "k+2" else float(bound)
            with pytest.raises(OutOfDomainError, match=re.escape(f"Re(s) > {x}, got")):
                check_series_identity(name, x, 100, 100, 1e-6, k=k)
            check_series_identity(name, x + 0.5, 100, 100, 1e-6, k=k)

    def test_far_right_points(self):
        # zeta and F at Re(s) where head overflows or p**(s+1) does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = check_series_identity("thm3.3", 400 + 1j, 100, 100, 1e-6)
            assert r.passed and r.abs_error <= 1e-130, r.abs_error
            r = check_series_identity("thm3.3", 1e13, 100, 100, 1e-6)
            assert r.passed and r.lhs == r.rhs == 0

    def test_zeta_region_still_binds_inside_half_plane(self):
        # Re(s) = 2.1 is inside the thm3.3 half-plane, and zeta(1.1) is evaluated there
        r = check_series_identity("thm3.3", 2.1, 100, 100, 1e-6)
        rhs = zeta(1.1, 1e-9).value * prime_F(1.1, 100).value
        assert r.rhs == pytest.approx(rhs, rel=1e-14)
        assert abs(zeta(1.1).value - complex(mpmath.zeta(1.1))) <= 1e-13

    def test_unknown_preset(self):
        with pytest.raises(UnknownNameError):
            check_series_identity("cor-42", 4, 100, 100, 1e-6)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            check_series_identity("thm3.3", 4, 0, 100, 1e-6)
        with pytest.raises(ValueError):
            check_series_identity("thm3.3", 4, 100, 1, 1e-6)
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                check_series_identity("thm3.3", 4, 100, 100, tol)
        with pytest.raises(ValueError):
            check_series_identity("cor-sigmak", 4, 100, 100, 1e-6, k=-1)

    def test_report_json_round_trip(self):
        r = check_series_identity("thm3.3", 4, 1000, 1000, 1e-3)
        assert SeriesCheckReport.from_json(r.to_json()) == r
        r2 = check_series_identity("lemma-Fld", 2 + 1j, 1000, 1000, 10.0)
        assert SeriesCheckReport.from_json(r2.to_json()) == r2

    def test_catalog(self):
        names = [name for name, _ in list_series_presets()]
        assert names == [
            "lemma-Fld", "thm3.3", "cor-tau", "cor-mu", "cor-phi", "cor-sigma", "cor-sigmak",
        ]


# Exponents e_j with sum f(n)/n^s = prod_j zeta(s-j)**e_j, transcribed by hand
# from the Dirichlet series of each function.
_EULER = {
    "mu": {0: -1},
    "tau": {0: 2},
    "phi": {1: 1, 0: -1},
    "sigma": {0: 1, 1: 1},
    "sigma_0": {0: 2},
    "sigma_3": {0: 1, 3: 1},
}


@pytest.mark.parametrize("name", list(_EULER))
def test_multiplicative_series_is_zeta_product(name):
    # Re(s) = max(j) + 4 puts the tail past N = 10**4 below 1e-10
    e = _EULER[name]
    t = tabulate(parse_expression(name), 10**4)
    for s in (max(e) + 4, max(e) + 4 + 2j):
        lhs = dirichlet_partial_sum(t, s).value
        rhs = math.prod(zeta(s - j, 1e-13).value ** ej for j, ej in e.items())
        assert abs(lhs - rhs) <= 1e-10, (name, s, abs(lhs - rhs))


class TestSeriesEstimateType:
    def test_rejects_negative_tail(self):
        with pytest.raises(ValueError):
            SeriesEstimate(1.0, 10, -1e-9)

    def test_rejects_non_finite_points(self):
        with pytest.raises(ValueError):
            zeta(float("nan"))
        with pytest.raises(ValueError):
            prime_F(float("inf"), 100)


class TestPrimesUpToCrossCheck:
    def test_prime_count_at_1e6(self):
        # classic checkpoint for the sieve feeding prime_F
        assert len(primes_up_to(10**6)) == 78498
