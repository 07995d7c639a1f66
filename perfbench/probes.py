"""Per-layer probes: public calls that the composite workload calls make internally.

A workload pass only shows the calls the benchmark makes itself; what
``verify_identity`` or ``check_series_identity`` spend inside tabulation,
convolution, sieving and float sums is measured here by calling the same
public functions at the workloads' sizes.  Every probe call is a span tagged
with the per-layer metric it feeds; calls that share an operation id form one
sample.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

import arithfn as A

from workloads import SERIES_TOL, PassLog, Sizes

REPS = 3
# Leaves of the identity catalog, split by the value type of their tables.
INT_LEAVES = ("one", "id", "id_2", "mu", "tau", "phi", "sigma", "delta")
FRAC_LEAVES = ("id_-1", "ld", "mangoldt:delta", "mangoldt:ld")
# Coefficient expressions of the seven series presets (cor-sigmak at k = 2).
SERIES_COEFFS = (
    "mangoldt:ld",
    "delta",
    "tau . delta",
    "mu . delta",
    "phi . delta",
    "sigma . delta",
    "sigma_2 . delta",
)
SAMPLES = 200  # calls per per-call probe


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def count_fractions(values) -> int:
    return sum(1 for v in values if isinstance(v, Fraction))


def kernel_products(u: A.TabulatedFunction, v: A.TabulatedFunction) -> int:
    """Nonzero a(d)*b(q) products, d*q <= N, that the harmonic loop multiplies."""
    n = u.limit
    prefix = [0] * (n + 1)
    for q in range(1, n + 1):
        prefix[q] = prefix[q - 1] + (v[q] != 0)
    return sum(prefix[n // d] for d in range(1, n + 1) if u[d] != 0)


def run_probes(tr, sizes: Sizes, seed: int, workloads: dict, last: dict[str, PassLog]) -> dict[str, float]:
    """Make every probe call under ``tr``; returns the exact counts."""
    rng = random.Random(seed)

    def probe(tag: str, fn, *args, op: Optional[int] = None):
        with tr.span(_span_name(fn), tag, tr.new_op() if op is None else op):
            return fn(*args)

    points, window, series = workloads["points"], workloads["window"], workloads["series"]

    # factor
    for _ in range(REPS):
        probe("factor.build_sieve_s", A.build_sieve, sizes.series_limit)
        probe("factor.primes_up_to_s", A.primes_up_to, sizes.series_limit)
    for n, sieve in points.factor_inputs[:SAMPLES]:
        probe("factor.factorize_small_us", A.factorize, n, sieve)
    for p, q in points.semiprimes[:5]:
        probe("factor.factorize_large_ms", A.factorize, p * q)
    inverse_sieve = A.build_sieve(max(sizes.window_inverse_limit, 2))
    for _ in range(SAMPLES):
        n = rng.randint(1, sizes.window_inverse_limit)
        probe("factor.divisors_us", A.divisors, n, inverse_sieve)

    # ladditive and convolution, at the catalog window
    limit = sizes.catalog_limit
    sieve = A.build_sieve(max(limit, 2))
    for _ in range(REPS):
        probe("ladditive.tabulate_l_additive_s", A.tabulate_l_additive, A.ld(), limit, sieve)
    frac_tables = []
    for _ in range(REPS):
        op = tr.new_op()
        for leaf in INT_LEAVES:
            probe("convolution.tabulate_int_s", A.tabulate, A.Builtin(leaf), limit, sieve, op=op)
        op = tr.new_op()
        frac_tables = [
            probe("convolution.tabulate_frac_s", A.tabulate, A.Builtin(leaf), limit, sieve, op=op)
            for leaf in FRAC_LEAVES
        ]
    delta, id_, ld, tau = (A.tabulate(A.Builtin(b), limit, sieve) for b in ("delta", "id_1", "ld", "tau"))
    for _ in range(REPS):
        int_conv = probe("convolution.convolve_int_s", A.dirichlet_convolve, delta, id_)
        frac_conv = probe("convolution.convolve_frac_s", A.dirichlet_convolve, ld, tau)
    int_copy = A.TabulatedFunction.from_values(int_conv.values())
    frac_copy = A.TabulatedFunction.from_values(frac_conv.values())
    for _ in range(REPS):
        probe("convolution.first_mismatch_int_s", A.first_mismatch, int_conv, int_copy)
        probe("convolution.first_mismatch_frac_s", A.first_mismatch, frac_conv, frac_copy)

    # mangoldt and series, at the series cutoff
    n_series = sizes.series_limit
    for _ in range(REPS):
        probe("mangoldt.mangoldt_tabulate_s", A.mangoldt_tabulate, A.MangoldtOf(A.ld()), n_series)
    op = tr.new_op()
    for text in SERIES_COEFFS:  # the float-sum probes below use the last table
        coeff = probe("series.tabulate_coeff_s", A.tabulate, A.parse_expression(text), n_series, op=op)
    real_points = [s for _, _, s in series.checks if s.imag == 0]
    complex_point = next(s for _, _, s in series.checks if s.imag != 0)
    for _ in range(REPS):
        probe("series.dirichlet_partial_sum_real_s", A.dirichlet_partial_sum, coeff, real_points[0])
        probe("series.dirichlet_partial_sum_complex_s", A.dirichlet_partial_sum, coeff, complex_point)
    for s in real_points + [complex_point]:
        probe("series.zeta_ms", A.zeta, s - 1, SERIES_TOL / 1000)
    primes = A.primes_up_to(n_series)
    for _ in range(REPS):
        probe("series.prime_F_s", A.prime_F, real_points[0], n_series, primes)

    series_reports = [r for r in last["series"].results if isinstance(r, A.SeriesCheckReport)]
    inverse = last["window"].results[3]
    fraction_values = sum(count_fractions(t.values()) for t in frac_tables)
    fraction_values += count_fractions(frac_conv.values())
    if isinstance(inverse, A.TabulatedFunction):
        fraction_values += count_fractions(inverse.values())
    return {
        "convolution.kernel_products": 2 * kernel_products(window.u, window.v),
        "convolution.fraction_values": fraction_values,
        "convolution.cache_entries": last["catalog"].info.get("cache_entries", 0),
        "series.max_error_over_tol": max((r.abs_error / r.tolerance for r in series_reports), default=0.0),
    }
