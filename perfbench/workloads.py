"""The four benchmark workloads: seeded inputs, one timed pass, and output checks.

Each workload is a closed loop with one caller: the next call starts when the
previous one returns.  Inputs are drawn from the seed when the workload is
built, outside any timed region; a pass only hands them to arithfn.  Results
are checked after the pass, so checking never counts toward its time.

- catalog: the ``verify all`` path, every identity preset on one window,
  sharing a sieve and a fresh cache per pass.  Time goes to the exact
  convolution layer; no series work and almost no factorization.
- series: every Dirichlet-series preset plus one complex point, each call
  building its own sieve and coefficient table as ``arithfn series`` does.
  Bulk integer tabulation, float sums, zeta and F; no convolution.
- points: a shuffled stream of single-point calls (Leibniz-additive values,
  rationals, von Mangoldt values, ``convolve_at``, CLI ``eval``), with a
  small slice of semiprimes beyond the sieve.  The median lands in small
  evaluations and p99 in trial division, so an evaluator speed-up and a
  factorizer speed-up move different metrics.  No tabulation.
- window: large user tables through the convolution kernel, the Dirichlet
  inverse, JSON serialization and CLI ``convolve``; big int tables with no
  shared sub-expressions.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import arithfn as A
from arithfn import cli


@dataclass(frozen=True)
class Sizes:
    catalog_limit: int  # verify window [1, N]
    series_limit: int  # coefficient cutoff N and prime cutoff of every series check
    points_limit: int  # n range of the points stream and size of its shared sieve
    points_ops: int  # calls per points pass
    points_at_limit: int  # n range of convolve_at
    window_limit: int  # user tables u, v on [1, N]
    window_inverse_limit: int  # Dirichlet inverse of u on [1, M]
    window_cli_limit: int  # --limit of the CLI convolve step
    spot_checks: int  # seeded n per divisor-sum spot check


# Sized so that one pass of each workload takes one to three seconds on a
# 2-core Xeon, which fits several passes into one timed run.
FULL = Sizes(
    catalog_limit=2000,
    series_limit=200_000,
    points_limit=1_000_000,
    points_ops=1000,
    points_at_limit=10_000,
    window_limit=100_000,
    window_inverse_limit=10_000,
    window_cli_limit=20_000,
    spot_checks=20,
)

# For the benchmark's own tests: every code path, a fraction of the time.
SMALL = Sizes(
    catalog_limit=120,
    series_limit=20_000,
    points_limit=10_000,
    points_ops=100,
    points_at_limit=500,
    window_limit=3000,
    window_inverse_limit=500,
    window_cli_limit=300,
    spot_checks=5,
)


class Raised(NamedTuple):
    """The outcome of an operation that raised; it counts as failed."""

    error: str


class PassLog:
    """One pass: the latency and result of each operation, spans when traced."""

    def __init__(self, tracer) -> None:
        self.tr = tracer
        self.latency_s: list[float] = []
        self.results: list = []
        self.info: dict = {}
        self.wall_s = 0.0
        self.attempted = 0
        self.failures: dict[int, str] = {}

    def call(self, name: str, tag: Optional[str], fn: Callable, *args, **kwargs):
        """Run one operation: one public call into the layer ``name`` names."""
        op = self.tr.new_op()
        t0 = time.perf_counter()
        try:
            with self.tr.span(name, tag, op):
                result = fn(*args, **kwargs)
        except Exception as exc:  # the operation failed; the pass goes on
            result = Raised(f"{type(exc).__name__}: {exc}")
        self.latency_s.append(time.perf_counter() - t0)
        self.results.append(result)
        return result


class Workload:
    name = ""

    def setup_code(self) -> str:
        """Statements a fresh interpreter runs after ``import arithfn`` to set up."""
        return ""

    def run_pass(self, log: PassLog) -> None:
        raise NotImplementedError

    def check_op(self, i: int, result, log: PassLog) -> Optional[str]:
        """Why operation i's result is wrong, or None when it is right."""
        raise NotImplementedError

    def failures(self, log: PassLog) -> dict[int, str]:
        out: dict[int, str] = {}
        for i, r in enumerate(log.results):
            if isinstance(r, Raised):
                out[i] = r.error
                continue
            try:
                msg = self.check_op(i, r, log)
            except Exception as exc:  # a malformed result fails its check
                msg = f"check raised {type(exc).__name__}: {exc}"
            if msg:
                out[i] = msg
        return out


# ---------------------------------------------------------------------------
# Benchmark-side arithmetic for checks, independent of arithfn
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _prime_power_base(n: int) -> Optional[int]:
    """p when n = p**k with k >= 1, else None."""
    if n < 2:
        return None
    p = next((d for d in _divisors(n) if d > 1), n)
    while n % p == 0:
        n //= p
    return p if n == 1 else None


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


class Catalog(Workload):
    name = "catalog"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.limit = sizes.catalog_limit
        self.preset_seed = random.Random(seed).randrange(1 << 30)  # compmult-distr tables
        self.presets = [name for name, _ in A.list_identity_presets()]

    def run_pass(self, log: PassLog) -> None:
        with log.tr.span("factor.build_sieve"):
            sieve = A.build_sieve(max(self.limit, 2))
        cache: dict = {}
        for name in self.presets:
            log.call(
                "convolution.verify_identity",
                f"convolution.verify.{name}_s",
                A.verify_identity,
                name,
                self.limit,
                seed=self.preset_seed,
                sieve=sieve,
                cache=cache,
            )
        log.info["cache_entries"] = len(cache)

    def check_op(self, i: int, r, log: PassLog) -> Optional[str]:
        name = self.presets[i]
        if r.identity != name or r.limit != self.limit:
            return f"{name}: report is for {r.identity} on [1, {r.limit}]"
        if not r.holds:
            return f"{name}: mismatch at n = {r.mismatch_n} in [{r.case}]"
        return None


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

SERIES_TOL = 1e-6
SERIES_K = 2
# Each preset is checked for Re(s) > min_re (list-identities states the
# domains; cor-sigmak needs Re(s) > k + 2).  Points come from
# [min_re + 2, min_re + 3], where every truncated sum is well inside SERIES_TOL.
SERIES_MIN_RE = {
    "lemma-Fld": 1.0,
    "thm3.3": 2.0,
    "cor-tau": 2.0,
    "cor-mu": 2.0,
    "cor-phi": 3.0,
    "cor-sigma": 3.0,
    "cor-sigmak": SERIES_K + 2.0,
}
SERIES_COMPLEX_PRESET = "thm3.3"


class Series(Workload):
    name = "series"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        rng = random.Random(seed)
        self.limit = sizes.series_limit
        self.checks: list[tuple[str, str, complex]] = []
        for name, _ in A.list_series_presets():
            m = SERIES_MIN_RE[name]
            self.checks.append((name, f"series.check.{name}_s", complex(rng.uniform(m + 2, m + 3))))
        m = SERIES_MIN_RE[SERIES_COMPLEX_PRESET]
        s = complex(rng.uniform(m + 2, m + 3), rng.uniform(1, 3))
        self.checks.append((SERIES_COMPLEX_PRESET, "series.check.complex_s", s))

    def run_pass(self, log: PassLog) -> None:
        for name, tag, s in self.checks:
            log.call(
                "series.check_series_identity",
                tag,
                A.check_series_identity,
                name,
                s,
                self.limit,
                self.limit,
                SERIES_TOL,
                k=SERIES_K,
            )

    def check_op(self, i: int, r, log: PassLog) -> Optional[str]:
        name, _, s = self.checks[i]
        if r.name != name or r.s != s or r.limit != self.limit:
            return f"{name}: report is for {r.name} at s = {r.s}, N = {r.limit}"
        err = abs(r.lhs - r.rhs)
        if not (r.passed and err <= SERIES_TOL):
            return f"{name} at s = {s}: |lhs - rhs| = {err:.3g}, tolerance {SERIES_TOL}"
        return None


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

# Calls per 1000: mostly small Leibniz-additive evaluations.  Counts are
# fixed, not drawn, so the quantiles sit at the same place in every stream.
POINT_MIX = (
    ("natural", 600),
    ("h", 150),
    ("rational", 80),
    ("mangoldt", 60),
    ("convolve_at", 40),
    ("cli", 50),
    ("semiprime", 20),
)
CONVOLVE_PAIRS = (("one", "id"), ("mu", "tau"), ("delta", "one"), ("ld", "mu"))
CLI_FUNCTIONS = ("delta", "ld", "big_omega", "delta_p:3", "mangoldt:ld")
SEMIPRIME_RANGE = (100_000, 999_983)  # both factors prime in this range


def point_functions() -> list[A.LAdditiveFunction]:
    return [
        A.delta(),
        A.ld(),
        A.big_omega(),
        A.delta_partial(3),
        A.custom(
            "bench",
            {2: Fraction(1, 2), 3: 5},
            {5: 2, 7: Fraction(1, 3)},
            f_default="reciprocal",
            h_default="identity",
        ),
    ]


class PointOp(NamedTuple):
    name: str
    tag: str
    fn: Callable
    args: tuple
    check: Callable[[object], Optional[str]]


class Points(Workload):
    name = "points"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        rng = random.Random(seed)
        self.limit = sizes.points_limit
        self.sieve = A.build_sieve(self.limit)  # shared by the passes: part of set-up
        self.functions = point_functions()
        self.small_primes = [p for p in range(2, 1000) if _is_prime(p)]
        self.bulk = {
            pair: A.dirichlet_convolve(
                A.tabulate(A.parse_expression(pair[0]), sizes.points_at_limit),
                A.tabulate(A.parse_expression(pair[1]), sizes.points_at_limit),
            )
            for pair in CONVOLVE_PAIRS
        }
        self.semiprimes: list[tuple[int, int]] = []
        # (n, sieve) of every small factorization, for the factorize probe
        self.factor_inputs: list[tuple[int, Optional[A.SieveTable]]] = []
        ops: list[PointOp] = []
        for kind, per_mille in POINT_MIX:
            count = max(1, round(per_mille * sizes.points_ops / 1000))
            make = getattr(self, f"_op_{kind}")
            ops += [make(rng, j, count) for j in range(count)]
        rng.shuffle(ops)
        self.ops = ops

    def setup_code(self) -> str:
        return f"arithfn.build_sieve({self.limit})"

    def _split(self, rng: random.Random) -> tuple[int, int]:
        n = rng.randint(2, self.limit)
        a = rng.choice(_divisors(n))
        return a, n // a

    def _sieve_for(self, j: int) -> Optional[A.SieveTable]:
        return self.sieve if j % 2 == 0 else None  # half the calls pass the sieve

    def _op_natural(self, rng, j, count) -> PointOp:
        fn = self.functions[j % len(self.functions)]
        a, b = self._split(rng)
        sieve = self._sieve_for(j)
        self.factor_inputs.append((a * b, sieve))
        return PointOp(
            "ladditive.eval_natural",
            "ladditive.eval_natural_us",
            A.eval_natural,
            (fn, a * b, sieve),
            self._leibniz(fn, a, b),
        )

    def _op_semiprime(self, rng, j, count) -> PointOp:
        # Stratified smaller factor: trial division costs about p steps, so
        # the slice's cost quantiles stay put from seed to seed.
        lo, hi = SEMIPRIME_RANGE
        p = _next_prime(lo + int((hi - lo) * 0.9 * (j + rng.random()) / count))
        q = _next_prime(rng.randrange(p + 1, hi))
        fn = self.functions[j % len(self.functions)]
        self.semiprimes.append((p, q))
        return PointOp(
            "ladditive.eval_natural",
            "ladditive.eval_natural_large_ms",
            A.eval_natural,
            (fn, p * q, None),
            self._leibniz(fn, p, q),
        )

    def _leibniz(self, fn, a: int, b: int):
        def check(value) -> Optional[str]:
            s = self.sieve
            want = A.eval_natural(fn, a, s) * A.h_eval(fn, b, s) + A.eval_natural(
                fn, b, s
            ) * A.h_eval(fn, a, s)
            if value != want:
                return f"{fn.name}({a}*{b}) = {value}; Leibniz rule gives {want}"
            return None

        return check

    def _op_h(self, rng, j, count) -> PointOp:
        fn = self.functions[j % len(self.functions)]
        a, b = self._split(rng)

        def check(value) -> Optional[str]:
            want = A.h_eval(fn, a, self.sieve) * A.h_eval(fn, b, self.sieve)
            return None if value == want else f"h_{fn.name}({a}*{b}) = {value}, want {want}"

        return PointOp(
            "ladditive.h_eval", "ladditive.h_eval_us", A.h_eval, (fn, a * b, self._sieve_for(j)), check
        )

    def _op_rational(self, rng, j, count) -> PointOp:
        fn = self.functions[j % len(self.functions)]
        p, q, k = rng.randint(1, self.limit), rng.randint(1, self.limit), rng.randint(2, 30)

        def check(value) -> Optional[str]:
            want = A.eval_rational(fn, k * p, k * q, self.sieve)
            if value != want:
                return f"{fn.name}({p}/{q}) = {value} but {fn.name}({k * p}/{k * q}) = {want}"
            return None

        return PointOp(
            "ladditive.eval_rational",
            "ladditive.eval_rational_us",
            A.eval_rational,
            (fn, p, q, self._sieve_for(j)),
            check,
        )

    def _op_mangoldt(self, rng, j, count) -> PointOp:
        fn = self.functions[j % len(self.functions)]
        if j % 2 == 0:
            p = rng.choice(self.small_primes)
            top = 1
            while p ** (top + 1) <= self.limit:
                top += 1
            n = p ** rng.randint(1, top)
        else:
            n = rng.randint(1, self.limit)

        def check(value) -> Optional[str]:
            p = _prime_power_base(n)
            want = 0 if p is None else A.quotient_ratio(fn, p)
            return None if value == want else f"mangoldt:{fn.name}({n}) = {value}, want {want}"

        return PointOp(
            "mangoldt.mangoldt_eval",
            "mangoldt.mangoldt_eval_us",
            A.mangoldt_eval,
            (A.MangoldtOf(fn), n, self._sieve_for(j // 2)),
            check,
        )

    def _op_convolve_at(self, rng, j, count) -> PointOp:
        pair = CONVOLVE_PAIRS[j % len(CONVOLVE_PAIRS)]
        n = rng.randint(1, self.bulk[pair].limit)
        want = self.bulk[pair][n]

        def check(value) -> Optional[str]:
            return None if value == want else f"({pair[0]} * {pair[1]})({n}) = {value}, table has {want}"

        return PointOp(
            "convolution.convolve_at",
            "convolution.convolve_at_us",
            A.convolve_at,
            (A.parse_expression(pair[0]), A.parse_expression(pair[1]), n),
            check,
        )

    def _op_cli(self, rng, j, count) -> PointOp:
        token = CLI_FUNCTIONS[j % len(CLI_FUNCTIONS)]
        n = rng.randint(1, self.limit)

        def check(value) -> Optional[str]:
            if token.startswith("mangoldt:"):
                fn = A.l_additive_by_token(token.split(":", 1)[1])
                want = A.mangoldt_eval(A.MangoldtOf(fn), n, self.sieve)
            else:
                want = A.eval_natural(A.l_additive_by_token(token), n, self.sieve)
            if value != (0, f"{want}\n"):
                return f"arithfn eval {token} {n} gave {value!r}, library gives {want}"
            return None

        return PointOp("cli.run", "cli.run_eval_ms", _run_cli, (["eval", token, str(n)],), check)

    def run_pass(self, log: PassLog) -> None:
        for op in self.ops:
            log.call(op.name, op.tag, op.fn, *op.args)

    def check_op(self, i: int, r, log: PassLog) -> Optional[str]:
        return self.ops[i].check(r)


# ---------------------------------------------------------------------------
# window
# ---------------------------------------------------------------------------


def _times_id(t: A.TabulatedFunction) -> A.TabulatedFunction:
    return A.TabulatedFunction.from_values([n * v for n, v in enumerate(t.values(), 1)])


class Window(Workload):
    name = "window"
    STEPS = ("convolve", "convolve_id", "compmult", "inverse", "to_json", "from_json", "cli")

    def __init__(self, seed: int, sizes: Sizes) -> None:
        rng = random.Random(seed)
        n = sizes.window_limit
        u = [1] + [rng.randint(-3, 3) for _ in range(n - 1)]
        v = [1] + [rng.randint(-3, 3) for _ in range(n - 1)]
        self.u = A.TabulatedFunction.from_values(u)
        self.v = A.TabulatedFunction.from_values(v)
        self.id_u = _times_id(self.u)
        self.id_v = _times_id(self.v)
        self.u_head = A.TabulatedFunction.from_values(u[: sizes.window_inverse_limit])
        self.conv_n = sorted(rng.sample(range(1, n + 1), sizes.spot_checks))
        self.inverse_n = [1] + sorted(rng.sample(range(2, sizes.window_inverse_limit + 1), sizes.spot_checks))
        self.cli_limit = sizes.window_cli_limit
        # id * delta = 1/2 . (tau . delta) is eq13; the CLI output is checked against it.
        eq13 = A.tabulate(A.parse_expression("1/2 . (tau . delta)"), self.cli_limit)
        self.cli_values = [A.fraction_to_str(x) for x in eq13.values()]

    def run_pass(self, log: PassLog) -> None:
        c = log.call(
            "convolution.dirichlet_convolve",
            "convolution.window_convolve_s",
            A.dirichlet_convolve,
            self.u,
            self.v,
        )
        c_id = log.call("convolution.dirichlet_convolve", None, A.dirichlet_convolve, self.id_u, self.id_v)
        id_c = None if isinstance(c, Raised) else _times_id(c)
        log.call("convolution.first_mismatch", None, A.first_mismatch, id_c, c_id)
        log.call(
            "convolution.dirichlet_inverse",
            "convolution.dirichlet_inverse_s",
            A.dirichlet_inverse,
            self.u_head,
        )
        text = log.call("convolution.to_json", "convolution.to_json_s", A.TabulatedFunction.to_json, c)
        log.call("convolution.from_json", "convolution.from_json_s", A.TabulatedFunction.from_json, text)
        argv = ["convolve", "id", "delta", "--limit", str(self.cli_limit), "--format", "json"]
        log.call("cli.run", "cli.run_convolve_s", _run_cli, argv)

    def _spot(self, t, a, b, ns) -> Optional[str]:
        for n in ns:
            want = sum(a[d] * b[n // d] for d in _divisors(n))
            if t[n] != want:
                return f"value {t[n]} at n = {n}, divisor sum gives {want}"
        return None

    def check_op(self, i: int, r, log: PassLog) -> Optional[str]:
        step = self.STEPS[i]
        c = log.results[0]
        if step == "convolve":
            return self._spot(r, self.u, self.v, self.conv_n)
        if step == "convolve_id":
            return self._spot(r, self.id_u, self.id_v, self.conv_n)
        if step == "compmult":
            return None if r is None else f"id.(u*v) != (id.u)*(id.v) at n = {r[0]}"
        if step == "inverse":
            for n in self.inverse_n:
                total = sum(self.u_head[d] * r[n // d] for d in _divisors(n))
                if total != (1 if n == 1 else 0):
                    return f"(u * u^-1)({n}) = {total}"
            return None
        if step == "to_json":
            return None if isinstance(r, str) else f"to_json returned {type(r).__name__}"
        if step == "from_json":
            return None if r == c else "JSON round trip changed the table"
        code, out = r
        if code != 0 or json.loads(out)["values"] != self.cli_values:
            return f"arithfn convolve exited {code} or printed values that differ from eq13"
        return None


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Catalog, Series, Points, Window)}
