"""Generalized von Mangoldt functions attached to L-additive functions.

For an L-additive f with nonvanishing h, the attached function takes the
value f(p)/h(p) on every prime power p**k (k >= 1) and 0 elsewhere.  It
inverts f through h: f = h * (h . Lambda_f) under Dirichlet convolution.

The builtin names "mangoldt:<fn>" belong to the prime-power-supported class
of the convolution catalog; the functions here wrap that class, and importing
this module registers the related identity presets with the verifier.

The classical variant with values log p is irrational-valued and lives in
the float-based series module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .convolution import (
    TabulatedFunction,
    prime_power_at,
    register_identity,
    tabulate_prime_power,
)
from .factor import SieveTable
from .ladditive import LAdditiveFunction


@dataclass(frozen=True)
class MangoldtOf:
    """The generalized von Mangoldt function attached to an L-additive base."""

    base: LAdditiveFunction


def mangoldt_eval(m: MangoldtOf, n: int, sieve: Optional[SieveTable] = None) -> Fraction:
    """f(p)/h(p) when n = p**k for some k >= 1, else 0 (including n = 1)."""
    if n < 1:
        raise ValueError("mangoldt_eval requires n >= 1")
    return Fraction(prime_power_at(m.base, n, sieve))


def mangoldt_tabulate(m: MangoldtOf, limit: int) -> TabulatedFunction:
    """Tabulation on [1, limit]; nonzero only at the prime powers."""
    return TabulatedFunction(limit, tabulate_prime_power(m.base, limit))


def _register_catalog() -> None:
    register_identity(
        "thm3.1",
        "f = h * (h . mangoldt:f) for f in {delta, ld}",
        [
            ("delta", "id * (id . mangoldt:delta)"),
            ("ld", "one * (one . mangoldt:ld)"),
        ],
    )
    register_identity(
        "thm3.2",
        "mangoldt:f = mu * (f/h) = -(one * (mu . f/h)) for f in {delta, ld}",
        [
            ("mangoldt:delta", "mu * (delta . id_-1)"),
            ("mangoldt:delta", "-(one * (mu . delta . id_-1))"),
            ("mangoldt:ld", "mu * ld"),
            ("mangoldt:ld", "-(one * (mu . ld))"),
        ],
    )
    register_identity(
        "eq23",
        "tau * mangoldt:f = 1/2 . (f . tau / h) for f in {delta, ld}",
        [
            ("tau * mangoldt:delta", "1/2 . (tau . delta . id_-1)"),
            ("tau * mangoldt:ld", "1/2 . (tau . ld)"),
        ],
    )
    register_identity(
        "cor3.8",
        "completely additive f recovers from its prime-power values: ld = one * mangoldt:ld",
        [("ld", "one * mangoldt:ld")],
    )
    register_identity(
        "cor3.9",
        "mangoldt:ld = mu * ld = -(one * (mu . ld))",
        [
            ("mangoldt:ld", "mu * ld"),
            ("mangoldt:ld", "-(one * (mu . ld))"),
        ],
    )
    register_identity(
        "delta-from-lambda",
        "delta = id * (id . mangoldt:ld)",
        [("delta", "id * (id . mangoldt:ld)")],
    )


_register_catalog()
