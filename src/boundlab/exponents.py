"""Exact bookkeeping of the exponents in the sup-norm estimate chain.

All quantities live in `fractions.Fraction`, so the algebraic identities
between them can be checked with equality instead of tolerances.  Floats are
produced only at the boundary to the numeric modules, each of which converts
the fields it reads with ``float(ctx.x)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

__all__ = [
    "ExponentContext",
    "IdentityCheck",
    "critical_exponents",
    "derive_context",
    "check_identities",
]


def _rational(value, name):
    # floats are rejected on purpose: exactness is part of the contract
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"{name} must be an exact rational (int, Fraction or 'a/b' string), "
        f"got {type(value).__name__}"
    )


def critical_exponents(N):
    """Return the volume and trace critical exponents for dimension N >= 3.

    The pair is (2N/(N-2), 2(N-1)/(N-2)) as exact fractions; the second one
    limits the boundary integrability of traces of H1 functions.
    """
    if isinstance(N, bool) or not isinstance(N, int):
        raise TypeError("N must be an integer")
    if N < 3:
        raise ValueError(f"dimension must be at least 3, got {N}")
    return Fraction(2 * N, N - 2), Fraction(2 * (N - 1), N - 2)


@dataclass(frozen=True)
class ExponentContext:
    """All scalar exponents of the estimate chain, as exact rationals.

    N            space dimension (>= 3)
    p            boundary growth power, strictly inside (1, two_low_star - 1)
    two_star     volume critical exponent 2N/(N-2)
    two_low_star trace critical exponent 2(N-1)/(N-2)
    q            boundary integrability index, q > max(N-1, two_low_star/p)
    m            Sobolev index Nq/(N-1) of the lifted regularity
    sigma        interpolation weight, 1/sigma = 1 + two_star*(1/N - 1/m)
    A            main exponent (two_low_star - 2)/((two_low_star - 1) - p)
    A_hat1/2     split exponents with A_hat1 + A_hat2 = A
    """

    N: int
    p: Fraction
    two_star: Fraction
    two_low_star: Fraction
    q: Fraction
    m: Fraction
    sigma: Fraction
    A: Fraction
    A_hat1: Fraction
    A_hat2: Fraction


def derive_context(N, p, q_override=None):
    """Build the full :class:`ExponentContext` for dimension N and power p.

    The default q is max(N-1, two_low_star/p) + 1, which satisfies the strict
    lower bound with room to spare while keeping the fractions small; pass
    ``q_override`` to study q-sensitivity.
    """
    two_star, two_low_star = critical_exponents(N)
    p = _rational(p, "p")
    p_max = two_low_star - 1
    if not (1 < p < p_max):
        raise ValueError(
            f"p must satisfy 1 < p < {p_max} (subcritical range for N={N}), got {p}"
        )
    q_min = max(Fraction(N - 1), two_low_star / p)
    if q_override is None:
        q = q_min + 1
    else:
        q = _rational(q_override, "q_override")
        if not q > q_min:
            raise ValueError(f"q must exceed max(N-1, two_low_star/p) = {q_min}, got {q}")
    m = Fraction(N) * q / (N - 1)
    sigma = 1 / (1 + two_star * (Fraction(1, N) - 1 / m))
    A = (two_low_star - 2) / ((two_low_star - 1) - p)
    denom = Fraction(N, N - 2) - p
    A_hat1 = (two_star / m) / denom
    A_hat2 = (two_star / Fraction(N) - two_star / m) / denom
    return ExponentContext(
        N=N,
        p=p,
        two_star=two_star,
        two_low_star=two_low_star,
        q=q,
        m=m,
        sigma=sigma,
        A=A,
        A_hat1=A_hat1,
        A_hat2=A_hat2,
    )


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str


def check_identities(ctx):
    """Verify the four exact identities tying the context together.

    Returns one :class:`IdentityCheck` per identity; all comparisons are
    rational equalities (or strict rational inequalities), zero tolerance.
    """
    N = ctx.N
    checks = []

    lhs = ctx.two_star / ctx.m
    rhs = ctx.two_low_star / ctx.q
    checks.append(
        IdentityCheck(
            "volume_boundary_exponent_ratio",
            lhs == rhs,
            f"two_star/m = {lhs}, two_low_star/q = {rhs}",
        )
    )

    lhs = 1 / ctx.sigma + ctx.two_low_star / ctx.q
    rhs = Fraction(N, N - 2)
    checks.append(
        IdentityCheck(
            "interpolation_weight_sum",
            lhs == rhs,
            f"1/sigma + two_low_star/q = {lhs}, N/(N-2) = {rhs}",
        )
    )

    closed_form = Fraction(2) / (N - ctx.p * (N - 2))
    ok = ctx.A_hat1 + ctx.A_hat2 == ctx.A and ctx.A == closed_form
    checks.append(
        IdentityCheck(
            "exponent_split_sum",
            ok,
            f"A_hat1 + A_hat2 = {ctx.A_hat1 + ctx.A_hat2}, A = {ctx.A}, "
            f"2/(N - p(N-2)) = {closed_form}",
        )
    )

    d = ctx.sigma * (Fraction(N, N - 2) - ctx.p)
    alt = 1 - ctx.sigma * (ctx.p - ctx.two_low_star / ctx.q)
    ok = (0 < d < 1) and d == alt
    checks.append(
        IdentityCheck(
            "normalized_denominator_range",
            ok,
            f"sigma*(N/(N-2) - p) = {d}, 1 - sigma*(p - two_low_star/q) = {alt}",
        )
    )
    return checks
