"""Bounded-range composition accounting.

Every mechanism invocation in this system is a bounded-range (BR) release
with the same per-unit parameter.  Composing t of them yields, for any
failure weight delta' in [0, 1), an overall epsilon of

    min( t*eps,
         t*(r - 1 - ln r) + eps*sqrt(t/2 * ln(1/delta')) ),
    where r = eps / (1 - e^(-eps)).

The module also solves the inverse problem: given a system budget
(eps_max, delta_star, k_star, ell_star), split delta_star and find the
unique per-unit eps whose k_star-fold composition meets eps_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SystemPrivacyBudget",
    "PerQueryParams",
    "br_compose",
    "overall_guarantee",
    "solve_eps_per",
]

_DELTA_SPLIT_TOL = 1e-15


@dataclass(frozen=True)
class SystemPrivacyBudget:
    """System-level budget: overall DP bound plus information and call caps."""

    eps_max: float
    delta_star: float
    k_star: int
    ell_star: int

    def __post_init__(self) -> None:
        if self.eps_max <= 0:
            raise ValueError(f"eps_max must be positive, got {self.eps_max}")
        if not 0 < self.delta_star < 1:
            raise ValueError(f"delta_star must be in (0, 1), got {self.delta_star}")
        if self.k_star < 1 or self.ell_star < 1:
            raise ValueError("k_star and ell_star must be positive integers")


@dataclass(frozen=True)
class PerQueryParams:
    """Per-unit parameters used by every mechanism invocation."""

    eps_per: float
    delta: float
    delta_prime: float

    def __post_init__(self) -> None:
        if self.eps_per <= 0:
            raise ValueError(f"eps_per must be positive, got {self.eps_per}")
        if self.delta < 0 or self.delta_prime < 0:
            raise ValueError("delta and delta_prime must be non-negative")

    def delta_star(self, ell_star: int) -> float:
        return 2 * ell_star * self.delta + self.delta_prime


def _per_unit_term(eps: float) -> float:
    """r - 1 - ln r with r = eps / (1 - e^(-eps)), stable for tiny eps.

    For small eps, r = 1 + eps/2 + eps^2/12 - eps^4/720 + ... and the whole
    term behaves like eps^2/8; computing it through the series in
    u = r - 1 avoids the catastrophic cancellation of r - 1 - ln(r).
    """
    if eps < 1e-4:
        u = eps / 2 + eps * eps / 12 - eps**4 / 720
    else:
        u = eps / (-math.expm1(-eps)) - 1.0
    if u < 1e-4:
        return u * u / 2 - u**3 / 3 + u**4 / 4
    return u - math.log1p(u)


def br_compose(eps_per: float, t: int, delta_prime: float) -> float:
    """Overall epsilon after adaptively composing t eps_per-BR mechanisms.

    Returns the minimum of the linear bound t*eps_per and the
    sqrt-composition bound; with delta_prime == 0 only the linear bound
    applies.
    """
    if eps_per <= 0:
        raise ValueError(f"eps_per must be positive, got {eps_per}")
    if t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")
    if not 0 <= delta_prime < 1:
        raise ValueError(f"delta_prime must be in [0, 1), got {delta_prime}")
    linear = t * eps_per
    if delta_prime == 0:
        return linear
    advanced = t * _per_unit_term(eps_per) + eps_per * math.sqrt(
        t / 2 * math.log(1 / delta_prime)
    )
    return min(linear, advanced)


def overall_guarantee(
    params: PerQueryParams, k_star: int, ell_star: int
) -> tuple[float, float]:
    """(eps_max, delta_star) for a full budget period of interactions.

    delta_star = 2 * ell_star * delta + delta_prime accounts for the
    unknown-domain failure mass of at most ell_star calls; eps_max is the
    k_star-fold BR composition of eps_per.
    """
    if k_star < 1 or ell_star < 1:
        raise ValueError("k_star and ell_star must be positive integers")
    delta_star = params.delta_star(ell_star)
    if delta_star >= 1:
        raise ValueError(
            f"delta_star = {delta_star} >= 1; budget configuration is vacuous"
        )
    eps_max = br_compose(params.eps_per, k_star, params.delta_prime)
    return eps_max, delta_star


def solve_eps_per(budget: SystemPrivacyBudget) -> PerQueryParams:
    """Per-query parameters that realize a system budget.

    Splits delta_star as delta = delta_star / (4 * ell_star) and
    delta_prime = delta_star / 2, then bisects for the unique eps_per whose
    composition equals eps_max (the bound is strictly increasing in eps_per).
    """
    delta = budget.delta_star / (4 * budget.ell_star)
    delta_prime = budget.delta_star / 2

    def composed(eps: float) -> float:
        return br_compose(eps, budget.k_star, delta_prime)

    lo, hi = 1e-8, budget.eps_max
    while composed(hi) < budget.eps_max:
        hi *= 2
        if hi > 1e12:
            raise ArithmeticError("composition bound failed to reach eps_max")
    if composed(lo) > budget.eps_max:
        raise ArithmeticError(f"eps_max {budget.eps_max} below solvable range")
    for _ in range(200):
        mid = (lo + hi) / 2
        if composed(mid) < budget.eps_max:
            lo = mid
        else:
            hi = mid
    eps_per = (lo + hi) / 2
    residual = abs(composed(eps_per) - budget.eps_max) / budget.eps_max
    if residual > 1e-10:
        raise ArithmeticError(f"eps_per solve residual {residual} exceeds 1e-10")
    params = PerQueryParams(eps_per=eps_per, delta=delta, delta_prime=delta_prime)
    split = params.delta_star(budget.ell_star)
    if abs(split - budget.delta_star) > _DELTA_SPLIT_TOL * budget.delta_star:
        raise ArithmeticError("delta split failed to reproduce delta_star")
    return params
