"""The four release mechanisms, one per (domain, sensitivity) cell.

 - known domain, restricted sensitivity:    additive Laplace over the full
   zero-filled domain (``lap_known``)
 - known domain, unrestricted sensitivity:  one-shot Gumbel top-k selection
   with separately noised counts (``exp_known``), equivalent to iterating
   the exponential mechanism with removal
 - unknown domain, restricted sensitivity:  Laplace release above a noisy
   data-dependent threshold (``lap_unknown``)
 - unknown domain, unrestricted sensitivity: Gumbel top-k above a noisy
   threshold at an optimized cut index (``gumbel_unknown``)

Unknown-domain mechanisms see only the top d_bar + 1 ranks of the exact
histogram and emit a bottom sentinel marking the threshold below which
nothing is released.  All logarithms are natural.  Every draw is routed
through a NoiseSource, so the same seed reproduces the same output byte
for byte, regardless of element enumeration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .noise import THRESHOLD_STREAM_ID, NoiseSource, ParameterError

__all__ = [
    "BOT",
    "PrivacyParams",
    "DPResult",
    "RankedHistogram",
    "rank_histogram",
    "solve_delta_hat",
    "lap_known",
    "exp_known",
    "lap_unknown",
    "gumbel_unknown",
    "translate_query",
]

# Sentinel element marking the noisy release threshold in outputs.
BOT = "⊥"

# Substream roles; part of the reproducibility contract (same seed, same
# output), so keep them stable.
_ROLE_SELECT = "select"
_ROLE_COUNT = "count"
_ROLE_VALUE = "value"
_ROLE_CUT = "cut"


@dataclass(frozen=True)
class PrivacyParams:
    """Per-invocation privacy parameters.

    ``delta`` is consumed only by the unknown-domain mechanisms; the
    known-domain mechanisms are pure (delta = 0) releases.
    """

    eps_per: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.eps_per <= 0:
            raise ParameterError(f"eps_per must be positive, got {self.eps_per}")
        if self.delta < 0 or self.delta >= 1:
            raise ParameterError(f"delta must be in [0, 1), got {self.delta}")

    def require_delta(self) -> float:
        if self.delta <= 0:
            raise ParameterError("unknown-domain mechanisms require delta > 0")
        return self.delta


@dataclass(frozen=True)
class DPResult:
    """Ordered private release.

    ``entries`` are (element, released value) sorted descending by the noisy
    values that selected them.  ``terminated_by_bot`` records whether the
    output ended at the threshold sentinel; ``bot_value`` carries the noisy
    threshold when the mechanism releases it (restricted unknown-domain
    only).
    """

    entries: tuple[tuple[str, float], ...]
    terminated_by_bot: bool = False
    bot_value: float | None = None

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RankedHistogram:
    """Histogram slice prepared for the unknown-domain mechanisms.

    ``elements`` are the real element ids by rank; ``counts`` is the rank
    vector zero-padded to at least the number of ranks a mechanism needs.
    Padded ranks enter threshold arithmetic only, they are never release
    candidates.  Build once with :func:`rank_histogram` when running many
    trials over the same slice.
    """

    elements: tuple[str, ...]
    counts: np.ndarray
    # -counts, ascending: ``negated.searchsorted(-c)`` is how many counts exceed c.
    negated: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if np.any(self.counts[1:] > self.counts[:-1]):
            raise ParameterError("ranked counts must be non-increasing")
        self.counts.setflags(write=False)
        object.__setattr__(self, "negated", -self.counts)


def rank_histogram(
    histogram: Sequence[tuple[str, int]], n_ranks: int
) -> RankedHistogram:
    """Sort (element, count) pairs into rank order and zero-pad counts."""
    ordered = sorted(histogram, key=lambda kv: (-kv[1], kv[0]))[:n_ranks]
    counts = np.zeros(n_ranks, dtype=np.float64)
    if ordered:
        counts[: len(ordered)] = [c for _, c in ordered]
    return RankedHistogram(elements=tuple(e for e, _ in ordered), counts=counts)


HistogramInput = Union[Sequence[tuple[str, int]], RankedHistogram]


def _as_ranked(histogram: HistogramInput, n_ranks: int) -> RankedHistogram:
    if isinstance(histogram, RankedHistogram):
        if histogram.counts.shape[0] < n_ranks:
            raise ParameterError(
                f"prepared histogram has {histogram.counts.shape[0]} ranks, "
                f"need at least {n_ranks}"
            )
        return histogram
    return rank_histogram(histogram, n_ranks)


@lru_cache(maxsize=256)
def solve_delta_hat(delta: float, eps_per: float, delta_sensitivity: int) -> float:
    """Invert  delta = dh/4 * (e^(eps/2) + 1) * (3 + ln(Delta/dh))  for dh.

    The right side is strictly increasing in dh on (0, Delta*e^2) and
    exceeds delta at dh = delta, so the root is unique and lies in
    (0, delta).  Solved by bisection on x = ln(dh); the substitution
    residual is at most 1e-12 relative.
    """
    if not 0 < delta < 1:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    if eps_per <= 0:
        raise ParameterError(f"eps_per must be positive, got {eps_per}")
    if delta_sensitivity < 1:
        raise ParameterError(f"delta_sensitivity must be >= 1, got {delta_sensitivity}")

    log_coeff = math.log(math.exp(eps_per / 2) + 1) - math.log(4)
    log_delta_sens = math.log(delta_sensitivity)
    target = math.log(delta)

    def log_rhs(x: float) -> float:
        return x + log_coeff + math.log(3 + log_delta_sens - x)

    lo, hi = target - 800.0, target
    if log_rhs(hi) < target:  # cannot occur for valid inputs; guarded anyway
        raise ArithmeticError("no delta_hat root in (0, delta]")
    for _ in range(200):
        mid = (lo + hi) / 2
        if log_rhs(mid) < target:
            lo = mid
        else:
            hi = mid
    delta_hat = math.exp((lo + hi) / 2)
    reproduced = (
        delta_hat
        / 4
        * (math.exp(eps_per / 2) + 1)
        * (3 + math.log(delta_sensitivity / delta_hat))
    )
    if abs(reproduced - delta) > 1e-12 * delta:
        raise ArithmeticError("delta_hat residual exceeds 1e-12 relative")
    return delta_hat


def lap_known(
    histogram: Sequence[tuple[str, int]],
    delta_sensitivity: int,
    tau: int,
    params: PrivacyParams,
    noise: NoiseSource,
) -> list[tuple[str, float]]:
    """Laplace release over a known domain.

    The histogram must cover the entire declared domain, zero-filled;
    every count is released with Laplace(2*tau/eps) noise in input order.
    The restricted sensitivity bound does not change the noise scale, it is
    charged by the budget layer.
    """
    if not histogram:
        raise ParameterError("known-domain release requires a declared domain")
    if delta_sensitivity < 1:
        raise ParameterError(f"delta_sensitivity must be >= 1, got {delta_sensitivity}")
    elements = [e for e, _ in histogram]
    counts = np.array([c for _, c in histogram], dtype=np.float64)
    noisy = counts + noise.labeled_laplace(_ROLE_COUNT, elements, 2 * tau / params.eps_per)
    return [(e, float(v)) for e, v in zip(elements, noisy)]


def exp_known(
    histogram: Sequence[tuple[str, int]],
    k: int,
    tau: int,
    params: PrivacyParams,
    noise: NoiseSource,
) -> list[tuple[str, float]]:
    """Top-k selection over a known domain via one-shot Gumbel noise.

    Gumbel(tau/eps) noise is added to every count and the k largest noisy
    values pick the winners in descending order; released counts get fresh
    independent Laplace(2*tau/eps) noise from count substreams disjoint
    from the selection substreams.
    """
    d = len(histogram)
    if k < 1 or k > d:
        raise ParameterError(f"k must be in [1, {d}], got {k}")
    elements = [e for e, _ in histogram]
    counts = np.array([c for _, c in histogram], dtype=np.float64)
    scores = counts + noise.labeled_gumbel(_ROLE_SELECT, elements, tau / params.eps_per)
    # Only scores at or above the k-th largest can win; sort just those,
    # ties broken by element id for a deterministic order.
    kth = np.partition(scores, d - k)[d - k]
    candidates = np.flatnonzero(scores >= kth).tolist()
    order = sorted(candidates, key=lambda i: (-scores[i], elements[i]))[:k]
    winners = [elements[i] for i in order]
    count_noise = noise.labeled_laplace(_ROLE_COUNT, winners, 2 * tau / params.eps_per)
    return [(elements[i], float(counts[i] + z)) for i, z in zip(order, count_noise)]


def lap_unknown(
    histogram: HistogramInput,
    delta_sensitivity: int,
    d_bar: int,
    tau: int,
    params: PrivacyParams,
    noise: NoiseSource,
) -> DPResult:
    """Laplace release over an unknown domain, restricted sensitivity.

    Works on the top d_bar + 1 ranks.  Every real ranked element gets
    Laplace(2*tau*Delta/eps) noise; a noisy threshold sits at

        h_(d_bar+1) + tau * (1 + 2*Delta*ln(Delta/delta_hat)/eps) + Laplace

    and exactly the elements whose noisy value strictly exceeds it are
    released, in descending noisy order, terminated by the sentinel and its
    threshold value.
    """
    delta = params.require_delta()
    if delta_sensitivity < 1:
        raise ParameterError(f"delta_sensitivity must be >= 1, got {delta_sensitivity}")
    if d_bar + 1 <= delta_sensitivity:
        raise ParameterError(
            f"need d_bar + 1 > delta_sensitivity, got d_bar={d_bar}, "
            f"delta_sensitivity={delta_sensitivity}"
        )
    delta_hat = solve_delta_hat(delta, params.eps_per, delta_sensitivity)
    ranked = _as_ranked(histogram, d_bar + 1)
    counts = ranked.counts
    scale = 2 * tau * delta_sensitivity / params.eps_per
    gap = tau * (
        1 + 2 * delta_sensitivity * math.log(delta_sensitivity / delta_hat) / params.eps_per
    )
    v_bot = float(counts[d_bar]) + gap + noise.single_laplace(THRESHOLD_STREAM_ID, scale)

    n_real = min(len(ranked.elements), d_bar)  # rank d_bar + 1 is threshold-only
    released: list[tuple[str, float]] = []
    if n_real:
        values = counts[:n_real] + noise.labeled_laplace(
            _ROLE_VALUE, ranked.elements[:n_real], scale
        )
        above = np.flatnonzero(values > v_bot)
        released = [(ranked.elements[i], float(values[i])) for i in above]
        released.sort(key=lambda kv: (-kv[1], kv[0]))
    return DPResult(
        entries=tuple(released), terminated_by_bot=True, bot_value=float(v_bot)
    )


@lru_cache(maxsize=64)
def _cut_base(k: int, d_bar: int, delta: float, tau: float, eps: float) -> np.ndarray:
    """Deterministic part of the cut-index scores: tau + tau*ln(i/delta)/eps."""
    idx = np.arange(k, d_bar + 1, dtype=np.float64)
    base = tau + tau * (np.log(idx) - math.log(delta)) / eps
    base.setflags(write=False)
    return base


def gumbel_unknown(
    histogram: HistogramInput,
    k: int,
    d_bar: int,
    tau: int,
    params: PrivacyParams,
    noise: NoiseSource,
) -> DPResult:
    """Gumbel top-k over an unknown domain, unrestricted sensitivity.

    Works on the top d_bar + 1 ranks h_(1) >= ... >= h_(d_bar+1):

      1. pick the cut index kc in {k..d_bar} minimizing
         h_(i+1) + tau + tau*ln(i/delta)/eps + Gumbel(tau/eps)
      2. noisy threshold v_bot = h_(kc+1)
         + tau * (1 + ln(min(kc, d_bar - kc)/delta)/eps) + Gumbel(tau/eps),
         with min(kc, d_bar - kc) clamped below at 1
      3. ranks j <= kc with h_(j) strictly above h_(kc+1) compete with
         Gumbel(tau/eps) selection noise; the prefix strictly above v_bot,
         capped at k, is released in descending selection order
      4. released counts are the true counts plus fresh independent
         Laplace(2*tau/eps) noise

    If fewer than k elements cleared the threshold, the output is
    terminated by a bare sentinel (no threshold value is disclosed).
    """
    delta = params.require_delta()
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if d_bar + 1 <= k:
        raise ParameterError(f"need d_bar + 1 > k, got d_bar={d_bar}, k={k}")
    ranked = _as_ranked(histogram, d_bar + 1)
    counts = ranked.counts
    g_scale = tau / params.eps_per

    cut_noise = noise.indexed_gumbel(_ROLE_CUT, range(k, d_bar + 1), g_scale)
    if k == d_bar:  # one cut index: drawn for the stream's sake, no argmin
        kc = k
    else:
        base = _cut_base(k, d_bar, delta, float(tau), params.eps_per)
        cut_scores = base + counts[k : d_bar + 1] + cut_noise
        kc = k + int(np.argmin(cut_scores))  # first minimizer on ties
    cut_count = float(counts[kc])

    m = max(min(kc, d_bar - kc), 1)
    h_bot = cut_count + tau * (1 + math.log(m / delta) / params.eps_per)
    v_bot = h_bot + noise.single_gumbel(THRESHOLD_STREAM_ID, g_scale)

    # Counts are non-increasing, so the candidates counts[j] > cut_count
    # among the real ranks below kc are a prefix.
    n_cand = min(int(ranked.negated.searchsorted(-cut_count)), len(ranked.elements), kc)
    if not n_cand:
        return _NO_RELEASE
    cand_elements = ranked.elements[:n_cand]
    scores = counts[:n_cand] + noise.labeled_gumbel(_ROLE_SELECT, cand_elements, g_scale)
    keep = np.flatnonzero(scores > v_bot)
    entries: tuple[tuple[str, float], ...] = ()
    if keep.shape[0]:
        survivors = [(cand_elements[i], float(counts[i]), float(scores[i])) for i in keep]
        survivors.sort(key=lambda t: (-t[2], t[0]))
        survivors = survivors[:k]
        names = [e for e, _, _ in survivors]
        count_noise = noise.labeled_laplace(_ROLE_COUNT, names, 2 * tau / params.eps_per)
        entries = tuple((e, float(c + z)) for (e, c, _), z in zip(survivors, count_noise))
    return DPResult(entries=entries, terminated_by_bot=len(entries) < k, bot_value=None)


# What gumbel_unknown returns when no rank clears the cut; DPResult is frozen.
_NO_RELEASE = DPResult(entries=(), terminated_by_bot=True, bot_value=None)


def translate_query(k: int, k_multiplier: int = 10, min_fetch: int = 1000) -> int:
    """Store fetch size for an unknown-domain query: the top
    max(k_multiplier * k, min_fetch) ranks (the mechanisms then see one
    extra rank for the threshold).  A known domain fetches its whole
    zero-filled domain instead.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    return max(k_multiplier * k, min_fetch)
