"""Deterministic, keyed noise generation.

Identical queries over the identical data snapshot must produce identical
noisy results, so all randomness is derived from a keyed hash of
(system secret, canonical query text, snapshot date).  Per-element noise
comes from independent substreams keyed by a stable label, which makes the
noise vector invariant to the order in which elements are enumerated.

Sampling uses inverse-CDF transforms of counter-mode PRF uniforms:

    Laplace(b):  x = -b * sign(u - 1/2) * ln(1 - 2|u - 1/2|)
    Gumbel(b):   x = -b * ln(-ln u)

Uniforms are clamped away from {0, 1} so neither transform can return an
infinity.  The transforms are computed with libm through ``math``: numpy's
``log`` and ``log1p`` can differ from it in the last bit, which would change
released bytes.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import urllib.parse
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Protocol, Sequence

import numpy as np

__all__ = [
    "NoiseKey",
    "ConfigurationError",
    "ParameterError",
    "THRESHOLD_STREAM_ID",
    "canonical_filter",
    "canonical_query",
    "derive_seed",
    "laplace_from_uniform",
    "gumbel_from_uniform",
    "KeyedNoise",
    "SimNoise",
]


class ConfigurationError(ValueError):
    """Raised for invalid system-level configuration (e.g. empty secret)."""


class ParameterError(ValueError):
    """Raised for invalid per-call parameters (e.g. non-positive scale)."""


# Reserved substream label for the noisy release threshold.  Element labels
# are always role-prefixed, so no element id can collide with it.
THRESHOLD_STREAM_ID = "⊥-threshold"

# Smallest / largest uniforms handed to the inverse CDFs.
_U_MIN = 2.0**-53
_U_MAX = 1.0 - 2.0**-53


def _quote(text: str) -> str:
    return urllib.parse.quote(text, safe="")


def canonical_filter(terms: Iterable[tuple[str, str, Sequence[str]]]) -> str:
    """Serialize filter terms to their canonical byte form.

    ``terms`` are the (column, op, values) conjunctions of
    :func:`dpquery.store.normalize_filter`: sorted by column name, op "="
    for equality and "@" for membership, membership values sorted and
    deduplicated.  Every name and value is percent-encoded, so two filters
    that mean the same thing serialize identically.
    """
    return ";".join(
        _quote(column) + op + ",".join(_quote(v) for v in values) for column, op, values in terms
    )


def canonical_query(
    table: str,
    group_by: str,
    terms: Iterable[tuple[str, str, Sequence[str]]],
    k: int,
    sensitivity: str,
    tau: int,
    delta_sensitivity: int,
) -> str:
    """Canonical query text used to key the pseudorandom seed.

    Two requests that describe the same query must canonicalize to the same
    bytes; see docs/formats.md for the exact grammar.  The snapshot date is
    deliberately not part of this text, it enters the key separately.
    """
    pairs = {
        "delta": str(int(delta_sensitivity)),
        "filter": canonical_filter(terms),
        "group_by": _quote(group_by),
        "k": str(int(k)),
        "sensitivity": sensitivity,
        "table": _quote(table),
        "tau": str(int(tau)),
    }
    return "&".join(f"{name}={pairs[name]}" for name in sorted(pairs))


@dataclass(frozen=True)
class NoiseKey:
    """Inputs that fully determine the noise for one query on one snapshot."""

    secret: bytes
    query_canon: str
    data_date: date


def _length_prefixed(data: bytes) -> bytes:
    return len(data).to_bytes(8, "big") + data


def derive_seed(key: NoiseKey) -> bytes:
    """Derive the 256-bit noise seed for a query.

    HMAC-SHA256 keyed by the system secret over the length-prefixed
    canonical query text and snapshot date.  The seed cannot be recovered
    from the query and date alone, and changing any of the three inputs
    changes the seed.
    """
    if not key.secret:
        raise ConfigurationError("noise secret must be non-empty")
    message = _length_prefixed(key.query_canon.encode("utf-8")) + _length_prefixed(
        key.data_date.isoformat().encode("ascii")
    )
    return hmac.new(key.secret, message, hashlib.sha256).digest()


def _check_scale(kind: str, scale: float) -> None:
    if scale <= 0:
        raise ParameterError(f"{kind} scale must be positive, got {scale}")


def laplace_from_uniform(u: float, scale: float) -> float:
    """Inverse-CDF Laplace transform of one uniform in (0, 1)."""
    _check_scale("laplace", scale)
    q = u - 0.5
    if q == 0.0:
        return 0.0
    return -scale * math.copysign(1.0, q) * math.log1p(-2.0 * abs(q))


def gumbel_from_uniform(u: float, scale: float) -> float:
    """Inverse-CDF Gumbel transform of one uniform in (0, 1)."""
    _check_scale("gumbel", scale)
    return -scale * math.log(-math.log(u))


class NoiseSource(Protocol):
    """Noise interface the mechanisms draw from.

    ``role`` scopes the purpose of a draw (selection noise, count noise,
    threshold-index noise) so that, under the keyed implementation, counts
    and selections come from disjoint substreams.
    """

    def labeled_laplace(
        self, role: str, labels: Sequence[str], scale: float
    ) -> np.ndarray: ...

    def labeled_gumbel(
        self, role: str, labels: Sequence[str], scale: float
    ) -> np.ndarray: ...

    def indexed_gumbel(self, role: str, indices: range, scale: float) -> np.ndarray: ...

    def single_laplace(self, stream_id: str, scale: float) -> float: ...

    def single_gumbel(self, stream_id: str, scale: float) -> float: ...


# The one counter value a KeyedNoise draw uses: each draw is the first
# block of its own substream.
_COUNTER_0 = (0).to_bytes(8, "big")


@dataclass
class KeyedNoise:
    """Deterministic noise source backed by per-label substreams of a seed.

    Draw ``x`` is the first uniform ``u_0`` of the substream of ``x`` (see
    "Substreams and uniform draws" in docs/formats.md for the derivation),
    computed without building the stream: the seed-keyed BLAKE2b state is
    made once and copied per label, and a vector call converts all its
    blocks to uniforms in one numpy step (exact integer shifts and a
    power-of-two scale).  The inverse CDFs stay scalar ``math`` calls.
    """

    seed: bytes

    def __post_init__(self) -> None:
        self._keyed = hashlib.blake2b(key=self.seed, digest_size=32)

    def _uniforms(self, stream_ids: Iterable[str]) -> list[float]:
        keyed, blake2b = self._keyed, hashlib.blake2b
        blocks = []
        for stream_id in stream_ids:
            child = keyed.copy()
            child.update(stream_id.encode("utf-8"))
            blocks.append(blake2b(_COUNTER_0, key=child.digest(), digest_size=8).digest())
        bits = np.frombuffer(b"".join(blocks), dtype=">u8") >> 11
        return np.clip(bits * _U_MIN, _U_MIN, _U_MAX).tolist()

    def _laplace(self, stream_ids: Iterable[str], scale: float) -> np.ndarray:
        _check_scale("laplace", scale)
        copysign, log1p = math.copysign, math.log1p
        return np.array(
            [
                0.0 if (q := u - 0.5) == 0.0 else -scale * copysign(1.0, q) * log1p(-2.0 * abs(q))
                for u in self._uniforms(stream_ids)
            ],
            dtype=np.float64,
        )

    def _gumbel(self, stream_ids: Iterable[str], scale: float) -> np.ndarray:
        _check_scale("gumbel", scale)
        log = math.log
        return np.array(
            [-scale * log(-log(u)) for u in self._uniforms(stream_ids)], dtype=np.float64
        )

    def labeled_laplace(
        self, role: str, labels: Sequence[str], scale: float
    ) -> np.ndarray:
        return self._laplace((f"{role}:{x}" for x in labels), scale)

    def labeled_gumbel(
        self, role: str, labels: Sequence[str], scale: float
    ) -> np.ndarray:
        return self._gumbel((f"{role}:{x}" for x in labels), scale)

    def indexed_gumbel(self, role: str, indices: range, scale: float) -> np.ndarray:
        return self._gumbel((f"{role}:{i}" for i in indices), scale)

    def single_laplace(self, stream_id: str, scale: float) -> float:
        return laplace_from_uniform(self._uniforms((stream_id,))[0], scale)

    def single_gumbel(self, stream_id: str, scale: float) -> float:
        return gumbel_from_uniform(self._uniforms((stream_id,))[0], scale)


class SimNoise:
    """Fast noise source for Monte Carlo runs; labels are ignored.

    Draws come from a numpy generator through an internal block buffer so
    repeated small requests stay cheap.  Vector draws may return views into
    the buffer; callers must not mutate them in place.  This source is for
    statistical experiments only, it provides none of the reproducibility
    guarantees of :class:`KeyedNoise`.
    """

    def __init__(self, rng: np.random.Generator | int | None = None, block: int = 1 << 16):
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self._rng = rng
        self._block = block
        self._buffers: dict[tuple[str, float], tuple[np.ndarray, int]] = {}

    def _take(self, kind: str, scale: float, n: int) -> np.ndarray:
        buf, pos = self._buffers.get((kind, scale), (None, 0))
        if buf is None or pos + n > buf.shape[0]:
            # Checked on the first fill: a refused scale never gets a buffer.
            _check_scale(kind, scale)
            size = max(self._block, n)
            if kind == "laplace":
                buf = self._rng.laplace(0.0, scale, size=size)
            else:
                # Gumbel(scale) as -scale * ln(Exp(1)); the ziggurat
                # exponential sampler is markedly faster than rng.gumbel.
                buf = self._rng.standard_exponential(size)
                np.log(buf, out=buf)
                buf *= -scale
            pos = 0
        self._buffers[(kind, scale)] = (buf, pos + n)
        return buf[pos : pos + n]

    def _take_one(self, kind: str, scale: float) -> float:
        """``float(self._take(kind, scale, 1)[0])``, without the slice while
        the buffer lasts."""
        key = (kind, scale)
        buf, pos = self._buffers.get(key, (None, 0))
        if buf is None or pos == buf.shape[0]:
            return float(self._take(kind, scale, 1)[0])
        self._buffers[key] = (buf, pos + 1)
        return float(buf[pos])

    def labeled_laplace(self, role, labels, scale: float) -> np.ndarray:
        return self._take("laplace", scale, len(labels))

    def labeled_gumbel(self, role, labels, scale: float) -> np.ndarray:
        return self._take("gumbel", scale, len(labels))

    def indexed_gumbel(self, role, indices: range, scale: float) -> np.ndarray:
        return self._take("gumbel", scale, len(indices))

    def single_laplace(self, stream_id, scale: float) -> float:
        return self._take_one("laplace", scale)

    def single_gumbel(self, stream_id, scale: float) -> float:
        return self._take_one("gumbel", scale)
