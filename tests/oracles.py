"""Independent oracles the tests check the implementation against.

Everything here is deliberately written from scratch against the math, not
by calling into the package: a high-precision Decimal evaluation of the
composition bound, a plain brute-force group-by, a linear-space bisection
for the threshold root, a straight-line replay of the budget update rules,
and a record-by-record replay of the budget journal.

``reference_encode_rows`` is the line-by-line snapshot row coder that
``load_snapshot`` must agree with, table for table and error for error.
``reference_gumbel_unknown`` is the straight-line form of that mechanism
(every step over whole arrays); ``gumbel_unknown`` must make the same
draws in the same order and give the same result.

Two test helpers sit beside them.  The reference noise path builds each
counter-mode substream one stream at a time (docs/formats.md) and uses the
package's inverse CDFs; ``KeyedNoise`` must match it bit for bit.
``ZeroNoise`` draws 0.0 everywhere.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from array import array
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from decimal import Decimal, getcontext
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from dpquery.noise import THRESHOLD_STREAM_ID, gumbel_from_uniform, laplace_from_uniform
from dpquery.store import RESERVED_FIELDS, IngestError, Schema, _row_problem


def br_compose_decimal(eps: str | float, t: int, delta_prime: str | float, prec: int = 60) -> Decimal:
    """Composition bound evaluated in ``prec``-digit decimal arithmetic."""
    getcontext().prec = prec
    e = Decimal(str(eps))
    one = Decimal(1)
    linear = t * e
    if Decimal(str(delta_prime)) == 0:
        return linear
    r = e / (one - (-e).exp())
    g = r - one - r.ln()
    root = (Decimal(t) / 2 * (one / Decimal(str(delta_prime))).ln()).sqrt()
    advanced = t * g + e * root
    return min(linear, advanced)


def brute_force_group_by(
    rows: Iterable[tuple[str, str]], distinct: bool
) -> dict[str, int]:
    """Counts per value from (member_id, value) rows, the dumb way."""
    if distinct:
        seen: dict[str, set[str]] = {}
        for member, value in rows:
            seen.setdefault(value, set()).add(member)
        return {v: len(s) for v, s in seen.items()}
    out: dict[str, int] = {}
    for _, value in rows:
        out[value] = out.get(value, 0) + 1
    return out


def sort_counts(counts: dict[str, int]) -> list[tuple[str, int]]:
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def delta_hat_bisect(delta: float, eps: float, delta_sens: int) -> float:
    """Linear-space bisection for delta = f(dh); independent of the
    implementation's log-space solver."""

    def f(dh: float) -> float:
        return dh / 4 * (math.exp(eps / 2) + 1) * (3 + math.log(delta_sens / dh))

    lo, hi = 1e-300, delta
    for _ in range(10_000):
        mid = (lo + hi) / 2
        if f(mid) < delta:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-18 * hi:
            break
    return (lo + hi) / 2


class BudgetReplay:
    """Straight-line replay of the budget update rules.

    Admission charges the worst-case expected cost of the query; execution
    settles to the realized cost:

        known/restricted:      admit Delta,      charge (Delta, 0)
        unknown/restricted:    admit (Delta, 1), charge (1, 1)
        known/unrestricted:    admit 2k,         charge (2k, 0)
        unknown/unrestricted:  admit (2k+1, 1),  charge (2*n + 1 - bot, 1)
    """

    def __init__(self, max_info: int, max_calls: int):
        self.max_info = max_info
        self.max_calls = max_calls
        self.used_info = 0
        self.used_calls = 0

    def expected(self, domain: str, sensitivity: str, delta_sens: int, k: int) -> tuple[int, int]:
        if sensitivity == "restricted":
            return (delta_sens, 0) if domain == "known" else (delta_sens, 1)
        return (2 * k, 0) if domain == "known" else (2 * k + 1, 1)

    def admit(self, domain: str, sensitivity: str, delta_sens: int, k: int) -> bool:
        info, calls = self.expected(domain, sensitivity, delta_sens, k)
        return (
            self.used_info + info <= self.max_info
            and self.used_calls + calls <= self.max_calls
        )

    def charge(
        self,
        domain: str,
        sensitivity: str,
        delta_sens: int,
        k: int,
        released: int,
        ended_at_bot: bool,
    ) -> None:
        if sensitivity == "restricted":
            info = delta_sens if domain == "known" else 1
            calls = 0 if domain == "known" else 1
        elif domain == "known":
            info, calls = 2 * k, 0
        else:
            info, calls = 2 * released + 1 - int(ended_at_bot), 1
        self.used_info += info
        self.used_calls += calls
        assert 0 <= self.used_info <= self.max_info
        assert 0 <= self.used_calls <= self.max_calls


def replay_budget_journal(
    data: bytes,
    snapshot: Mapping[str, Mapping[str, int]],
    default: tuple[int, int],
    overrides: Mapping[str, tuple[int, int]],
    period: str,
) -> tuple[dict[str, tuple[int, int, int, int, datetime]], int]:
    """Record-by-record replay of a budget journal on top of a snapshot.

    ``snapshot`` maps analyst ids to the snapshot file's record fields.  Each
    whole record, in file order, decodes its id, registers the analyst if
    new (overrides, else ``default``; reset at the start of the period
    holding the record's time), refreshes at the record's timestamp, and
    adds its deltas clamped to [0, max].  Returns
    ``{analyst: (max_info, max_calls, used_info, used_calls, last_reset)}``
    and the offset just past the last whole record.
    """

    def period_start(last_reset: datetime, now: datetime) -> datetime:
        if period == "monthly":
            return datetime(now.year, now.month, 1, tzinfo=timezone.utc)
        length = timedelta(days=int(period.split(":", 1)[1]))
        if now - last_reset < length:
            return last_reset
        return last_reset + (now - last_reset) // length * length

    def clamp(value: int, upper: int) -> int:
        return max(0, min(value, upper))

    records = {
        analyst: [
            raw["max_info"], raw["max_calls"], raw["used_info"], raw["used_calls"],
            datetime.fromtimestamp(raw["last_reset_ms"] / 1000, tz=timezone.utc),
        ]
        for analyst, raw in snapshot.items()
    }
    tail = struct.Struct(">iiq")
    pos = whole = 0
    while pos + 2 <= len(data):
        id_len = int.from_bytes(data[pos : pos + 2], "big")
        end = pos + 2 + id_len + tail.size
        if end > len(data):
            break
        analyst = data[pos + 2 : pos + 2 + id_len].decode("utf-8")
        info, calls, ts_ms = tail.unpack(data[pos + 2 + id_len : end])
        when = datetime.fromtimestamp(ts_ms / 1000, tz=timezone.utc)
        rec = records.get(analyst)
        if rec is None:
            max_info, max_calls = overrides.get(analyst, default)
            rec = records[analyst] = [max_info, max_calls, 0, 0, period_start(when, when)]
        start = period_start(rec[4], when)
        if start > rec[4]:
            rec[2:] = [0, 0, start]
        rec[2] = clamp(rec[2] + info, rec[0])
        rec[3] = clamp(rec[3] + calls, rec[1])
        pos = whole = end
    return {analyst: tuple(rec) for analyst, rec in records.items()}, whole


def chi_square_stat(observed: Sequence[int], probs: Sequence[float]) -> float:
    n = sum(observed)
    return sum(
        (o - n * p) ** 2 / (n * p) for o, p in zip(observed, probs)
    )


# Upper critical values of the chi-square distribution at significance 0.01.
CHI2_CRIT_01 = {1: 6.634896601021211, 2: 9.21034037197618, 3: 11.344866730144371}


# Smallest / largest uniforms handed to the inverse CDFs.
_U_MIN = 2.0**-53
_U_MAX = 1.0 - 2.0**-53


@dataclass
class NoiseStream:
    """Counter-mode PRF stream; (seed, counter) reproducibly determine draws."""

    seed: bytes
    counter: int = 0

    def uniform(self) -> float:
        """Next uniform in [2^-53, 1 - 2^-53] with 53-bit resolution."""
        block = hashlib.blake2b(
            self.counter.to_bytes(8, "big"), key=self.seed, digest_size=8
        ).digest()
        self.counter += 1
        u = (int.from_bytes(block, "big") >> 11) * _U_MIN
        return min(max(u, _U_MIN), _U_MAX)


def substream(seed: bytes, element_id: str) -> NoiseStream:
    """Independent per-element stream; stable under element reordering."""
    child = hashlib.blake2b(
        element_id.encode("utf-8"), key=seed, digest_size=32
    ).digest()
    return NoiseStream(seed=child)


def laplace(stream: NoiseStream, scale: float) -> float:
    return laplace_from_uniform(stream.uniform(), scale)


def gumbel(stream: NoiseStream, scale: float) -> float:
    return gumbel_from_uniform(stream.uniform(), scale)


class ZeroNoise:
    """All draws are 0.0; used by structural tests to expose the noiseless
    skeleton of a mechanism."""

    def labeled_laplace(self, role, labels, scale: float) -> np.ndarray:
        return np.zeros(len(labels))

    def labeled_gumbel(self, role, labels, scale: float) -> np.ndarray:
        return np.zeros(len(labels))

    def indexed_gumbel(self, role, indices: range, scale: float) -> np.ndarray:
        return np.zeros(len(indices))

    def single_laplace(self, stream_id, scale: float) -> float:
        return 0.0

    def single_gumbel(self, stream_id, scale: float) -> float:
        return 0.0


# Numbers decode as the text str() gives them (see reference_encode_rows).
_ROW_DECODER = json.JSONDecoder(
    parse_int=lambda text: str(int(text)),
    parse_float=lambda text: str(float(text)),
    parse_constant=lambda text: str(float(text)),
)


def reference_encode_rows(path: str | Path, schema: Schema) -> dict[str, tuple[list, np.ndarray]]:
    """First-seen values and codes per field of a snapshot's ``rows.ndjson``,
    one text line at a time.

    Each non-blank line is one JSON object holding exactly the reserved
    fields and the schema's dimension columns, and each value loads as
    ``str(value)``; the first line that does not, or whose event_date is not
    an ISO date, raises :class:`IngestError` with its line index and reason.
    """
    dims = schema.dimension_columns()
    slots = [(name, {}, array("i")) for name in (*RESERVED_FIELDS, *dims)]
    width = len(slots)
    date_ids = slots[RESERVED_FIELDS.index("event_date")][1]
    dates: list[date] = []
    decode = _ROW_DECODER.decode
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            if line.isspace():
                continue
            try:
                row = decode(line)
            except json.JSONDecodeError:
                try:
                    json.loads(line)  # words the error as json.loads does
                except json.JSONDecodeError as exc:
                    raise IngestError([(i, f"invalid JSON: {exc}")]) from None
            try:
                for name, ids, codes in slots:
                    codes.append(ids.setdefault(row[name], len(ids)))
                if len(row) != width:
                    raise KeyError("extra fields")
            except (KeyError, TypeError):
                raise IngestError([(i, _row_problem(row, set(dims)))]) from None
            if len(date_ids) > len(dates):  # this row brought a new date
                raw = row["event_date"]
                try:
                    dates.append(date.fromisoformat(str(raw)))
                except ValueError:
                    raise IngestError([(i, f"bad event_date {raw!r}")]) from None
    return {
        name: (
            dates if ids is date_ids else [v if isinstance(v, str) else str(v) for v in ids],
            np.frombuffer(codes, dtype=np.intc).astype(np.int32),
        )
        for name, ids, codes in slots
    }


def reference_gumbel_unknown(ranked, k: int, d_bar: int, tau: int, eps: float, delta: float, noise):
    """``gumbel_unknown`` on a prepared histogram, each step in full: the
    argmin over every cut index, and the candidates from a scan of the
    real ranks below the cut.  Returns (entries, terminated_by_bot)."""
    counts = ranked.counts
    g_scale = tau / eps
    idx = np.arange(k, d_bar + 1, dtype=np.float64)
    base = tau + tau * (np.log(idx) - math.log(delta)) / eps
    cut_scores = base + counts[k : d_bar + 1] + noise.indexed_gumbel("cut", range(k, d_bar + 1), g_scale)
    kc = k + int(np.argmin(cut_scores))
    cut_count = float(counts[kc])
    m = max(min(kc, d_bar - kc), 1)
    h_bot = cut_count + tau * (1 + math.log(m / delta) / eps)
    v_bot = h_bot + noise.single_gumbel(THRESHOLD_STREAM_ID, g_scale)
    cand = np.flatnonzero(counts[: min(len(ranked.elements), kc)] > cut_count)
    entries: tuple = ()
    if cand.shape[0]:
        cand_elements = [ranked.elements[j] for j in cand]
        scores = counts[cand] + noise.labeled_gumbel("select", cand_elements, g_scale)
        above = np.flatnonzero(scores > v_bot)
        survivors = sorted(
            ((cand_elements[i], float(counts[cand[i]]), float(scores[i])) for i in above),
            key=lambda t: (-t[2], t[0]),
        )[:k]
        if survivors:
            count_noise = noise.labeled_laplace("count", [e for e, _, _ in survivors], 2 * tau / eps)
            entries = tuple((e, float(c + z)) for (e, c, _), z in zip(survivors, count_noise))
    return entries, len(entries) < k
